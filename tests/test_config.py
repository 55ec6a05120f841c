import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ariswpc import (
    ConfigParseError,
    ConfigValidationError,
    RisMode,
    SystemConfig,
    dbm_to_linear,
    ergodic_terms,
    harvested_power_coefficient,
    load_config,
    path_loss,
    replace_config,
)
from ariswpc import cli, config
from ariswpc.ris import MAX_PHASE_BITS


def _parse_set_text(key: str, raw: str):
    """The --set rule for text, the reference parser: whole numbers take an integer literal, the
    per-element fields comma-separated numbers, the mode stays text, every other field a number."""
    raw = raw.strip()
    try:
        if key == "ris_mode":
            return raw
        if key in ("M", "b", "quadrature_points", "mc_samples"):
            return int(raw)
        if key in ("rho", "d_h", "d_g") and "," in raw:
            return tuple(float(v) for v in raw.split(","))
        return float(raw)
    except ValueError:
        raise ConfigParseError(f"cannot parse value for {key!r}: {raw!r}") from None


class TestLoadConfig:
    def test_empty_document_gives_defaults(self):
        cfg = load_config("")
        assert cfg == SystemConfig()
        assert cfg.M == 36
        assert cfg.b == 4
        assert cfg.epsilon == 3.0
        assert cfg.eta == 0.8
        assert cfg.d_p == 20.0
        assert cfg.d_f == 30.0
        assert cfg.d_h == (20.0,) * 36
        assert cfg.d_g == (20.0,) * 36
        assert cfg.rho == (6.0,) * 36

    def test_basic_overrides(self):
        cfg = load_config("M = 16\nP_p_dbm = 25\nb = 1\n")
        assert cfg.M == 16
        assert cfg.P_p_dbm == 25.0
        assert cfg.b == 1
        assert len(cfg.rho) == 16

    def test_comments_and_section_header(self):
        text = "[config]\n# a comment\nM = 8  # inline\nalpha = 0.25\n"
        cfg = load_config(text)
        assert cfg.M == 8
        assert cfg.alpha == 0.25

    def test_list_values(self):
        cfg = load_config("M = 3\nrho = 1, 2, 3\nd_h = 10, 20, 30\n")
        assert cfg.rho == (1.0, 2.0, 3.0)
        assert cfg.d_h == (10.0, 20.0, 30.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigParseError, match="unknown config key"):
            load_config("bogus = 1\n")

    def test_malformed_document(self):
        with pytest.raises(ConfigParseError):
            load_config("M 36 no equals sign\n")

    def test_alpha_out_of_range_names_field(self):
        with pytest.raises(ConfigValidationError, match="alpha") as err:
            load_config("alpha = 1.5\n")
        assert err.value.field == "alpha"

    def test_passive_mode_overrides(self):
        cfg = load_config("ris_mode = Passive\nrho = 6\n")
        assert cfg.ris_mode is RisMode.PASSIVE
        assert np.all(cfg.rho_effective == 1.0)
        assert cfg.sigma_v2_mw == 0.0

    def test_purity(self):
        text = "M = 12\nrho = 2.5\nalpha = 0.3\n"
        assert load_config(text) == load_config(text)


class TestConfigFile:
    """A malformed config document or file is a ConfigParseError; a path that cannot be opened is not."""

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"M = 4\n\xff\n")
        assert cli.main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigParseError: malformed config document: not UTF-8 text")
        assert err.count("\n") == 1

    def test_missing_file_stays_os_error(self, tmp_path, capsys):
        assert cli.main(["compare", "--config", str(tmp_path / "absent.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text", ["[a]\nM = 4\n[b]\nM = 8\n", "M = 4\n[b]\nM = 8\n", "[DEFAULT]\nM = 4\n[config]\nM = 8\n"]
    )
    def test_key_repeated_across_sections(self, text):
        with pytest.raises(ConfigParseError, match="option 'M' is set again"):
            load_config(text)

    def test_a_lone_default_section_is_read(self):
        assert load_config("[DEFAULT]\nM = 4\n") == SystemConfig(M=4)


# A valid text of each field, other than its default
_VALID_TEXT = {
    "P_p_dbm": "25", "eta": "0.5", "alpha": "0.3", "M": "4", "rho": "2", "rho_max": "7", "b": "2", "d_p": "15",
    "d_f": "25", "d_h": "12", "d_g": "14", "epsilon": "2.5", "sigma_v2_dbm": "-70", "sigma_n2_dbm": "-75",
    "r_v": "1", "P1_dbm": "-5", "P2_dbm": "-6", "P_R_mw": "20", "ris_mode": "passive", "quadrature_points": "50",
    "mc_samples": "2000",
}


class TestText:
    """SystemConfig parses text itself, by the --set rule, so every entrance gives the same config or error."""

    def test_library_text_follows_the_set_rule(self):
        with pytest.raises(ConfigValidationError, match=r"^rho: each element must lie in \[0, rho_max=6.0\]$"):
            SystemConfig(M=2, rho="12")  # the number 12, not the characters 1 and 2
        assert SystemConfig(M=2, rho="12", rho_max=12).rho == (12.0, 12.0)
        assert SystemConfig(alpha="0.3") == SystemConfig(alpha=0.3)
        with pytest.raises(ConfigValidationError, match="^rho: expected length 36, got 2$"):
            SystemConfig(rho="1,2")
        cfg = SystemConfig(M=3, rho=(1, 2, 3))
        assert replace_config(cfg, M="3") == cfg
        with pytest.raises(ConfigParseError, match="^cannot parse value for 'M': '4.0'$"):
            SystemConfig(M="4.0")
        assert SystemConfig(ris_mode=" Passive ").ris_mode is RisMode.PASSIVE

    @pytest.mark.parametrize("field", list(_VALID_TEXT))
    def test_three_entrances_agree(self, field, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(cli, "compare_active_passive", lambda cfg: built.append(cfg) or "")

        def error_line(build):
            try:
                build()
            except Exception as exc:  # noqa: BLE001 - main prints any error as one line
                return f"error: {type(exc).__name__}: {exc}\n"

        pool = [_VALID_TEXT[field], f"  {_VALID_TEXT[field]}  ", "0.3x", "4.0", "1e5", ",".join(["3"] * 36), "1,2",
                "Passive", " bogus "]
        for text in pool:
            settings = {field: text}
            library = error_line(lambda: built.append(SystemConfig(**settings)))
            text_document = "".join(f"{k} = {v}\n" for k, v in settings.items())
            document = error_line(lambda: built.append(load_config(text_document)))
            argv = [item for k, v in settings.items() for item in ("--set", f"{k}={v}")]
            assert cli.main(["compare", *argv]) == (library is not None)
            assert (library, document, capsys.readouterr().err or None) == (library, library, library), text
            if library is None:
                assert built[0] == built[1] == built[2], text
                assert [type(getattr(built[2], f)) for f in config._FIELDS] == [
                    type(getattr(built[0], f)) for f in config._FIELDS]
            built.clear()

    def test_set_of_the_files_own_m_keeps_its_per_element_vector(self, tmp_path, capsys):
        path = tmp_path / "three.cfg"
        path.write_text("M = 3\nrho = 1,2,3\n", encoding="utf-8")
        assert cli.main(["compare", "--config", str(path), "--set", "M=3"]) == 0
        assert cli.main(["compare", "--config", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        first, second = captured.out.split("ris_mode,")[1:]
        assert first == second

    def test_unknown_set_key_is_named_before_any_value_is_parsed(self, capsys):
        assert cli.main(["compare", "--set", "M=x", "--set", "bogus=1"]) == 1
        assert capsys.readouterr().err == "error: ConfigParseError: unknown config key: 'bogus'\n"

    def test_first_unparsable_value_in_field_order_is_named(self):
        with pytest.raises(ConfigParseError, match="^cannot parse value for 'M': 'y'$"):
            load_config("b = x\nM = y\n")

    @pytest.mark.parametrize(
        "argv", [["--set", "M=x", "--set", "M=4"], ["--set", "quadrature_points=x", "--quadrature-points", "50"],
                 ["--config", "M-x.cfg", "--set", "M=4"]],
        ids=["set-again", "dedicated-flag", "file-value"])
    def test_a_replaced_set_value_is_not_parsed(self, argv, tmp_path, capsys):
        (tmp_path / "M-x.cfg").write_text("M = x\n", encoding="utf-8")
        argv = [str(tmp_path / item) if item.endswith(".cfg") else item for item in argv]
        assert cli.main(["compare", *argv]) == 0
        assert capsys.readouterr().err == ""

    def test_mc_alpha_is_checked_in_field_order(self, capsys):
        with pytest.raises(ConfigValidationError) as err:
            SystemConfig(alpha=1.5, eta=2)
        assert cli.main(["mc", "--alpha", "1.5", "--set", "eta=2"]) == 1
        assert capsys.readouterr().err == f"error: ConfigValidationError: {err.value}\n"
        assert err.value.field == "alpha"


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("alpha", 0.0),
            ("alpha", 1.0),
            ("eta", 0.0),
            ("eta", 1.2),
            ("d_p", 0.0),
            ("d_f", -3.0),
            ("epsilon", 0.0),
            ("M", -1),
            ("b", 0),
            ("mc_samples", 0),
            ("mc_samples", 99),
            ("quadrature_points", 0),
            ("r_v", -1.0),
            ("r_v", float("inf")),
            ("rho_max", float("inf")),
            ("P_R_mw", 0.0),
            ("quadrature_points", 1),
            ("b", 1100),
            ("b", MAX_PHASE_BITS + 1),
            ("P_p_dbm", 1e6),
            ("sigma_v2_dbm", 1e6),
            ("sigma_n2_dbm", 1e6),
            ("sigma_n2_dbm", -4000.0),
            ("P_p_dbm", -4000.0),
            ("P1_dbm", 1e6),
            ("P2_dbm", float("inf")),
            ("P_R_mw", -1.0),
            ("P_R_mw", float("nan")),
            # path loss d^-epsilon that overflows, and a hub link that carries no power
            ("d_p", 1e-300),
            ("d_f", 1e-300),
            ("d_h", 1e-300),
            ("d_g", 1e-300),
            ("d_p", float("inf")),
            ("d_p", 1e200),
            # a NaN behind a valid first element, and a mode that is neither a RisMode nor a str
            ("d_h", (20.0, 20.0, math.nan) + (20.0,) * 33),
            ("d_g", (20.0, math.nan) + (20.0,) * 34),
            ("rho", (6.0,) * 35 + (math.nan,)),
            ("ris_mode", None),
            ("ris_mode", 5),
            ("ris_mode", 1.0),
            ("ris_mode", True),
        ],
    )
    def test_invariant_violations(self, field, value):
        # the same field and message whether the config is built or replaced
        errors = []
        for build in (lambda: SystemConfig(**{field: value}), lambda: replace_config(SystemConfig(), **{field: value})):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # rejected without numpy's overflow warning
                with pytest.raises(ConfigValidationError) as err:
                    build()
            errors.append((err.value.field, str(err.value)))
        assert errors[0][0] == field
        assert errors[1] == errors[0]

    @pytest.mark.parametrize(
        "changes,first",
        [
            ({"eta": 2.0, "alpha": 0.0}, "alpha: must lie in (0, 1), got 0.0"),
            ({"mc_samples": 0, "P2_dbm": math.inf}, "P2_dbm: must be finite in dBm, and finite and above 0 in mW"),
            ({"d_g": (20.0, math.nan) + (20.0,) * 34, "d_h": 0.0}, "d_h: all distances must be positive"),
            ({"rho": 7.0, "d_g": 1e-300}, "d_g: path loss d^-epsilon must be finite"),
            ({"alpha": 2.0, "M": 1.5}, "M: must be an integer, got 1.5"),
            ({"M": -1, "ris_mode": None}, "ris_mode: must be 'active' or 'passive', got None"),
        ],
    )
    def test_first_checked_field_wins(self, changes, first):
        for build in (lambda: SystemConfig(**changes), lambda: replace_config(SystemConfig(), **changes)):
            with pytest.raises(ConfigValidationError) as err:
                build()
            assert str(err.value) == first

    def test_epsilon_that_zeroes_the_hub_link_names_d_p(self):
        with pytest.raises(ConfigValidationError, match=r"^d_p: path loss d\^-epsilon must be above 0$"):
            SystemConfig(epsilon=1000.0)

    @pytest.mark.parametrize("field", ["d_f", "d_h", "d_g"])
    def test_infinite_distance_is_a_blocked_link(self, field):
        cfg = SystemConfig(**{field: math.inf})
        assert np.all(getattr(cfg, "zeta" + field[1:]) == 0.0)

    def test_huge_hub_power_overflows_as_p_p_error(self):
        # 10^308 mW is a finite field, but K = eta P_p signal / t6 overflows, and nu1 at alpha = 0.9
        cfg = SystemConfig(P_p_dbm=3080.0)
        for evaluate in (lambda: ergodic_terms(cfg), lambda: harvested_power_coefficient(cfg, 0.9)):
            with pytest.raises(ConfigValidationError) as err:
                evaluate()
            assert err.value.field == "P_p_dbm"
        assert math.isfinite(harvested_power_coefficient(cfg, 0.1))

    def test_zero_budget_only_without_elements(self):
        assert SystemConfig(M=0, P_R_mw=0.0).P_R_mw == 0.0
        with pytest.raises(ConfigValidationError, match="^P_R_mw: must be positive$"):
            SystemConfig(M=1, P_R_mw=0.0)

    def test_rho_above_ceiling(self):
        with pytest.raises(ConfigValidationError) as err:
            SystemConfig(rho=7.0, rho_max=6.0)
        assert err.value.field == "rho"

    def test_rho_length_mismatch(self):
        with pytest.raises(ConfigValidationError):
            SystemConfig(M=4, rho=(1.0, 2.0))

    def test_m_zero_is_no_ris(self):
        cfg = SystemConfig(M=0)
        assert cfg.rho == ()
        assert cfg.zeta_h.shape == (0,)

    @pytest.mark.parametrize("b", [16, MAX_PHASE_BITS])
    def test_fine_phase_resolution_allowed(self, b):
        assert SystemConfig(b=b).b == b

    def test_eta_one_allowed(self):
        assert SystemConfig(eta=1.0).eta == 1.0

    def test_cached_values_read_first_by_many_threads_agree(self):
        # the cached values take no lock: threads that read one first may each compute it, and get equal arrays
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                for _ in range(20):
                    cfg = SystemConfig(M=64, d_h=tuple(range(1, 65)))
                    values = list(pool.map(lambda _: (cfg.zeta_h, cfg.rho_effective), range(32), timeout=30))
                    for zeta_h, rho in values:
                        assert np.array_equal(zeta_h, values[0][0]) and np.array_equal(rho, values[0][1])
                        assert not zeta_h.flags.writeable and not rho.flags.writeable
                    assert cfg.zeta_h is cfg.zeta_h
        finally:
            sys.setswitchinterval(interval)

    def test_config_is_immutable(self):
        cfg = SystemConfig()
        with pytest.raises(Exception):
            cfg.M = 10
        assert not cfg.rho_effective.flags.writeable


class TestUnitConversions:
    @pytest.mark.parametrize("dbm,mw", [(0.0, 1.0), (20.0, 100.0), (-80.0, 1e-8)])
    def test_dbm_to_linear(self, dbm, mw):
        assert dbm_to_linear(dbm) == pytest.approx(mw, rel=1e-12)


class TestPathLoss:
    def test_unit_distance(self):
        assert path_loss(1.0, 3.0) == 1.0

    def test_direct_evaluation(self):
        assert path_loss(20.0, 3.0) == pytest.approx(20.0**-3, rel=1e-12)
        assert path_loss(20.0, 3.0) == pytest.approx(1.25e-4, rel=1e-9)
        assert path_loss(30.0, 3.0) == pytest.approx(1.0 / 27000.0, rel=1e-12)
        assert path_loss(30.0, 3.0) == pytest.approx(3.7037e-5, rel=1e-4)

    def test_strictly_decreasing_in_distance(self):
        ds = np.linspace(0.5, 100.0, 400)
        zetas = path_loss(ds, 3.0)
        assert np.all(np.diff(zetas) < 0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 3.0)
        with pytest.raises(ValueError):
            path_loss(-1.0, 2.0)


class TestReplaceConfig:
    def test_rebroadcast_on_m_change(self):
        cfg = replace_config(SystemConfig(), M=8)
        assert cfg.M == 8
        assert cfg.rho == (6.0,) * 8
        assert cfg.d_h == (20.0,) * 8

    def test_nonuniform_vector_blocks_m_change(self):
        cfg = SystemConfig(M=3, rho=(1.0, 2.0, 3.0))
        with pytest.raises(ConfigValidationError):
            replace_config(cfg, M=5)

    def test_plain_field_update(self):
        cfg = replace_config(SystemConfig(), alpha=0.42)
        assert cfg.alpha == 0.42
        assert cfg.M == 36

    @pytest.mark.parametrize(
        "changes",
        [{"alpha": 0.42}, {"P_p_dbm": 5.0}, {"rho_max": 7.0}, {"epsilon": 2.5}, {"ris_mode": "passive"},
         {"M": 8}, {"M": 36}, {"d_h": 15.0}, {"d_g": 15.0}, {"rho": 2.0}, {"d_p": 15.0}, {"d_f": 15.0}],
    )
    def test_shared_arrays_match_a_fresh_config(self, changes):
        cfg = SystemConfig(d_h=12.0, d_g=25.0, rho=3.0)
        new = replace_config(cfg, **changes)
        fresh = SystemConfig(**{**{f: getattr(new, f) for f in ("rho", "d_h", "d_g")}, **changes})
        for name, inputs in (("rho_effective", {"M", "rho", "ris_mode"}), ("zeta_p", {"d_p", "epsilon"}),
                             ("zeta_f", {"d_f", "epsilon"}), ("zeta_h", {"M", "d_h", "epsilon"}),
                             ("zeta_g", {"M", "d_g", "epsilon"})):
            np.testing.assert_array_equal(getattr(new, name), getattr(fresh, name))
            # an array whose inputs are untouched is the source's own, computed once
            assert (getattr(new, name) is getattr(cfg, name)) == inputs.isdisjoint(changes)

    def test_unknown_field_raises_the_constructor_type_error(self):
        message = "SystemConfig.__init__() got an unexpected keyword argument 'bogus'"
        for changes in ({"bogus": 1}, {"alpha": 0.3, "bogus": 1, "other": 2}, {"M": 4, "bogus": 1}):
            for cfg in (SystemConfig(), SystemConfig(M=3, rho=(1.0, 2.0, 3.0))):  # before the M-rebroadcast rule
                with pytest.raises(TypeError) as err:
                    replace_config(cfg, **changes)
                assert str(err.value) == message

    def test_derived_config_equals_a_full_build(self):
        # replace_config coerces and checks only what changed: it raises what a full build of the same
        # values raises, type and message, or returns a config equal to it, field types and handed-on arrays too
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        bases = [
            SystemConfig(),
            SystemConfig(M=0, P_R_mw=0.0),
            SystemConfig(ris_mode="passive", b=1),
            SystemConfig(M=3, rho=(1.0, 2.0, 3.0), d_h=(10.0, 20.0, 30.0), d_g=(5.0, 15.0, 25.0)),
            SystemConfig(M=2, d_p=1e-90, d_f=math.inf, d_h=1e90, d_g=1e-90),
        ]
        odd = [math.nan, math.inf, -math.inf, -1.0, 0.0, 2.5, -2, "bogus", "Passive", RisMode.ACTIVE, None, [1.0]]
        plausible = st.sampled_from([0.3, 0.5, 2.0, 4, 15.0, 100, 150, -20.0, 1e-300, 1e300, 3080.0])
        scalars = st.one_of(plausible, plausible, plausible, st.sampled_from(odd), st.floats(), st.integers(-3, 300))
        vectors = st.one_of(plausible, st.sampled_from(odd), st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4).map(
            tuple))
        element_counts = st.sampled_from([0, 2, 3, 4, 36, 4.0, np.int64(3), 2.5, -1, math.nan, math.inf, "4", None, [4]])
        # every field but M, those read by another field's checks twice as often
        fields = [f for f in config._FIELDS if f != "M"] + ["epsilon", "rho_max", "P_R_mw", "rho", "d_p", "d_h", "d_g"]
        field_changes = st.lists(
            st.sampled_from(fields).flatmap(
                lambda f: st.tuples(st.just(f), vectors if f in ("rho", "d_h", "d_g") else scalars)),
            max_size=2, unique_by=lambda item: item[0]).map(dict)

        def full_build(cfg, changes):
            # SystemConfig of cfg's values and the changes, text parsed by the --set rule first, then the
            # M-rebroadcast rule
            changes = {k: _parse_set_text(k, v) if type(v) is str else v for k, v in changes.items()}
            if "M" in changes and changes["M"] != cfg.M:
                for name in ("rho", "d_h", "d_g"):
                    uniq = set(getattr(cfg, name))
                    if name not in changes and len(uniq) > 1:
                        raise ConfigValidationError(name, "cannot change M with a non-uniform per-element vector")
                    changes.setdefault(name, uniq.pop() if uniq else None)
            return SystemConfig(**{**{f: getattr(cfg, f) for f in config._FIELDS}, **changes})

        def outcome(build):
            try:
                return build(), None
            except Exception as exc:  # noqa: BLE001 - the property compares any error
                return None, (type(exc), str(exc))

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
        @hypothesis.given(
            cfg=st.sampled_from(bases),
            changes=field_changes,
            M=element_counts,
            change_M=st.booleans(),
        )
        def check(cfg, changes, M, change_M):
            if change_M or not changes:
                changes = {"M": M, **changes}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                derived, derived_error = outcome(lambda: replace_config(cfg, **changes))
                full, full_error = outcome(lambda: full_build(cfg, changes))
            assert derived_error == full_error
            if full is not None:
                assert derived == full
                assert [type(getattr(derived, f)) for f in config._FIELDS] == [
                    type(getattr(full, f)) for f in config._FIELDS]
                for name, _ in config._HANDED_ON:
                    assert np.array_equal(getattr(derived, name), getattr(full, name)), name

        check()
