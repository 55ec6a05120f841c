import math
import warnings

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
    load_config_file,
    path_loss,
    replace_config,
)
from ariswpc.ris import MAX_PHASE_BITS


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

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"M = 4\n\xff\n")
        with pytest.raises(ConfigParseError, match="not UTF-8"):
            load_config_file(path)

    def test_missing_file_stays_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config_file(tmp_path / "absent.cfg")

    @pytest.mark.parametrize(
        "text", ["[a]\nM = 4\n[b]\nM = 8\n", "M = 4\n[b]\nM = 8\n", "[DEFAULT]\nM = 4\n[config]\nM = 8\n"]
    )
    def test_key_repeated_across_sections(self, text):
        with pytest.raises(ConfigParseError, match="option 'M' is set again"):
            load_config(text)

    def test_a_lone_default_section_is_read(self):
        assert load_config("[DEFAULT]\nM = 4\n") == SystemConfig(M=4)


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
        ],
    )
    def test_invariant_violations(self, field, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected without numpy's overflow warning
            with pytest.raises(ConfigValidationError) as err:
                SystemConfig(**{field: value})
        assert err.value.field == field

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
