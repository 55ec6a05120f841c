import csv
import functools
import io
import math
import warnings

import numpy as np
import pytest

from ariswpc import (
    SystemConfig,
    effective_alpha_closed_form,
    effective_rate,
    ergodic_rate,
    expected_power,
    mc_ergodic_rate,
    mc_outage,
    montecarlo,
    optimize_alpha_ergodic,
    outage_probability,
    replace_config,
)
from ariswpc import cli, closedform, config, montecarlo, optimize, power
from ariswpc.cli import SweepSpec, compare_active_passive, main, reproduce_figure, run_sweep


def _parse(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _col(header, rows, name):
    i = header.index(name)
    return [float(r[i]) for r in rows]


class TestSweepSpec:
    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(variable="M", values=(), outputs=("ergodic_cf",))

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            SweepSpec(variable="M", values=(1, 3, 2), outputs=("ergodic_cf",))

    def test_decreasing_allowed(self):
        spec = SweepSpec(variable="alpha", values=(0.9, 0.5, 0.1), outputs=("power",))
        assert spec.values == (0.9, 0.5, 0.1)

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError, match="unknown outputs"):
            SweepSpec(variable="M", values=(1,), outputs=("bogus",))

    def test_repeated_output_rejected(self):
        with pytest.raises(ValueError, match=r"^repeated outputs: \['power'\]$"):
            SweepSpec(variable="M", values=(8, 4), outputs=("power", "ergodic_cf", "power"))

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="variable"):
            SweepSpec(variable="spam", values=(1,), outputs=("power",))


class TestRunSweep:
    def test_monotone_rate_columns(self):
        cfg = replace_config(SystemConfig(), mc_samples=2000)
        spec = SweepSpec(
            variable="P_p_dbm",
            values=tuple(range(0, 31, 5)),
            outputs=("ergodic_cf", "ergodic_mc"),
            seed=3,
        )
        header, rows = _parse(run_sweep(cfg, spec))
        assert header[0] == "P_p_dbm"
        cf = _col(header, rows, "ergodic_cf_bits_per_s_hz")
        mc = _col(header, rows, "ergodic_mc_bits_per_s_hz")
        assert np.all(np.diff(cf) > 0)
        assert np.all(np.diff(mc) > 0)

    def test_byte_identical_under_seed(self):
        cfg = replace_config(SystemConfig(), mc_samples=2000)
        spec = SweepSpec(variable="M", values=(8, 16), outputs=("outage_mc",), seed=5)
        assert run_sweep(cfg, spec) == run_sweep(cfg, spec)

    def test_seed_moves_mc_columns(self):
        cfg = replace_config(SystemConfig(), mc_samples=2000)
        a = run_sweep(cfg, SweepSpec(variable="M", values=(8,), outputs=("outage_mc",), seed=1))
        b = run_sweep(cfg, SweepSpec(variable="M", values=(8,), outputs=("outage_mc",), seed=2))
        assert a != b

    def test_error_annotated_with_sweep_value(self):
        spec = SweepSpec(variable="alpha", values=(0.5, 1.5), outputs=("ergodic_cf",))
        with pytest.raises(ValueError, match="alpha=1.5"):
            run_sweep(SystemConfig(), spec)

    def test_alpha_star_and_dagger_columns(self):
        spec = SweepSpec(
            variable="P_p_dbm", values=(10.0, 20.0), outputs=("alpha_star", "alpha_dagger")
        )
        header, rows = _parse(run_sweep(SystemConfig(), spec))
        stars = _col(header, rows, "alpha_star")
        daggers = _col(header, rows, "alpha_dagger")
        assert stars[1] <= stars[0]
        assert daggers[0] == daggers[1]  # depends only on the target rate


class TestFigures:
    def test_fig6_error_follows_its_column_order(self, capsys):
        # the power overflows from M=8 at alpha=0.9 and from M=56 at alpha=0.1: the alpha=0.1 column comes first
        argv = ["figure", "fig6", "--set", "d_h=1", "--set", "P1_dbm=3064.77", "--set", "P_p_dbm=3049.7"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: ConfigValidationError: P_p_dbm: the expected RIS power overflows at alpha=0.1; it must be finite\n")

    def test_fig2_quantization_ordering(self):
        files = reproduce_figure("fig2")
        header, rows = _parse(files["fig2_ergodic_vs_pp.csv"])
        b1 = _col(header, rows, "ergodic_active_b1_bits_per_s_hz")
        b4 = _col(header, rows, "ergodic_active_b4_bits_per_s_hz")
        ideal = _col(header, rows, "ergodic_active_ideal_bits_per_s_hz")
        passive = _col(header, rows, "ergodic_passive_bits_per_s_hz")
        assert all(x < y for x, y in zip(b1, b4))
        assert all(x <= y for x, y in zip(b4, ideal))
        assert all(p < a for p, a in zip(passive, b4))

    def test_fig3_active_m16_beats_passive_m32_at_20dbm(self):
        files = reproduce_figure("fig3")
        header, rows = _parse(files["fig3_outage_vs_pp.csv"])
        row20 = next(r for r in rows if float(r[0]) == 20.0)
        active16 = float(row20[header.index("outage_active_m16_prob")])
        passive32 = float(row20[header.index("outage_passive_m32_prob")])
        assert active16 <= passive32

    def test_fig4_star_row_is_grid_maximum(self):
        files = reproduce_figure("fig4")
        header, rows = _parse(files["fig4_rates_vs_alpha.csv"])
        ergodic = _col(header, rows, "ergodic_rate_bits_per_s_hz")
        flags = _col(header, rows, "is_alpha_star")
        star_idx = flags.index(1.0)
        assert ergodic[star_idx] == max(ergodic)
        assert _col(header, rows, "is_alpha_dagger").count(1.0) == 1

    def test_fig5_and_fig6_monotone_power(self):
        f5 = reproduce_figure("fig5")
        header, rows = _parse(f5["fig5_power_vs_rho.csv"])
        assert np.all(np.diff(_col(header, rows, "expected_power_mw")) > 0)
        f6 = reproduce_figure("fig6")
        header, rows = _parse(f6["fig6_power_vs_alpha.csv"])
        assert np.all(np.diff(_col(header, rows, "expected_power_mw")) > 0)
        header, rows = _parse(f6["fig6_power_vs_m.csv"])
        low = _col(header, rows, "expected_power_alpha_0p1_mw")
        high = _col(header, rows, "expected_power_alpha_0p9_mw")
        assert all(a < b for a, b in zip(low, high))

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            reproduce_figure("fig9")


def _per_cell_csv(header, rows) -> str:
    """The per-cell writer: each cell through cli._fmt, each row through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cli._fmt(v) for v in row] for row in rows)
    return buf.getvalue()


class TestCsvTable:
    _CELLS = (1.5, -0.0, 5e-324, 1.7976931348623157e308, np.float64(-2.25e-300), np.float32(0.1), 0, -7, 2**70,
              np.int64(-9), np.uint8(255), np.int32(3), True, False, np.bool_(True), np.bool_(False), None, "",
              "plain", 'a "quoted", cell', "two\nlines")

    def test_bytes_equal_the_per_cell_writer(self):
        rng = np.random.default_rng(11)
        picks = [rng.integers(len(self._CELLS), size=rng.integers(0, 7)) for _ in range(300)]
        rows = [[self._CELLS[i] for i in pick] for pick in picks]
        # numbers only, and a row type seen twice, take the one-template path; the others fall back
        rows += [[1.5, np.float64(2.0), 3, np.int64(4), True, np.bool_(False)]] * 2 + [[], [""], [None]]
        header = ["x", "y,z", 'q"uote']
        assert cli._csv_table(header, rows) == _per_cell_csv(header, rows)
        assert cli._csv_table(header, iter(map(tuple, rows))) == _per_cell_csv(header, rows)

    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_raises_at_the_first(self, kind, bad):
        for row in ([1.0, 2, kind(bad), kind(-bad)], [np.float64(1.0), kind(bad), math.nan], ["x", 1.0, kind(bad)],
                    [np.float32(1.0), kind(bad), math.inf]):
            with pytest.raises(ValueError) as expected:
                _per_cell_csv(["h"], [[0.5, 1], row])
            with pytest.raises(ValueError) as raised:
                cli._csv_table(["h"], [[0.5, 1], row])
            assert str(raised.value) == str(expected.value) == f"non-finite value {float(bad)} in a CSV cell"


class TestCompare:
    def test_active_beats_passive_at_defaults(self):
        header, rows = _parse(compare_active_passive(SystemConfig()))
        by_mode = {r[0]: r for r in rows}
        i = header.index("ergodic_rate_bits_per_s_hz")
        assert float(by_mode["active"][i]) > float(by_mode["passive"][i])

    def test_amplified_noise_lets_passive_win(self):
        cfg = replace_config(SystemConfig(), sigma_v2_dbm=40.0)
        header, rows = _parse(compare_active_passive(cfg))
        by_mode = {r[0]: r for r in rows}
        i = header.index("ergodic_rate_bits_per_s_hz")
        assert float(by_mode["passive"][i]) > float(by_mode["active"][i])

    def test_unit_gain_vanishing_noise_matches_passive_rates(self):
        # rho=1 with sigma_v^2 -> 0 reproduces the passive link quality; the
        # power column still differs (passive hardware has no amplifiers)
        cfg = replace_config(SystemConfig(), rho=1.0, sigma_v2_dbm=-400.0)
        header, rows = _parse(compare_active_passive(cfg))
        by_mode = {r[0]: r for r in rows}
        for col in ("ergodic_rate_bits_per_s_hz", "outage_prob", "effective_rate_bits_per_s_hz"):
            i = header.index(col)
            assert float(by_mode["active"][i]) == pytest.approx(
                float(by_mode["passive"][i]), rel=1e-9, abs=1e-12
            )


_K_OVERFLOWS = "P_p_dbm: K = eta*P_p*(t1 + t2 t3 + t4 + t5)/t6 overflows; it must be finite"
_NU1_OVERFLOWS = "P_p_dbm: nu1 = eta*alpha*P_p/(1-alpha) overflows at alpha=0.9; it must be finite"
_SINR_OVERFLOWS = "P_p_dbm: the mean SINR nu1*(t1 + t2 t3 + t4 + t5)/t6 overflows at alpha=0.9; it must be finite"
_POWER_OVERFLOWS = "the expected RIS power overflows; it must be finite"
_MC_RATE_OVERFLOWS = "P_p_dbm: the Monte Carlo rate (1-alpha) log2(1+SINR) overflows at alpha=0.5; it must be finite"


class TestMainEntry:
    def test_mc_roundtrip_and_overrides(self, tmp_path, capsys):
        config_file = tmp_path / "link.cfg"
        config_file.write_text("M = 16\nmc_samples = 2000\n")
        argv = ["mc", "--config", str(config_file), "--set", "alpha=0.3", "--seed", "7"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        header, rows = _parse(out)
        assert rows[0][header.index("alpha")] == "3.00000000e-01"
        assert rows[0][header.index("n_samples")] == "2000"

    def test_stdout_reruns_identical(self, capsys):
        argv = ["sweep", "--variable", "b", "--values", "1,4", "--outputs",
                "ergodic_cf,outage_cf", "--samples", "1000"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_figure_writes_files(self, tmp_path):
        assert main(["figure", "fig5", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig5_power_vs_rho.csv").exists()
        assert (tmp_path / "fig5_power_vs_pp.csv").exists()

    def test_optimize_command(self, capsys):
        assert main(["optimize"]) == 0
        header, rows = _parse(capsys.readouterr().out)
        assert [r[0] for r in rows] == [
            "ergodic", "ergodic_constrained", "effective", "effective_constrained"
        ]

    def test_error_is_single_line_and_nonzero(self, capsys):
        rc = main(["sweep", "--variable", "alpha", "--values", "0.5,1.5",
                   "--outputs", "ergodic_cf"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert "alpha=1.5" in captured.err

    def test_set_rejects_unknown_key(self, capsys):
        rc = main(["compare", "--set", "bogus=1"])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_quadrature_points_flag_changes_outage(self, capsys):
        # 8 nodes are visibly coarser than 400; 100 and 400 agree to all printed digits
        base = ["mc", "--samples", "1000", "--seed", "1"]
        assert main([*base, "--quadrature-points", "8"]) == 0
        coarse = capsys.readouterr().out
        assert main([*base, "--quadrature-points", "400"]) == 0
        fine = capsys.readouterr().out
        i = _parse(coarse)[0].index("outage_cf_prob")
        assert _parse(coarse)[1][0][i] != _parse(fine)[1][0][i]

    def test_sweep_rejects_fractional_element_count(self):
        for variable, values in (("M", (8.0, 12.5)), ("b", (1.0, 2.5))):
            spec = SweepSpec(variable=variable, values=values, outputs=("power",))
            bad = f"{values[1]:g}"
            message = f"^sweep {variable}={bad}: {variable}: must be an integer, got {bad}$"
            with pytest.raises(ValueError, match=message):
                run_sweep(SystemConfig(), spec)

    def test_mc_rejects_alpha_outside_unit_interval_as_config_error(self, capsys):
        assert main(["mc", "--alpha", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ConfigValidationError: alpha: must lie in (0, 1), got 1.5\n"

    @pytest.mark.parametrize("command", [
        ["mc"],
        ["sweep", "--variable", "P_p_dbm", "--values", "0,10", "--outputs", "outage_mc"],
    ])
    def test_too_few_samples_is_a_config_error(self, capsys, command):
        assert main([*command, "--samples", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ConfigValidationError: mc_samples: must be >= 100, got 50\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--set", "d_g=1e-300"], "ConfigValidationError: d_g: path loss d^-epsilon must be finite"),
            (["mc", "--set", "d_p=inf"], "ConfigValidationError: d_p: path loss d^-epsilon must be above 0"),
            (["compare", "--set", "d_p=inf"], "ConfigValidationError: d_p: path loss d^-epsilon must be above 0"),
            (["figure", "all", "--set", "d_p=1e-300"],
             "ConfigValidationError: d_p: path loss d^-epsilon must be finite"),
            (["optimize", "--power-budget", "0"], "ConfigValidationError: P_R_mw: must be positive"),
            (["optimize", "--power-budget", "-1"], "ConfigValidationError: P_R_mw: must be positive"),
            (["optimize", "--power-budget", "nan"], "ConfigValidationError: P_R_mw: must be positive"),
            (["compare", "--set", "r_v=inf"], "ConfigValidationError: r_v: must be finite and >= 0"),
        ],
    )
    def test_invalid_link_or_budget_is_one_config_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_finite_cell_fails_instead_of_printing(self):
        # the closed forms check their overflows first; the CSV writer is the last guard
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^non-finite value (inf|-inf|nan) in a CSV cell$"):
                cli._csv_table(["x"], [[1.0], [value]])

    @pytest.mark.parametrize(
        "argv, message",
        [
            # at 10^307 mW nu1 and K are finite, but at alpha = 0.9 the mean SINR K alpha/(1-alpha) overflows
            (["compare", "--set", "P_p_dbm=3070", "--set", "alpha=0.9"], "ConfigValidationError: " + _SINR_OVERFLOWS),
            (["sweep", "--variable", "alpha", "--values", "0.9", "--samples", "1000", "--outputs", "ergodic_mc",
              "--set", "P_p_dbm=3070"], "ConfigValidationError: sweep alpha=0.9: " + _SINR_OVERFLOWS),
            # fig4's alpha grid holds numpy floats, whose arithmetic warned on overflow
            (["figure", "all", "--set", "P_p_dbm=3070"],
             "ConfigValidationError: " + _SINR_OVERFLOWS.replace("alpha=0.9", "alpha=0.75")),
            (["sweep", "--variable", "rho", "--values", "1e160", "--outputs", "power", "--set", "rho_max=1e160"],
             "ConfigValidationError: sweep rho=1e+160: rho, d_h: " + _POWER_OVERFLOWS),
            (["sweep", "--variable", "P_p_dbm", "--values", "3050", "--outputs", "power", "--set", "d_h=0.01"],
             "ConfigValidationError: sweep P_p_dbm=3050: P_p_dbm: "
             + _POWER_OVERFLOWS.replace("overflows;", "overflows at alpha=0.1;")),
            (["sweep", "--variable", "M", "--values", "4,8", "--outputs", "power", "--set", "P1_dbm=3080"],
             "ConfigValidationError: sweep M=4: M, P1_dbm, P2_dbm: " + _POWER_OVERFLOWS),
            (["compare", "--set", "P1_dbm=3080", "--set", "M=1000"],
             "ConfigValidationError: M, P1_dbm, P2_dbm: " + _POWER_OVERFLOWS),
        ],
        ids=["compare-sinr", "sweep-mc-only-sinr", "figure-sinr", "sweep-rho-power", "sweep-pp-power",
             "sweep-m-power", "compare-power"],
    )
    def test_overflowing_sinr_or_power_is_one_config_error_line(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == []
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["optimize"], "ConfigValidationError: " + _K_OVERFLOWS),
            (["compare"], "ConfigValidationError: " + _K_OVERFLOWS),
            (["figure", "all"], "ConfigValidationError: " + _K_OVERFLOWS),
            (["mc", "--samples", "1000", "--alpha", "0.1"], "ConfigValidationError: " + _K_OVERFLOWS),
            (["mc", "--samples", "1000", "--alpha", "0.9"], "ConfigValidationError: " + _NU1_OVERFLOWS),
            (["sweep", "--variable", "alpha", "--values", "0.9", "--samples", "1000", "--outputs", "ergodic_mc"],
             "ConfigValidationError: sweep alpha=0.9: " + _NU1_OVERFLOWS),
            # MC-only runs make the closed forms' checks too; here only K overflows, which MC would print as inf
            (["sweep", "--variable", "alpha", "--values", "0.5", "--samples", "1000", "--outputs", "ergodic_mc"],
             "ConfigValidationError: sweep alpha=0.5: " + _K_OVERFLOWS),
        ],
        ids=["optimize", "compare", "figure", "mc", "mc-alpha-0.9", "sweep-mc-only", "sweep-mc-only-alpha-0.5"],
    )
    def test_huge_hub_power_is_one_config_error_line(self, capsys, argv, message):
        # 10^308 mW validates as a field, but K = t7/t6 overflows, and nu1 as well at alpha = 0.9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--set", "P_p_dbm=3080"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [["compare"], ["sweep", "--variable", "b", "--values", "1,2", "--outputs", "effective,outage_cf,ergodic_cf"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("sets", [("d_p=1e107", "P_p_dbm=-20"), ("P_p_dbm=-3000", "alpha=1e-300")],
                             ids=["far-hub", "tiny-nu1"])
    def test_underflowing_hub_link_gain_is_certain_outage(self, capsys, argv, sets):
        # nu1 * zeta_p rounds to 0 on these valid configs: once a math domain error, now outage 1 and rate 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, *(arg for s in sets for arg in ("--set", s))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, rows = _parse(captured.out)
        outage = header.index("outage_prob" if argv[0] == "compare" else "outage_cf_prob")
        effective = header.index("effective_rate_bits_per_s_hz")
        assert [(row[outage], row[effective]) for row in rows] == [("1.00000000e+00", "0.00000000e+00")] * len(rows)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--variable", "alpha", "--values", "0.5", "--samples", "100000", "--outputs", "ergodic_mc"],
             "ConfigValidationError: sweep alpha=0.5: " + _MC_RATE_OVERFLOWS),
            (["mc", "--samples", "1000", "--alpha", "0.5"], "ConfigValidationError: " + _MC_RATE_OVERFLOWS),
            # the error names the failing point, not the run's first
            (["sweep", "--variable", "alpha", "--values", "0.05,0.5", "--samples", "100000", "--outputs", "ergodic_mc"],
             "ConfigValidationError: sweep alpha=0.5: " + _MC_RATE_OVERFLOWS),
            (["sweep", "--variable", "P_p_dbm", "--values", "3000,3070", "--samples", "100000",
              "--outputs", "ergodic_mc", "--set", "alpha=0.5"],
             "ConfigValidationError: sweep P_p_dbm=3070: " + _MC_RATE_OVERFLOWS),
        ],
        ids=["sweep", "mc", "sweep-second-alpha", "sweep-second-hub-power"],
    )
    def test_overflowing_mc_rate_is_one_config_error_line(self, capsys, argv, message):
        # at 3070 dBm and alpha = 0.5, nu1, K and the mean SINR are finite, but some sampled SINR is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--set", "P_p_dbm=3070"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["--variable", "P_p_dbm", "--values=-300,-200,0"], "sweep P_p_dbm=-300"),
            (["--variable", "M", "--values", "0,4", "--set", "d_f=inf"], "sweep M=0"),
        ],
        ids=["hub-power", "elements"],
    )
    def test_sweep_alpha_star_failure_names_its_value(self, capsys, argv, label):
        assert main(["sweep", *argv, "--outputs", "alpha_star"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: NoInteriorMaximumError: {label}: the ergodic rate has no interior maximum")

    @pytest.mark.parametrize(
        "sets", [("d_g=1e-100", "d_h=1e-100"), ("rho_max=1e160", "rho=1e160")], ids=["zeta", "rho"]
    )
    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["compare"], "ConfigValidationError: "),
            (["figure", "all"], "ConfigValidationError: "),
            (["optimize"], "ConfigValidationError: "),
            (["mc", "--samples", "1000"], "ConfigValidationError: "),
            (["sweep", "--variable", "P_p_dbm", "--values", "0,10", "--outputs", "ergodic_cf,alpha_star"],
             "ConfigValidationError: sweep P_p_dbm=0: "),
            # an MC-only run fails on the config too, not as a nan or inf cell
            (["sweep", "--variable", "alpha", "--values", "0.5", "--samples", "1000", "--outputs", "ergodic_mc"],
             "ConfigValidationError: sweep alpha=0.5: "),
        ],
        ids=["compare", "figure", "optimize", "mc", "sweep", "sweep-mc-only"],
    )
    def test_overflowing_aggregates_are_one_config_error_line(self, capsys, argv, prefix, sets):
        # each path loss is finite, but zeta_h * zeta_g or rho^2 overflows in the channel-moment aggregates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--set", sets[0], "--set", sets[1]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {prefix}rho, d_h, d_g: the channel-moment aggregates overflow; they must be finite\n"
        )

    @pytest.mark.parametrize("field", ["d_f", "d_h", "d_g"])
    def test_blocked_link_is_valid(self, capsys, field):
        assert main(["compare", "--set", f"{field}=inf"]) == 0
        assert capsys.readouterr().err == ""

    def test_power_budget_flag_overrides_set(self, capsys):
        assert main(["optimize", "--set", "P_R_mw=5", "--power-budget", "20"]) == 0
        flagged = capsys.readouterr().out
        assert main(["optimize", "--set", "P_R_mw=20"]) == 0
        assert capsys.readouterr().out == flagged

    def test_zero_power_budget_without_elements(self, capsys):
        # with M = 0 nothing draws power, so a 0 mW budget never binds
        assert main(["optimize", "--set", "M=0", "--power-budget", "0"]) == 0
        zero = capsys.readouterr().out
        assert main(["optimize", "--set", "M=0"]) == 0
        assert capsys.readouterr().out == zero

    def test_repeated_sweep_output_is_one_error_line(self, capsys):
        argv = ["sweep", "--variable", "M", "--values", "8,4", "--outputs", "power,ergodic_cf,power"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValueError: repeated outputs: ['power']\n"


def _raised(argv) -> Exception:
    """The exception that the command `argv` raises, before main turns it into an error line."""
    args = cli._make_parser().parse_args(argv)
    with pytest.raises(Exception) as caught:
        args.func(cli._build_config(args), args)
    return caught.value


class TestErrorContract:
    """One error type per failure: a sweep raises its failing point's own error, labelled with the value."""

    @pytest.mark.parametrize(
        "sweep, point, label, kind",
        [
            (["sweep", "--variable", "M", "--values", "-1", "--outputs", "power"], ["compare", "--set", "M=-1"],
             "sweep M=-1", "ConfigValidationError"),
            (["sweep", "--variable", "P_p_dbm", "--values", "0,10", "--outputs", "ergodic_cf",
              "--set", "d_g=1e-100", "--set", "d_h=1e-100"],
             ["compare", "--set", "P_p_dbm=0", "--set", "d_g=1e-100", "--set", "d_h=1e-100"],
             "sweep P_p_dbm=0", "ConfigValidationError"),
            (["sweep", "--variable", "M", "--values", "4,8", "--outputs", "power", "--set", "P1_dbm=3080"],
             ["compare", "--set", "M=4", "--set", "P1_dbm=3080"], "sweep M=4", "ConfigValidationError"),
            (["sweep", "--variable", "alpha", "--values", "0.5", "--samples", "1000", "--outputs", "ergodic_mc",
              "--set", "P_p_dbm=3080"],
             ["mc", "--alpha", "0.5", "--samples", "1000", "--set", "P_p_dbm=3080"],
             "sweep alpha=0.5", "ConfigValidationError"),
            (["sweep", "--variable", "alpha", "--values", "0.9", "--samples", "1000", "--outputs", "ergodic_mc",
              "--set", "P_p_dbm=3080"],
             ["mc", "--alpha", "0.9", "--samples", "1000", "--set", "P_p_dbm=3080"],
             "sweep alpha=0.9", "ConfigValidationError"),
            (["sweep", "--variable", "P_p_dbm", "--values", "3000,3070", "--samples", "1000",
              "--outputs", "ergodic_mc", "--set", "alpha=0.5"],
             ["mc", "--samples", "1000", "--set", "alpha=0.5", "--set", "P_p_dbm=3070"],
             "sweep P_p_dbm=3070", "ConfigValidationError"),
            (["sweep", "--variable", "P_p_dbm", "--values", "0,10", "--outputs", "outage_cf",
              "--set", "M=0", "--set", "d_f=inf"],
             ["compare", "--set", "P_p_dbm=0", "--set", "M=0", "--set", "d_f=inf"],
             "sweep P_p_dbm=0", "ConfigValidationError"),
            (["sweep", "--variable", "M", "--values", "0,4", "--outputs", "alpha_star", "--set", "d_f=inf"],
             ["optimize", "--set", "M=0", "--set", "d_f=inf"], "sweep M=0", "NoInteriorMaximumError"),
        ],
        ids=["bad-field", "aggregates", "power", "K", "nu1", "mc-rate", "degenerate-amplitude",
             "no-interior-maximum"],
    )
    def test_sweep_error_is_its_point_error_labelled(self, capsys, sweep, point, label, kind):
        assert main(point) == 1
        point_line = capsys.readouterr().err
        assert point_line.startswith(f"error: {kind}: ")
        assert main(sweep) == 1
        assert capsys.readouterr().err == point_line.replace(f"error: {kind}: ", f"error: {kind}: {label}: ", 1)
        # the point's error itself: its type and fields, not a new error raised from it
        point_error, sweep_error = _raised(point), _raised(sweep)
        assert type(sweep_error) is type(point_error)
        assert vars(sweep_error) == vars(point_error)
        assert sweep_error.__cause__ is None

    def test_run_sweep_error_names_its_field(self):
        with pytest.raises(config.ConfigValidationError) as caught:
            run_sweep(SystemConfig(), SweepSpec("M", (-1.0,), ("power",)))
        assert caught.value.field == "M"
        assert str(caught.value) == "sweep M=-1: M: must be >= 0"

    @pytest.mark.parametrize("values, raw", [("4,x", "x"), ("1,,2", "")], ids=["letter", "empty"])
    def test_unparsable_sweep_value_is_a_parse_error(self, capsys, values, raw):
        assert main(["sweep", "--variable", "M", "--values", values, "--outputs", "power"]) == 1
        assert capsys.readouterr().err == f"error: ConfigParseError: cannot parse value for 'M': {raw!r}\n"

    def test_fractional_sweep_value_of_a_whole_number_field_is_a_validation_error(self, capsys):
        # a sweep value is a number, validated as a value of the field
        assert main(["sweep", "--variable", "M", "--values", "4.5", "--outputs", "power"]) == 1
        assert capsys.readouterr().err == "error: ConfigValidationError: sweep M=4.5: M: must be an integer, got 4.5\n"

    @pytest.mark.parametrize("item", ["M", "bogus=1"])
    def test_set_item_fails_as_the_same_line_of_a_config_file(self, capsys, item):
        with pytest.raises(config.ConfigError) as in_file:
            config.load_config(item)
        assert main(["compare", "--set", item]) == 1
        assert capsys.readouterr().err.startswith(f"error: {type(in_file.value).__name__}: ")

    @pytest.mark.parametrize("text", [b"M = 4\n\xff\n", b"[a]\nM = 4\n[b]\nM = 8\n"], ids=["non-utf8", "repeated-key"])
    def test_malformed_config_file_is_one_parse_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        assert main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigParseError: malformed config document: ") and err.count("\n") == 1


class TestMcFlags:
    @pytest.mark.parametrize(
        "argv", [["figure", "all", "--seed", "1"], ["optimize", "--samples", "1000"], ["compare", "--seed", "3"]]
    )
    def test_commands_that_draw_nothing_reject_seed_and_samples(self, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _sci(x) -> str:
    return f"{float(x):.8e}"


class TestSharedDrawEngine:
    def test_mc_command_equals_separate_estimators_and_draws_once(self, capsys, monkeypatch, sample_batch_sizes):
        # one CPU: with more, the chunks' sample_batch calls may interleave in any order
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
        argv = ["mc", "--samples", "40000", "--seed", "17", "--alpha", "0.3", "--set", "M=16"]
        assert main(argv) == 0
        header, rows = _parse(capsys.readouterr().out)
        assert sample_batch_sizes == [16384, 16384, 7232]  # one draw per chunk for both estimators
        cfg = replace_config(SystemConfig(), M=16)
        rate = mc_ergodic_rate(cfg, 0.3, n=40_000, seed=17)
        outage = mc_outage(cfg, 0.3, n=40_000, seed=17)
        row = dict(zip(header, rows[0]))
        assert row["ergodic_mc_bits_per_s_hz"] == _sci(rate.value)
        assert row["ergodic_mc_stderr_bits_per_s_hz"] == _sci(rate.stderr)
        assert row["outage_mc_prob"] == _sci(outage.value)
        assert row["outage_mc_stderr_prob"] == _sci(outage.stderr)

    @pytest.mark.parametrize(
        "variable, values",
        [
            ("P_p_dbm", (0.0, 10.0, 20.0)),
            ("alpha", (0.1, 0.419, 0.8)),
            ("P_R_mw", (5.0, 10.0)),
            ("M", (4.0, 16.0)),
        ],
    )
    def test_sweep_mc_columns_equal_per_point_calls_at_root_seed(self, variable, values):
        cfg = replace_config(SystemConfig(), mc_samples=20_000)
        spec = SweepSpec(variable=variable, values=values, outputs=("ergodic_mc", "outage_mc"), seed=13)
        header, rows = _parse(run_sweep(cfg, spec))
        for value, row in zip(values, rows):
            point = replace_config(cfg, **{variable: int(value) if variable == "M" else value})
            rate = mc_ergodic_rate(point, point.alpha, n=20_000, seed=13)
            outage = mc_outage(point, point.alpha, n=20_000, seed=13)
            assert row[1:] == [_sci(rate.value), _sci(rate.stderr), _sci(outage.value), _sci(outage.stderr)]

    def test_power_sweep_draws_each_chunk_once_for_all_points(self, sample_batch_sizes):
        spec = SweepSpec(
            variable="P_p_dbm",
            values=(0, 5, 10, 15, 20, 25, 30),
            outputs=("ergodic_cf", "ergodic_mc", "outage_cf", "outage_mc"),
            seed=4,
        )
        run_sweep(replace_config(SystemConfig(), mc_samples=32_768), spec)
        assert sample_batch_sizes == [16384, 16384]

    def test_element_count_sweep_draws_once_per_point(self, sample_batch_sizes):
        spec = SweepSpec(variable="M", values=(4, 8, 16), outputs=("ergodic_mc", "outage_mc"), seed=4)
        run_sweep(replace_config(SystemConfig(), mc_samples=2000), spec)
        assert sample_batch_sizes == [2000, 2000, 2000]

    def test_alpha_sweep_draws_each_chunk_once_for_all_points(self, sample_batch_sizes):
        spec = SweepSpec(variable="alpha", values=(0.1, 0.3, 0.5, 0.9), outputs=("ergodic_mc", "outage_mc"), seed=4)
        run_sweep(replace_config(SystemConfig(), mc_samples=32_768), spec)
        assert sample_batch_sizes == [16384, 16384]

    @pytest.mark.parametrize("variable, values", [("b", (1, 2, 4)), ("rho", (1.0, 2.0, 3.0)), ("P_R_mw", (5, 10, 20))])
    def test_other_sweeps_draw_once_per_value(self, variable, values, sample_batch_sizes):
        # each value is a config of its own, P_R_mw too, though the draws do not read it
        spec = SweepSpec(variable=variable, values=values, outputs=("ergodic_mc", "outage_mc"), seed=4)
        run_sweep(replace_config(SystemConfig(), mc_samples=2000), spec)
        assert sample_batch_sizes == [2000, 2000, 2000]

    def test_failing_sweep_samples_each_run_once(self, capsys, monkeypatch, sample_batch_sizes):
        # one CPU: with more, the chunks' sample_batch calls may interleave in any order
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
        argv = ["sweep", "--variable", "rho", "--values", "1,2,4,6", "--outputs", "ergodic_mc", "--samples", "20000",
                "--set", "P_p_dbm=3065", "--set", "alpha=0.5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: ConfigValidationError: sweep rho=6: {_MC_RATE_OVERFLOWS}\n"
        # four runs of one point draw 2 chunks each; the failing run at rho=6 is not sampled again
        assert sample_batch_sizes == [16384, 3616] * 4

    @pytest.mark.parametrize("outputs", ["ergodic_mc", "ergodic_mc,power", "power,ergodic_mc,outage_mc"])
    def test_failing_run_is_sampled_once(self, outputs, capsys, monkeypatch, sample_batch_sizes):
        # the run's one pass passed alpha=0.05 and failed at alpha=0.5 in the Monte Carlo engine; the
        # point-by-point fallback evaluates only the outputs after the Monte Carlo one at alpha=0.05, and draws nothing
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 1)
        argv = ["sweep", "--variable", "alpha", "--values", "0.05,0.5", "--outputs", outputs, "--samples", "100000",
                "--set", "P_p_dbm=3070"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: ConfigValidationError: sweep alpha=0.5: {_MC_RATE_OVERFLOWS}\n"
        assert sample_batch_sizes == [16384] * 6 + [1696]


_MC_ARGV = ["mc", "--samples", "40000", "--seed", "5", "--set", "M=16"]
_SWEEP_ARGV = [
    "sweep", "--variable", "P_p_dbm", "--values", "0,5,10,15,20,25,30", "--samples", "40000",
    "--outputs", "ergodic_cf,ergodic_mc,outage_cf,outage_mc,effective", "--seed", "6",
]


class TestOneOutputTable:
    @pytest.mark.parametrize("cpus", [None, 1], ids=["all-cpus", "one-cpu"])
    def test_mc_columns_are_the_sweep_columns(self, cpus, capsys, monkeypatch):
        # mc's first seven columns, header and row, are the sweep's CSV at the same point and flags
        if cpus is not None:
            monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
        flags = ["--seed", "7", "--set", "M=4", "--samples", "20000"]
        assert main(["mc", "--alpha", "0.419", *flags]) == 0
        mc_lines = capsys.readouterr().out.splitlines()
        argv = ["sweep", "--variable", "alpha", "--values", "0.419",
                "--outputs", "ergodic_cf,ergodic_mc,outage_cf,outage_mc", *flags]
        assert main(argv) == 0
        sweep_lines = capsys.readouterr().out.splitlines()
        assert len(mc_lines) == len(sweep_lines) == 2
        for mc_line, sweep_line in zip(mc_lines, sweep_lines):
            assert ",".join(mc_line.split(",")[:7]) == sweep_line
        assert mc_lines[0].split(",")[7:] == ["n_samples", "seed"]
        assert mc_lines[1].split(",")[7:] == ["20000", "7"]


class TestWorkers:
    @pytest.mark.parametrize("argv", [_MC_ARGV, _SWEEP_ARGV], ids=["mc", "sweep"])
    def test_csv_bytes_do_not_depend_on_cpus(self, argv, capsys, monkeypatch):
        outputs = []
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_available_cpus", lambda cpus=cpus: cpus)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["mc", "--samples", "1000", "--set", "M=36"], [16]),
            (["mc", "--samples", "1000", "--set", "M=1024"], [7]),
            (["sweep", "--variable", "M", "--values", "4,1024", "--samples", "1000",
              "--outputs", "ergodic_mc"], [16, 7]),
            (["sweep", "--variable", "P_p_dbm", "--values", "0,10", "--samples", "1000",
              "--outputs", "outage_mc", "--set", "M=64"], [16]),
        ],
        ids=["mc-M36", "mc-M1024", "sweep-M-to-1024", "sweep-M64"],
    )
    def test_chunks_in_flight_fit_the_memory_budget(self, argv, expected, capsys, monkeypatch):
        # a 16-CPU host: one chunk per CPU at most, and no more (4*512*M + 11*16384)*8-byte chunks than 128 MiB holds
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 16)
        seen = []
        pool = montecarlo._pool

        def recording(threads):
            seen.append(threads)
            return pool(threads)

        monkeypatch.setattr(montecarlo, "_pool", recording)
        assert main(argv) == 0
        capsys.readouterr()
        assert seen == expected


class TestZeroTargetRate:
    """At r_v = 0 the effective rate is identically 0 and alpha-dagger does not exist."""

    def test_fig4_marks_no_alpha_dagger_row(self):
        files = reproduce_figure("fig4", replace_config(SystemConfig(), r_v=0.0))
        header, rows = _parse(files["fig4_rates_vs_alpha.csv"])
        assert len(rows) == 99 + 1  # the alpha grid plus the alpha-star row
        assert all(r[header.index("is_alpha_dagger")] == "0" for r in rows)
        assert sum(r[header.index("is_alpha_star")] == "1" for r in rows) == 1
        assert all(r[header.index("effective_rate_bits_per_s_hz")] == _sci(0.0) for r in rows)

    def test_sweep_alpha_dagger_cell_is_empty(self):
        spec = SweepSpec(variable="P_p_dbm", values=(0.0, 10.0), outputs=("alpha_dagger", "alpha_star"))
        header, rows = _parse(run_sweep(replace_config(SystemConfig(), r_v=0.0), spec))
        assert [r[1] for r in rows] == ["", ""]
        assert all(r[2] for r in rows)

    def test_optimize_fails_as_one_no_interior_maximum_line(self, capsys):
        assert main(["optimize", "--set", "r_v=0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: NoInteriorMaximumError: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["compare"],
        ["mc", "--samples", "1000"],
        ["optimize"],
        ["figure", "all"],
        ["sweep", "--variable", "P_p_dbm", "--values", "0,10", "--samples", "1000",
         "--outputs", "ergodic_cf,outage_cf,outage_mc,effective,alpha_star,alpha_dagger"],
    ],
    ids=lambda argv: argv[0],
)
def test_tiny_target_rate_runs_or_fails_as_one_line(capsys, argv):
    # below r_v of about 1.6e-16, e^-x in the outage threshold once rounded to 1: math domain error
    rc = main([*argv, "--set", "r_v=1e-17"])
    err = capsys.readouterr().err
    if argv[0] == "optimize":
        # the effective optimum lies within 2e-9 of alpha = 1
        assert rc == 1 and err.startswith("error: NoInteriorMaximumError: ")
    assert (rc, err) == (0, "") or (rc == 1 and err.count("\n") == 1 and err.startswith("error: "))
    assert "math domain error" not in err


def test_compare_far_narrow_density_warns_nothing(capsys):
    # cf-scan seed 7, design point 3: the outermost quadrature node overflows t / r
    argv = ["compare", "--set", "M=48", "--set", "b=2", "--set", "P_p_dbm=26.7554947",
            "--set", "r_v=3.9757723", "--set", "d_f=35.3495514", "--set", "d_h=16.1349041",
            "--set", "d_g=24.7060143", "--set", "rho=4.09377951", "--set", "ris_mode=passive"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "ris_mode,ergodic_rate_bits_per_s_hz,outage_prob,effective_rate_bits_per_s_hz,expected_power_mw\n"
        "active,7.12360702e+00,8.75096664e-02,3.62785379e+00,1.76647025e+01\n"
        "passive,4.84129804e+00,4.54053020e-01,2.17056088e+00,9.60000000e+00\n"
    )


def _reference_csv(header, rows) -> str:
    def cell(v):
        return str(int(v)) if isinstance(v, (bool, int, np.bool_, np.integer)) else _sci(v)

    return "".join(",".join(row) + "\n" for row in [header, *([cell(v) for v in row] for row in rows)])


def _reference_figures(cfg) -> dict[str, str]:
    """fig2-fig6 from direct library calls: the per-figure loops the CLI once had."""
    alpha = cfg.alpha
    pp_grid = [float(pp) for pp in range(0, 31, 2)]
    fig2 = [replace_config(cfg, b=b, ris_mode="active") for b in (1, 4, 16)] + [replace_config(cfg, ris_mode="passive")]
    fig3 = [replace_config(cfg, M=m, ris_mode=mode) for m in (16, 32) for mode in ("active", "passive")]
    star = optimize_alpha_ergodic(cfg).alpha_opt
    dagger = effective_alpha_closed_form(cfg.r_v)
    alphas = sorted(set(np.linspace(0.01, 0.99, 99)) | {star} | ({dagger} - {None}))
    return {
        "fig2_ergodic_vs_pp.csv": _reference_csv(
            ["P_p_dbm", "ergodic_active_b1_bits_per_s_hz", "ergodic_active_b4_bits_per_s_hz",
             "ergodic_active_ideal_bits_per_s_hz", "ergodic_passive_bits_per_s_hz"],
            [[pp, *(ergodic_rate(replace_config(v, P_p_dbm=pp), alpha) for v in fig2)] for pp in pp_grid],
        ),
        "fig3_outage_vs_pp.csv": _reference_csv(
            ["P_p_dbm", "outage_active_m16_prob", "outage_passive_m16_prob",
             "outage_active_m32_prob", "outage_passive_m32_prob"],
            [[pp, *(outage_probability(replace_config(v, P_p_dbm=pp), alpha) for v in fig3)] for pp in pp_grid],
        ),
        "fig4_rates_vs_alpha.csv": _reference_csv(
            ["alpha", "ergodic_rate_bits_per_s_hz", "effective_rate_bits_per_s_hz", "is_alpha_star", "is_alpha_dagger"],
            [[a, ergodic_rate(cfg, a), effective_rate(cfg, a), a == star, a == dagger] for a in alphas],
        ),
        "fig5_power_vs_rho.csv": _reference_csv(
            ["rho_gain", "expected_power_mw"],
            [[rho, expected_power(replace_config(cfg, rho=rho, rho_max=max(cfg.rho_max, rho)), alpha)]
             for rho in np.arange(1.0, 6.01, 0.5)],
        ),
        "fig5_power_vs_pp.csv": _reference_csv(
            ["P_p_dbm", "expected_power_mw"],
            [[pp, expected_power(replace_config(cfg, P_p_dbm=pp), alpha)] for pp in pp_grid],
        ),
        "fig6_power_vs_m.csv": _reference_csv(
            ["M_elements", "expected_power_alpha_0p1_mw", "expected_power_alpha_0p9_mw"],
            [[m, expected_power(replace_config(cfg, M=m), 0.1), expected_power(replace_config(cfg, M=m), 0.9)]
             for m in range(4, 65, 4)],
        ),
        "fig6_power_vs_alpha.csv": _reference_csv(
            ["alpha", "expected_power_mw"], [[a, expected_power(cfg, a)] for a in np.linspace(0.1, 0.9, 17)]
        ),
    }


@pytest.mark.parametrize(
    "sets", [(), ("rho_max=3", "rho=2", "r_v=0")], ids=["defaults", "rho-above-ceiling-zero-rate"]
)
def test_figure_files_equal_direct_library_calls(tmp_path, capsys, sets):
    # every figure column goes through the CLI's one row evaluator; the text must not move
    assert main(["figure", "all", "--out-dir", str(tmp_path), *(a for s in sets for a in ("--set", s))]) == 0
    capsys.readouterr()
    cfg = replace_config(SystemConfig(), **{k: float(v) for k, v in (s.split("=") for s in sets)})
    expected = _reference_figures(cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text, name


class TestVariantEvaluation:
    """Every output's cells are evaluated per variant config over arrays of alpha and P_p."""

    def test_cells_equal_scalar_functions_on_per_point_configs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        scalars = {"ergodic_cf": ergodic_rate, "outage_cf": outage_probability, "effective": effective_rate,
                   "power": expected_power, "alpha_star": lambda point, _: optimize_alpha_ergodic(point).alpha_opt}

        @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
        @hypothesis.given(
            M=st.sampled_from([0, 1, 4, 16, 36, 64]),
            b=st.integers(1, 8),
            ris_mode=st.sampled_from(["active", "passive"]),
            r_v=st.sampled_from([0.0, 1e-3, 0.5, 2.0, 6.0]),
            quadrature_points=st.sampled_from([8, 100]),
            d_f=st.floats(2.0, 80.0),
            rho=st.floats(0.0, 6.0),
            points=st.lists(
                st.tuples(st.floats(0.01, 0.99), st.just(-20.0) | st.floats(-20.0, 60.0)), min_size=1, max_size=12
            ),
        )
        def check(points, **fields):
            cfg = SystemConfig(**fields)
            alphas, hub_powers = map(list, zip(*points))
            per_point = [replace_config(cfg, P_p_dbm=pp) for pp in hub_powers]
            for output, scalar in scalars.items():
                [cells] = cli._OUTPUTS[output][1](closedform._Run(cfg, alphas, hub_powers), 0).values()
                expected = [scalar(point, alpha).hex() for point, alpha in zip(per_point, alphas)]
                assert [float(cell).hex() for cell in cells] == expected, output

        check()

    def test_figure_all_builds_one_model_per_variant(self, monkeypatch, capsys):
        builds, replaces = [], []
        build, replace = closedform._build_link_model, cli.replace_config
        monkeypatch.setattr(closedform, "_build_link_model", lambda cfg: builds.append(cfg) or build(cfg))
        monkeypatch.setattr(cli, "replace_config", lambda cfg, **kw: replaces.append(kw) or replace(cfg, **kw))
        assert main(["figure", "all", "--set", "M=20"]) == 0
        capsys.readouterr()
        # fig2's and fig3's four variants and fig4's config; fig5 and fig6 need no link model
        assert len(builds) == 9
        # --set, the eight variants, and the rho and M grids of fig5 and fig6
        assert len(replaces) == 1 + 8 + len(cli._RHO_GRID) + len(cli._M_GRID) <= 60

    def test_hub_power_sweep_builds_one_link_model(self, monkeypatch, sample_batch_sizes):
        # every output, Monte Carlo and alpha* included: one link model, and one draw per chunk for all points.
        # The run record computes nu1 once per point; alpha*'s rate at alpha* and the MC engine take one each.
        # One Gamma fit and one quadrature array serve both outage_cf and effective
        builds, build = [], closedform._build_link_model
        monkeypatch.setattr(closedform, "_build_link_model", lambda cfg: builds.append(cfg) or build(cfg))
        nu1s, nu1 = [], config.harvested_power_coefficient
        for module in (closedform, montecarlo, power):
            monkeypatch.setattr(module, "harvested_power_coefficient", lambda *args: nu1s.append(args) or nu1(*args))
        fits, fit = [], closedform.gamma_fit
        monkeypatch.setattr(closedform, "gamma_fit", lambda cfg: fits.append(cfg) or fit(cfg))
        quadratures, quadrature = [], closedform._Run.quadrature.func
        counted = functools.cached_property(lambda run: quadratures.append(run) or quadrature(run))
        counted.__set_name__(closedform._Run, "quadrature")
        monkeypatch.setattr(closedform._Run, "quadrature", counted)
        spec = SweepSpec(variable="P_p_dbm", values=(0, 10, 20, 30), outputs=cli.SWEEP_OUTPUTS)
        cfg = replace_config(SystemConfig(), mc_samples=32_768)
        run_sweep(cfg, spec)
        assert builds == [cfg]
        assert sample_batch_sizes == [16384, 16384]
        assert len(nu1s) <= 3 * len(spec.values)
        assert fits == [cfg]
        assert len(quadratures) == 1

    def test_first_failing_point_then_first_failing_output(self, capsys):
        # alpha=0.9 fails power and the MC checks (nu1 overflows), and every point fails ergodic_cf and
        # the MC checks (K overflows): the error is the first point's first failing output, as a
        # point-by-point evaluation would raise it
        for outputs in ("power,ergodic_cf", "power,ergodic_mc", "ergodic_mc,power"):
            argv = ["sweep", "--variable", "alpha", "--values", "0.1,0.9", "--outputs", outputs,
                    "--samples", "1000", "--set", "P_p_dbm=3080"]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err == f"error: ConfigValidationError: sweep alpha=0.1: {_K_OVERFLOWS}\n", outputs
            assert main([*argv[:4], "0.9,0.1", *argv[5:]]) == 1
            err = capsys.readouterr().err
            assert err == f"error: ConfigValidationError: sweep alpha=0.9: {_NU1_OVERFLOWS}\n", outputs

    def test_optimize_runs_each_unconstrained_optimizer_once(self, monkeypatch, capsys):
        calls = []
        for name in ("optimize_alpha_ergodic", "optimize_alpha_effective"):
            original = getattr(optimize, name)

            def counting(cfg, original=original, name=name):
                calls.append(name)
                return original(cfg)

            monkeypatch.setattr(optimize, name, counting)
            monkeypatch.setattr(cli, name, counting)
        assert main(["optimize", "--power-budget", "12"]) == 0
        header, rows = _parse(capsys.readouterr().out)
        assert [row[0] for row in rows] == ["ergodic", "ergodic_constrained", "effective", "effective_constrained"]
        assert calls == ["optimize_alpha_ergodic", "optimize_alpha_effective"]

    def test_optimize_builds_power_model_once_for_its_power_column(self, monkeypatch, capsys):
        # one build per (config, mode): optimize's power column and power constraints read one model, and
        # figure all builds one for each of its 28 configs (cfg, fig5's rho grid and fig6's M grid)
        builds, build = [], power._build_power_model

        def counting(cfg, mode):
            builds.append((cfg, mode))
            return build(cfg, mode)

        monkeypatch.setattr(power, "_build_power_model", counting)
        for argv, count in ((["optimize", "--power-budget", "12"], 1), (["optimize"], 1), (["figure", "all"], 28)):
            builds.clear()
            assert main(argv) == 0
            capsys.readouterr()
            assert len({(id(cfg), mode) for cfg, mode in builds}) == len(builds) == count, argv

    def test_optimize_builds_two_outage_quadratures(self, monkeypatch, capsys):
        # optimize_alpha_effective reads its value and slope from one run; the budget-bound row builds the other
        quadratures, quadrature = [], closedform._Run.quadrature.func
        counted = functools.cached_property(lambda run: quadratures.append(run) or quadrature(run))
        counted.__set_name__(closedform._Run, "quadrature")
        monkeypatch.setattr(closedform._Run, "quadrature", counted)
        for argv in (["optimize", "--power-budget", "12"], ["optimize"]):
            quadratures.clear()
            assert main(argv) == 0
            header, rows = _parse(capsys.readouterr().out)
            assert rows[3][:4:3] == ["effective_constrained", "power_constrained"], argv
            assert len(quadratures) == 2, argv


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    later = ["mc", "--samples", "1000"]
    assert main(later) == 0
    alone = capsys.readouterr()
    first = ["mc", "--samples", "2000", "--seed", "3", "--set", "M=4", "--set", "alpha=0.3", "--out-dir", str(tmp_path)]
    assert main(first) == 0
    capsys.readouterr()
    assert (tmp_path / "mc.csv").read_text(encoding="utf-8").startswith("alpha,")
    assert main(later) == 0
    assert capsys.readouterr() == alone
    assert cli._make_parser() is cli._make_parser()
    args = cli._make_parser().parse_args(later)
    assert (args.set, args.seed, args.out_dir, args.samples) == (None, 0, None, 1000)
