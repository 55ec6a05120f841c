"""Correctness checks on the CSV a job printed.

check_job returns a list of (check, message) failures; an empty list means
the job passed. Checks run after the timed loop and outside tracing.

MC estimates are compared with the stored high-sample references
(references.json): within 5 combined standard errors, plus 5 counts of
slack for probabilities, so that rare events (a reference of 0 or 1) are
judged by counts and not by a vanishing normal sigma. The reported stderr
must lie within 0.8-1.25 times the one the reference implies; for a
probability this is checked only where the reference implies at least
STDERR_MIN_EVENTS events (or non-events) in the job, because below that
the stderr estimate itself is too noisy for the band.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

import workloads as W
from oracle import Link, outage_adaptive

SIGMAS = 5.0
COUNT_SLACK = 5
STDERR_BAND = (0.8, 1.25)
STDERR_MIN_EVENTS = 400
OUTAGE_ABS_TOL = 1e-3
OPT_GRID = 201
OPT_REL_TOL = 1e-6
BUDGET_REL_TOL = 1e-9

# Checks that fail at this commit because of a documented program defect.
# Their failures count in check_fail_rate but do not make a run incorrect.
# Remove the entry once the defect is fixed, so that the check gates again.
KNOWN_DEFECTS = {
    "compare_outage_vs_quadrature": (
        "ROADMAP item 1: outage_probability places its Gauss-Chebyshev nodes at "
        "t = tan(pi/4 (x+1)), of order 1, while the Gamma density of the composite "
        "amplitude lives near mean_x ~ 1e-3..1e-2, so few nodes land on it"
    ),
}

MC_HEADER = [
    "alpha", "ergodic_cf_bits_per_s_hz", "ergodic_mc_bits_per_s_hz", "ergodic_mc_stderr_bits_per_s_hz",
    "outage_cf_prob", "outage_mc_prob", "outage_mc_stderr_prob", "n_samples", "seed",
]
SWEEP_HEADER = [
    "P_p_dbm", "ergodic_cf_bits_per_s_hz", "ergodic_mc_bits_per_s_hz", "ergodic_mc_stderr_bits_per_s_hz",
    "outage_cf_prob", "outage_mc_prob", "outage_mc_stderr_prob", "effective_rate_bits_per_s_hz",
    "expected_power_mw", "alpha_star",
]
# file -> (header, expected row count or None)
FIGURE_FILES = {
    "fig2_ergodic_vs_pp.csv": ([
        "P_p_dbm", "ergodic_active_b1_bits_per_s_hz", "ergodic_active_b4_bits_per_s_hz",
        "ergodic_active_ideal_bits_per_s_hz", "ergodic_passive_bits_per_s_hz"], 16),
    "fig3_outage_vs_pp.csv": ([
        "P_p_dbm", "outage_active_m16_prob", "outage_passive_m16_prob",
        "outage_active_m32_prob", "outage_passive_m32_prob"], 16),
    "fig4_rates_vs_alpha.csv": ([
        "alpha", "ergodic_rate_bits_per_s_hz", "effective_rate_bits_per_s_hz",
        "is_alpha_star", "is_alpha_dagger"], None),
    "fig5_power_vs_rho.csv": (["rho_gain", "expected_power_mw"], 11),
    "fig5_power_vs_pp.csv": (["P_p_dbm", "expected_power_mw"], 16),
    "fig6_power_vs_m.csv": (["M_elements", "expected_power_alpha_0p1_mw", "expected_power_alpha_0p9_mw"], 16),
    "fig6_power_vs_alpha.csv": (["alpha", "expected_power_mw"], 17),
}
OPT_HEADER = [
    "objective", "alpha_opt", "objective_value_bits_per_s_hz", "binding", "iterations",
    "residual", "alpha_closed_form", "expected_power_mw",
]
OPT_ROWS = ("ergodic", "ergodic_constrained", "effective", "effective_constrained")
COMPARE_HEADER = [
    "ris_mode", "ergodic_rate_bits_per_s_hz", "outage_prob", "effective_rate_bits_per_s_hz", "expected_power_mw",
]


class CheckFailure(Exception):
    def __init__(self, check: str, message: str):
        super().__init__(message)
        self.check = check


def _require(cond: bool, check: str, message: str):
    if not cond:
        raise CheckFailure(check, message)


def split_files(text: str) -> dict[str, str]:
    """Split the stdout of a several-file command at its '# file: NAME' lines."""
    files = {}
    for section in text.split("# file: ")[1:]:
        name, _, body = section.partition("\n")
        files[name] = body.rstrip("\n") + "\n"
    return files


def parse_table(text: str, header: list[str], name: str, rows: int | None = None) -> list[dict[str, str]]:
    """Parse CSV text, checking the header, the row count and finiteness."""
    table = list(csv.reader(io.StringIO(text)))
    _require(bool(table) and table[0] == header, "header", f"{name}: header {table[:1]} != {header}")
    body = [dict(zip(header, row)) for row in table[1:]]
    _require(all(len(row) == len(header) for row in table[1:]), "shape", f"{name}: ragged rows")
    if rows is not None:
        _require(len(body) == rows, "shape", f"{name}: {len(body)} rows, expected {rows}")
    for row in body:
        for key, raw in row.items():
            if key in ("ris_mode", "objective", "binding") or raw == "":
                continue
            value = float(raw)
            _require(math.isfinite(value), "finite", f"{name}: {key}={raw}")
            if key.endswith("_prob"):
                _require(0.0 <= value <= 1.0, "probability_range", f"{name}: {key}={raw}")
            if key == "alpha" or key.startswith("alpha_"):
                _require(0.0 < value < 1.0, "alpha_range", f"{name}: {key}={raw}")
    return body


def _check_mean(name: str, value: float, stderr: float, ref: dict, n: int, n_ref: int):
    var = ref["ergodic_var"]
    se_job, se_ref = math.sqrt(var / n), math.sqrt(var / n_ref)
    dev = abs(value - ref["ergodic_mean"])
    tol = SIGMAS * math.hypot(se_job, se_ref)
    _require(dev <= tol, "mc_vs_reference", f"{name}: ergodic {value} vs ref {ref['ergodic_mean']:.9g} (tol {tol:.3g})")
    ratio = stderr / se_job
    _require(STDERR_BAND[0] <= ratio <= STDERR_BAND[1], "mc_stderr", f"{name}: ergodic stderr ratio {ratio:.3f}")


def _check_prob(name: str, value: float, stderr: float, ref: dict, n: int, n_ref: int):
    p = ref["outage_p"]
    se_job, se_ref = math.sqrt(p * (1 - p) / n), math.sqrt(p * (1 - p) / n_ref)
    tol = SIGMAS * math.hypot(se_job, se_ref) + COUNT_SLACK / n
    _require(abs(value - p) <= tol, "mc_vs_reference", f"{name}: outage {value} vs ref {p:.9g} (tol {tol:.3g})")
    if min(p, 1 - p) * n >= STDERR_MIN_EVENTS:
        ratio = stderr / se_job
        _require(STDERR_BAND[0] <= ratio <= STDERR_BAND[1], "mc_stderr", f"{name}: outage stderr ratio {ratio:.3f}")


def check_mc(job: W.Job, text: str, refs: dict):
    (row,) = parse_table(text, MC_HEADER, "mc.csv", rows=1)
    _require(float(row["alpha"]) == float(f"{job.alpha:.8e}"), "echo", f"alpha {row['alpha']} != {job.alpha}")
    _require(int(row["n_samples"]) == W.MC_N, "n_samples", f"n_samples {row['n_samples']} != {W.MC_N}")
    _require(int(row["seed"]) == job.seed, "echo", f"seed {row['seed']} != {job.seed}")
    entry = refs["mc-validate"][job.entry]
    ref = entry["alphas"][repr(job.alpha)]
    name = f"{job.entry}@{job.alpha}"
    _check_mean(name, float(row["ergodic_mc_bits_per_s_hz"]), float(row["ergodic_mc_stderr_bits_per_s_hz"]),
                ref, W.MC_N, entry["n"])
    _check_prob(name, float(row["outage_mc_prob"]), float(row["outage_mc_stderr_prob"]), ref, W.MC_N, entry["n"])


def check_sweep(job: W.Job, text: str, refs: dict):
    rows = parse_table(text, SWEEP_HEADER, "sweep.csv", rows=len(W.SWEEP_VALUES))
    entry = refs["sweep-pp"][job.entry]
    for pp, row in zip(W.SWEEP_VALUES, rows):
        _require(float(row["P_p_dbm"]) == pp, "echo", f"P_p_dbm {row['P_p_dbm']} != {pp}")
        ref = entry["points"][str(pp)]
        name = f"{job.entry}@P_p={pp}"
        _check_mean(name, float(row["ergodic_mc_bits_per_s_hz"]), float(row["ergodic_mc_stderr_bits_per_s_hz"]),
                    ref, W.SWEEP_N, entry["n"])
        _check_prob(name, float(row["outage_mc_prob"]), float(row["outage_mc_stderr_prob"]), ref, W.SWEEP_N,
                    entry["n"])
        _require(float(row["expected_power_mw"]) > 0.0, "power_range", f"{name}: power {row['expected_power_mw']}")


def check_figures(text: str):
    files = split_files(text)
    _require(sorted(files) == sorted(FIGURE_FILES), "files", f"figure files {sorted(files)}")
    for name, (header, rows) in FIGURE_FILES.items():
        body = parse_table(files[name], header, name, rows)
        if rows is None:
            _require(len(body) >= 99, "shape", f"{name}: {len(body)} rows")


def check_optimize(job: W.Job, text: str):
    from ariswpc import effective_rate, ergodic_rate

    rows = parse_table(text, OPT_HEADER, "optimize.csv", rows=len(OPT_ROWS))
    _require(tuple(r["objective"] for r in rows) == OPT_ROWS, "shape", "optimize.csv objectives")
    cfg = W.config_from_sets(job.sets)
    grid = np.linspace(1e-6, 1.0 - 1e-6, OPT_GRID)
    objectives = {"ergodic": ergodic_rate, "effective": effective_rate}
    for row in rows:
        name = row["objective"]
        _require(row["binding"] in ("interior", "power_constrained"), "shape", f"{name}: binding {row['binding']}")
        _require(int(row["iterations"]) >= 0, "shape", f"{name}: iterations {row['iterations']}")
        if name in objectives:
            best = max(objectives[name](cfg, a) for a in grid)
            value = float(row["objective_value_bits_per_s_hz"])
            _require(value >= best - OPT_REL_TOL * abs(best), "optimizer_vs_grid",
                     f"{name}: objective {value} < grid max {best:.9g}")
        else:
            power = float(row["expected_power_mw"])
            _require(power <= job.P_R * (1.0 + BUDGET_REL_TOL), "power_budget",
                     f"{name}: expected power {power} > budget {job.P_R}")


def check_compare(job: W.Job, text: str):
    rows = parse_table(text, COMPARE_HEADER, "compare.csv", rows=2)
    _require([r["ris_mode"] for r in rows] == ["active", "passive"], "shape", "compare.csv modes")
    for row in rows:
        cfg = W.config_from_sets((*job.sets, f"ris_mode={row['ris_mode']}"))
        ref = outage_adaptive(Link.from_config(cfg), cfg.alpha)
        got = float(row["outage_prob"])
        _require(abs(got - ref) <= OUTAGE_ABS_TOL, "compare_outage_vs_quadrature",
                 f"{row['ris_mode']}: outage {got} vs adaptive {ref:.6g}")


def check_job(job: W.Job, outputs: list[tuple[int, str]], refs: dict) -> list[tuple[str, str]]:
    """Failures of one job as (check, message); outputs are (rc, stdout) per argv.

    Every check of a job runs, so a known-defect failure cannot hide another
    check's failure on the same job.
    """
    failures = []
    for (rc, _), argv in zip(outputs, job.argvs):
        if rc != 0:
            failures.append(("rc", f"{argv[0]} returned {rc}"))
    if failures:
        return failures
    steps = {
        "mc-validate": [lambda: check_mc(job, outputs[0][1], refs)],
        "sweep-pp": [lambda: check_sweep(job, outputs[0][1], refs)],
        "cf-scan": [
            lambda: check_figures(outputs[0][1]),
            lambda: check_optimize(job, outputs[1][1]),
            lambda: check_compare(job, outputs[2][1]),
        ],
    }[job.workload]
    for step in steps:
        try:
            step()
        except CheckFailure as exc:
            failures.append((exc.check, str(exc)))
        except (ValueError, KeyError) as exc:
            failures.append(("parse", f"{type(exc).__name__}: {exc}"))
    return failures


def validate_references(refs: dict):
    """Refuse to run a rotation entry that has no matching reference."""
    for entry, sets in W.MC_ROTATION.items():
        ref = refs.get("mc-validate", {}).get(entry)
        if ref is None or ref["sets"] != list(sets):
            raise SystemExit(f"perfbench: no MC reference for mc-validate entry {entry!r}; run make_references.py")
        missing = [a for a in W.MC_ALPHAS if repr(a) not in ref["alphas"]]
        if missing:
            raise SystemExit(f"perfbench: mc-validate entry {entry!r} has no reference at alpha {missing}")
        _check_params("mc-validate", entry, sets, ref)
    for entry, sets in W.SWEEP_ROTATION.items():
        ref = refs.get("sweep-pp", {}).get(entry)
        if ref is None or ref["sets"] != list(sets):
            raise SystemExit(f"perfbench: no MC reference for sweep-pp entry {entry!r}; run make_references.py")
        missing = [pp for pp in W.SWEEP_VALUES if str(pp) not in ref["points"]]
        if missing:
            raise SystemExit(f"perfbench: sweep-pp entry {entry!r} has no reference at P_p {missing}")
        _check_params("sweep-pp", entry, sets, ref)


def _check_params(workload: str, entry: str, sets, ref: dict):
    from oracle import model_params

    if model_params(W.config_from_sets(sets)) != ref["params"]:
        raise SystemExit(
            f"perfbench: the {workload} entry {entry!r} resolves to other model parameters than its "
            "reference was drawn for; run make_references.py"
        )
