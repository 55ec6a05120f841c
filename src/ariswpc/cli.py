"""Command-line surface: parameter sweeps, figure-data CSVs, optimizer runs.

Subcommands: sweep, figure, optimize, compare, mc. All output is CSV with
unit-carrying headers and fixed scientific formatting (9 significant
digits), so identical seeds and flags reproduce byte-identical files; a
non-finite cell fails the command. Each per-config number, in a sweep, mc or
compare row or a figure column, is an _OUTPUTS cell, Monte Carlo and
alpha* included; a figure column or a sweep over P_p or alpha evaluates one
config at all its points. Precedence of settings: built-in defaults <
--config file < --set KEY=VALUE < dedicated flags (--quadrature-points, and
--samples of mc and sweep, --power-budget of optimize). Monte Carlo runs on
the engine's default threads; that never changes the output.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .closedform import _Run, effective_rate, ergodic_rate
from .config import _KNOWN_KEYS, ConfigParseError, RisMode, SystemConfig, load_config_file, replace_config
from .montecarlo import mc_rate_and_outage
from .optimize import (
    NoInteriorMaximumError,
    _apply_power_constraint,
    effective_alpha_closed_form,
    ergodic_optima,
    optimize_alpha_effective,
    optimize_alpha_ergodic,
)
from .power import _expected_powers

__all__ = ["SweepSpec", "run_sweep", "reproduce_figure", "compare_active_passive", "main"]


def _at(cfg: SystemConfig, **moves) -> tuple[SystemConfig, float, float]:
    """A point (config, alpha, P_p_dbm): cfg at its own alpha and P_p_dbm, or at those in `moves`."""
    return cfg, moves.get("alpha", cfg.alpha), moves.get("P_p_dbm", cfg.P_p_dbm)


def _mc_cells(run: _Run, seed: int) -> dict[str, list]:
    """Both Monte Carlo outputs' columns at the run's points, from one mc_rate_and_outage call at the root seed.

    Each point first passes the closed forms' overflow checks, as the run's mean SINRs are read. The call takes
    the engine's defaults, mc_samples draws on its default threads; each cell equals mc_ergodic_rate /
    mc_outage at its point, whatever the thread count.
    """
    run.mean_sinrs
    rates, outages = zip(*mc_rate_and_outage(run.cfg, run.alphas, run.P_p_dbms, seed=seed))
    return {"ergodic_mc_bits_per_s_hz": [r.value for r in rates], "outage_mc_prob": [o.value for o in outages],
            "ergodic_mc_stderr_bits_per_s_hz": [r.stderr for r in rates],
            "outage_mc_stderr_prob": [o.stderr for o in outages]}


def _one_column(header: str, cells) -> tuple[tuple[str], object]:
    return (header,), lambda run, seed: {header: cells(run)}


# Every per-point output: its CSV columns and the function of (run record r, root seed) that gives
# {column: its cells at r's points}. A run's outputs all read its one closedform._Run; both Monte
# Carlo outputs share one function, so one call fills both. The lambdas look names up when called.
_OUTPUTS = {
    "ergodic_cf": _one_column("ergodic_cf_bits_per_s_hz", lambda r: r.rates),
    "ergodic_mc": (("ergodic_mc_bits_per_s_hz", "ergodic_mc_stderr_bits_per_s_hz"), _mc_cells),
    "outage_cf": _one_column("outage_cf_prob", lambda r: (1.0 - r.coverages).tolist()),
    "outage_mc": (("outage_mc_prob", "outage_mc_stderr_prob"), _mc_cells),
    "effective": _one_column("effective_rate_bits_per_s_hz", lambda r: (r.coverages * r.cfg.r_v).tolist()),
    "power": _one_column("expected_power_mw", lambda r: _expected_powers(r)),
    "alpha_star": _one_column("alpha_star", lambda r: [opt.alpha_opt for opt in ergodic_optima(r.cfg, r.P_p_dbms)]),
    "alpha_dagger": _one_column("alpha_dagger", lambda r: [effective_alpha_closed_form(r.cfg.r_v)] * len(r.alphas)),
}
SWEEP_OUTPUTS = tuple(_OUTPUTS)

# Sweep variable -> header of the sweep's first column.
_SWEEP_HEADER_FIRST = {
    "P_p_dbm": "P_p_dbm",
    "M": "M_elements",
    "alpha": "alpha",
    "b": "b_bits",
    "rho": "rho_gain",
    "P_R_mw": "P_R_mw",
}
SWEEP_VARIABLES = tuple(_SWEEP_HEADER_FIRST)

_PP_GRID = tuple(float(pp) for pp in range(0, 31, 2))  # dBm
_RHO_GRID = tuple(np.arange(1.0, 6.01, 0.5).tolist())
_M_GRID = tuple(range(4, 65, 4))


def _fmt(value) -> str:
    if not isinstance(value, float):  # np.float64 is a float
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_, int, np.integer)):
            return str(int(value))
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {float(value)} in a CSV cell")
    return f"{float(value):.8e}"


@functools.lru_cache(maxsize=64)
def _row_template(types: tuple[type, ...]) -> str | None:
    """The % template of a CSV row of these cell types, or None unless every cell is a float or a whole number."""
    cells = []
    for cell in types:
        if cell is float or cell is np.float64:
            cells.append("%.8e")
        elif cell in (int, bool, np.bool_) or issubclass(cell, np.integer):
            cells.append("%d")
        else:
            return None
    return ",".join(cells) + "\n"


def _csv_table(header: Sequence[str], rows) -> str:
    """The CSV text of header and rows, each cell _fmt's; numbers only need no quoting.

    A row of floats and whole numbers is one % format of its cached template; a nan or inf
    formats with an "n", and that row, as any other, goes through _fmt and csv.writer.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        row = tuple(row)
        template = _row_template(tuple(map(type, row)))
        if template is not None:
            line = template % row
            if "n" not in line:
                buf.write(line)
                continue
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


@contextmanager
def _labelled(label: str | None):
    """Put ``label: `` in front of a caught error's message and re-raise it, its type and fields kept."""
    try:
        yield
    except (ValueError, NoInteriorMaximumError) as exc:
        if label is not None:
            exc.args = (f"{label}: {exc}",)
        raise


def _evaluate(points: Sequence[tuple], outputs: Sequence[str], seed: int, labels=None) -> list[tuple]:
    """The cells of `outputs` at each point (config, alpha, P_p_dbm), one row per point.

    Each output's function runs once per run of consecutive points on one config object,
    on the run's one record (closedform._Run), so those points share its link model, nu1,
    K, outage quadrature and Monte Carlo draws (root seed `seed`). Should a run fail, each of
    its points is evaluated on a record of its own (earlier runs passed), but for what the run
    settled: the outputs before the failing one, and Monte Carlo estimates up to their failing
    point, are not evaluated again. The error is the first failing point's first failing output,
    and a ValueError or NoInteriorMaximumError at point i is labelled labels[i].
    """
    functions = list(dict.fromkeys(_OUTPUTS[o][1] for o in outputs))
    columns: dict[str, list] = {}
    for _, run in itertools.groupby(zip(points, labels or itertools.repeat(None)), key=lambda item: id(item[0][0])):
        run_points, run_labels = zip(*run)
        run_configs, alphas, hub_powers = zip(*run_points)
        record = _Run(run_configs[0], alphas, hub_powers)
        try:
            for function in functions:
                for header, cells in function(record, seed).items():
                    columns.setdefault(header, []).extend(cells)
        except Exception as exc:
            # The outputs before `function` passed at every point. A Monte Carlo error names its failing
            # point (exc.point): the run's one pass fixed each point's estimate, each equal to its one-point
            # call's, so the points before it passed and it fails with this very error
            failed_at = getattr(exc, "point", None)
            unknown = functions[functions.index(function) + (failed_at is not None):]
            for i, (label, (cfg, alpha, hub_power)) in enumerate(zip(run_labels, run_points)):
                with _labelled(label):
                    if i == failed_at:
                        exc.point = 0  # the point's own error: its one-point run fails at its point 0
                        raise
                    record = _Run(cfg, (alpha,), (hub_power,))
                    for later in unknown:
                        later(record, seed)
            raise
    return list(zip(*(columns[header] for header in _columns(outputs))))


def _columns(outputs: Sequence[str]) -> list[str]:
    return [column for o in outputs for column in _OUTPUTS[o][0]]


@dataclass(frozen=True)
class SweepSpec:
    """One-variable sweep request: which knob, which values, which outputs."""

    variable: str
    values: tuple[float, ...]
    outputs: tuple[str, ...]
    seed: int = 0

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.values:
            raise ValueError("values must be non-empty")
        diffs = np.diff(self.values)
        if len(self.values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("values must be strictly monotone")
        if not self.outputs:
            raise ValueError("outputs must be non-empty")
        unknown = set(self.outputs) - set(SWEEP_OUTPUTS)
        if unknown:
            raise ValueError(f"unknown outputs: {sorted(unknown)}; allowed: {SWEEP_OUTPUTS}")
        repeated = sorted({o for o in self.outputs if self.outputs.count(o) > 1})
        if repeated:
            raise ValueError(f"repeated outputs: {repeated}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def run_sweep(cfg: SystemConfig, spec: SweepSpec) -> str:
    """Evaluate the requested outputs at each sweep value; returns CSV text.

    Rows are emitted in sweep order. A sweep over alpha or P_p_dbm puts every
    point on ``cfg``, at the value, as a figure column does, so its points
    share one link model and one set of Monte Carlo draws; over any other
    variable each point is ``cfg`` with the swept field set to the value. Each
    value is validated as a config field either way. All Monte Carlo outputs
    use the sweep's root seed (common random numbers, see _evaluate). A
    failure raises the failing point's own error, labelled with its value.
    """
    labels = [f"sweep {spec.variable}={value:g}" for value in spec.values]
    points = []
    for label, value in zip(labels, spec.values):
        with _labelled(label):
            point = replace_config(cfg, **{spec.variable: value})  # validates the value
        points.append(_at(cfg, **{spec.variable: value}) if spec.variable in ("alpha", "P_p_dbm") else _at(point))
    rows = _evaluate(points, spec.outputs, spec.seed, labels)
    integral = spec.variable in ("M", "b")
    return _csv_table(
        [_SWEEP_HEADER_FIRST[spec.variable], *_columns(spec.outputs)],
        ([int(value) if integral else value, *row] for value, row in zip(spec.values, rows)),
    )


# ---- figure data ------------------------------------------------------------


def _grid_table(first: str, grid: Sequence, columns, flags=()) -> str:
    """One row per grid value x: x, each column's cell at x, then each flag (header, function of x).

    A column is (header, _OUTPUTS name, its points along the grid). Columns on one point list
    object are evaluated by one _evaluate call, in the order the first of them comes.
    """
    shared: dict[int, tuple[Sequence, list]] = {}
    for header, output, points in columns:
        shared.setdefault(id(points), (points, []))[1].append((header, output))
    cells = {}
    for points, named in shared.values():
        rows = _evaluate(points, [output for _, output in named], seed=0)
        cells.update(zip((header for header, _ in named), zip(*rows)))
    header = [first, *(header for header, _, _ in columns), *(header for header, _ in flags)]
    rows = zip(*(cells[header] for header, _, _ in columns))
    return _csv_table(header, ([x, *row, *(flag(x) for _, flag in flags)] for x, row in zip(grid, rows)))


def _pp_columns(variants: dict[str, SystemConfig], output: str) -> list:
    return [(header, output, [_at(v, P_p_dbm=pp) for pp in _PP_GRID]) for header, v in variants.items()]


def _fig2(cfg: SystemConfig) -> dict[str, str]:
    variants = {
        "ergodic_active_b1_bits_per_s_hz": replace_config(cfg, b=1, ris_mode=RisMode.ACTIVE),
        "ergodic_active_b4_bits_per_s_hz": replace_config(cfg, b=4, ris_mode=RisMode.ACTIVE),
        "ergodic_active_ideal_bits_per_s_hz": replace_config(cfg, b=16, ris_mode=RisMode.ACTIVE),
        "ergodic_passive_bits_per_s_hz": replace_config(cfg, ris_mode=RisMode.PASSIVE),
    }
    return {"fig2_ergodic_vs_pp.csv": _grid_table("P_p_dbm", _PP_GRID, _pp_columns(variants, "ergodic_cf"))}


def _fig3(cfg: SystemConfig) -> dict[str, str]:
    variants = {}
    for m in (16, 32):
        variants[f"outage_active_m{m}_prob"] = replace_config(cfg, M=m, ris_mode=RisMode.ACTIVE)
        variants[f"outage_passive_m{m}_prob"] = replace_config(cfg, M=m, ris_mode=RisMode.PASSIVE)
    return {"fig3_outage_vs_pp.csv": _grid_table("P_p_dbm", _PP_GRID, _pp_columns(variants, "outage_cf"))}


def _fig4(cfg: SystemConfig) -> dict[str, str]:
    [[alpha_star, alpha_dagger]] = _evaluate([_at(cfg)], ("alpha_star", "alpha_dagger"), seed=0)
    marked = {alpha_star} if alpha_dagger is None else {alpha_star, alpha_dagger}
    grid = sorted(set(np.linspace(0.01, 0.99, 99).tolist()) | marked)
    points = [_at(cfg, alpha=a) for a in grid]
    outputs = {"ergodic_rate_bits_per_s_hz": "ergodic_cf", "effective_rate_bits_per_s_hz": "effective"}
    columns = [(header, output, points) for header, output in outputs.items()]
    flags = [("is_alpha_star", lambda a: a == alpha_star), ("is_alpha_dagger", lambda a: a == alpha_dagger)]
    return {"fig4_rates_vs_alpha.csv": _grid_table("alpha", grid, columns, flags)}


def _fig5(cfg: SystemConfig) -> dict[str, str]:
    rho_points = [_at(replace_config(cfg, rho=r, rho_max=max(cfg.rho_max, r))) for r in _RHO_GRID]
    return {
        "fig5_power_vs_rho.csv": _grid_table("rho_gain", _RHO_GRID, [("expected_power_mw", "power", rho_points)]),
        "fig5_power_vs_pp.csv": _grid_table("P_p_dbm", _PP_GRID, _pp_columns({"expected_power_mw": cfg}, "power")),
    }


def _fig6(cfg: SystemConfig) -> dict[str, str]:
    m_configs = [replace_config(cfg, M=m) for m in _M_GRID]
    m_points = [_at(c, alpha=a) for c in m_configs for a in (0.1, 0.9)]  # one run of both alphas per M
    try:
        powers = [power for [power] in _evaluate(m_points, ("power",), seed=0)]
    except Exception:
        # the error of the figure's column order: every M at alpha=0.1 first, then at alpha=0.9
        _evaluate(m_points[::2] + m_points[1::2], ("power",), seed=0)
        raise
    m_header = ["M_elements", "expected_power_alpha_0p1_mw", "expected_power_alpha_0p9_mw"]
    alphas = np.linspace(0.1, 0.9, 17).tolist()
    alpha_column = ("expected_power_mw", "power", [_at(cfg, alpha=a) for a in alphas])
    return {
        "fig6_power_vs_m.csv": _csv_table(m_header, zip(_M_GRID, powers[::2], powers[1::2])),
        "fig6_power_vs_alpha.csv": _grid_table("alpha", alphas, [alpha_column]),
    }


_FIGURE_BUILDERS = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "fig6": _fig6}
FIGURES = tuple(_FIGURE_BUILDERS)


def reproduce_figure(fig: str, cfg: SystemConfig | None = None) -> dict[str, str]:
    """CSV data series behind one of the summary figures (fig2..fig6)."""
    if cfg is None:
        cfg = SystemConfig()
    if fig not in _FIGURE_BUILDERS:
        raise ValueError(f"unknown figure {fig!r}; expected one of {FIGURES}")
    return _FIGURE_BUILDERS[fig](cfg)


def compare_active_passive(cfg: SystemConfig) -> str:
    """Side-by-side closed-form summary at identical M and alpha."""
    modes = (RisMode.ACTIVE, RisMode.PASSIVE)
    rows = _evaluate(
        [_at(replace_config(cfg, ris_mode=mode)) for mode in modes],
        ("ergodic_cf", "outage_cf", "effective", "power"),
        seed=0,
    )
    header = [
        "ris_mode", "ergodic_rate_bits_per_s_hz", "outage_prob", "effective_rate_bits_per_s_hz", "expected_power_mw"
    ]
    return _csv_table(header, ([mode.value, *row] for mode, row in zip(modes, rows)))


# ---- argument handling -------------------------------------------------------


def _build_config(args) -> SystemConfig:
    cfg = load_config_file(args.config) if args.config else SystemConfig()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigParseError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigParseError(f"unknown config key: {key!r}")
        overrides[key] = raw
    dedicated = {"mc_samples": getattr(args, "samples", None), "quadrature_points": args.quadrature_points,
                 "P_R_mw": getattr(args, "power_budget", None)}  # --samples: mc, sweep; --power-budget: optimize
    overrides.update((key, value) for key, value in dedicated.items() if value is not None)
    return replace_config(cfg, **overrides) if overrides else cfg


def _emit(files: dict[str, str], out_dir: str | None) -> None:
    if out_dir is None:
        for i, (name, text) in enumerate(files.items()):
            if len(files) > 1:
                if i:
                    sys.stdout.write("\n")
                sys.stdout.write(f"# file: {name}\n")
            sys.stdout.write(text)
    else:
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (directory / name).write_text(text, encoding="utf-8")
            print(f"wrote {directory / name}", file=sys.stderr)


# ---- commands: each maps (config, parsed flags) to {file name: CSV text} -----


def _sweep(cfg: SystemConfig, args) -> dict[str, str]:
    values = []
    for raw in args.values.split(","):  # each a number, validated below as a value of the field
        try:
            values.append(float(raw))
        except ValueError:
            raise ConfigParseError(f"cannot parse value for {args.variable!r}: {raw.strip()!r}") from None
    spec = SweepSpec(
        variable=args.variable,
        values=tuple(values),
        outputs=tuple(args.outputs.split(",")),
        seed=args.seed,
    )
    return {"sweep.csv": run_sweep(cfg, spec)}


def _figure(cfg: SystemConfig, args) -> dict[str, str]:
    files: dict[str, str] = {}
    for fig in FIGURES if args.figure == "all" else (args.figure,):
        files.update(reproduce_figure(fig, cfg))
    return files


def _optimize(cfg: SystemConfig, args) -> dict[str, str]:
    runs = []
    for name, optimizer, rate in (("ergodic", optimize_alpha_ergodic, ergodic_rate),
                                  ("effective", optimize_alpha_effective, effective_rate)):
        best = optimizer(cfg)
        runs += [(name, best), (f"{name}_constrained", _apply_power_constraint(cfg, best, rate))]
    header = [
        "objective", "alpha_opt", "objective_value_bits_per_s_hz", "binding",
        "iterations", "residual", "alpha_closed_form", "expected_power_mw",
    ]
    powers = _evaluate([_at(cfg, alpha=res.alpha_opt) for _, res in runs], ("power",), seed=0)
    rows = [
        [name, res.alpha_opt, res.objective_value, res.binding.value, res.iterations,
         res.residual, res.alpha_closed_form, power]
        for (name, res), [power] in zip(runs, powers)
    ]
    return {"optimize.csv": _csv_table(header, rows)}


def _mc(cfg: SystemConfig, args) -> dict[str, str]:
    """The sweep's ergodic and outage columns at one alpha, plus n and seed."""
    point = replace_config(cfg, alpha=cfg.alpha if args.alpha is None else args.alpha)
    outputs = ("ergodic_cf", "ergodic_mc", "outage_cf", "outage_mc")
    [row] = _evaluate([_at(point)], outputs, args.seed)
    header = ["alpha", *_columns(outputs), "n_samples", "seed"]
    return {"mc.csv": _csv_table(header, [[point.alpha, *row, point.mc_samples, args.seed]])}


@functools.cache  # argparse keeps no state between parse_args calls
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ariswpc",
        description="Active-RIS wireless-powered link analysis: closed forms, "
        "Monte Carlo cross-validation, and time-switching optimization.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config field (repeatable; lists comma-separated)",
    )
    common.add_argument("--quadrature-points", type=int, help="override quadrature_points")
    common.add_argument("--out-dir", help="write CSVs here instead of stdout")
    sampling = argparse.ArgumentParser(add_help=False, parents=[common])
    sampling.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    sampling.add_argument("--samples", type=int, help="override mc_samples")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[sampling], help="sweep one variable, CSV out")
    p.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    p.add_argument("--values", required=True, help="comma-separated, strictly monotone")
    p.add_argument(
        "--outputs",
        required=True,
        help=f"comma-separated subset of {','.join(SWEEP_OUTPUTS)}",
    )
    p.set_defaults(func=_sweep)

    p = sub.add_parser(
        "figure",
        parents=[common],
        help="emit figure data series (fig2: rate vs P_p; fig3: outage vs P_p; "
        "fig4: rates vs alpha; fig5: power vs rho in [1,6] and vs P_p in "
        "[0,30] dBm; fig6: power vs M in [4,64] and vs alpha)",
    )
    p.add_argument("figure", choices=(*FIGURES, "all"))
    p.set_defaults(func=_figure)

    p = sub.add_parser("optimize", parents=[common], help="run all four alpha optimizers")
    p.add_argument("--power-budget", type=float, help="override P_R_mw, the RIS power budget in mW")
    p.set_defaults(func=_optimize)

    p = sub.add_parser("compare", parents=[common], help="active vs passive summary")
    p.set_defaults(func=lambda cfg, args: {"compare.csv": compare_active_passive(cfg)})

    p = sub.add_parser("mc", parents=[sampling], help="Monte Carlo vs closed form at one alpha")
    p.add_argument("--alpha", type=float, help="time-switching factor (default: config alpha)")
    p.set_defaults(func=_mc)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        _emit(args.func(_build_config(args), args), args.out_dir)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
