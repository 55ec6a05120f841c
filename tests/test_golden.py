"""Golden outputs of the CLI commands at a few edge configs.

tests/golden/cf_commands.json holds, for each argv below, the exit code, the
stdout and the first stderr line of ``ariswpc.cli.main``. The test fails on
any changed exit code, stdout layout or error line, and on a CSV cell that
moves by more than 2 units in its 9th significant digit. Exact byte changes
within that rule are allowed: numpy's SIMD exp and log may differ in the last
bit between CPUs.

Before regenerating after an intended change of published values, list
what moved, argv by argv (identical; the moved cells with their largest
absolute and relative move; or the changed exit code or error line):

    PYTHONPATH=src python tests/test_golden.py --report
    PYTHONPATH=src python tests/test_golden.py --update
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden") / "cf_commands.json"

_CONFIGS = {
    "defaults": (),
    "passive": ("--set", "ris_mode=passive"),
    "M0": ("--set", "M=0"),
    "M4-b1": ("--set", "M=4", "--set", "b=1"),
    "rv0": ("--set", "r_v=0"),
    "quad8": ("--quadrature-points", "8"),
    "rv-tiny": ("--set", "r_v=1e-17"),
    "rho0": ("--set", "rho=0"),
    "far": ("--set", "d_f=60", "--set", "d_h=40", "--set", "d_g=40"),
    "M0-df-inf": ("--set", "M=0", "--set", "d_f=inf"),
}
_COMMANDS = (("figure", "all"), ("compare",), ("optimize",), ("optimize", "--power-budget", "5"))
_SWEEP = ("sweep", "--outputs", "ergodic_cf,outage_cf,effective,power,alpha_star,alpha_dagger")
# error lines, closed-form sweeps over alpha, P_p_dbm, P_R_mw and M, and mc at three alphas
_EXTRA = (
    ("figure", "all", "--set", "P_p_dbm=3080"),
    ("compare", "--set", "rho_max=1e160", "--set", "rho=1e160"),
    ("compare", "--set", "P_p_dbm=3070", "--set", "alpha=0.9"),
    ("figure", "all", "--set", "P_p_dbm=-300"),
    ("figure", "all", "--set", "P_p_dbm=3070"),
    ("sweep", "--variable", "rho", "--values", "1e160", "--outputs", "power", "--set", "rho_max=1e160"),
    ("sweep", "--variable", "P_p_dbm", "--values", "3050", "--outputs", "power", "--set", "d_h=0.01"),
    ("sweep", "--variable", "M", "--values", "4,8", "--outputs", "power", "--set", "P1_dbm=3080"),
    ("compare", "--set", "P1_dbm=3080", "--set", "M=1000"),
    (*_SWEEP, "--variable", "P_p_dbm", "--values=-20,0,10,20,30"),
    (*_SWEEP, "--variable", "P_p_dbm", "--values", "3000,3060,3070,3080"),
    (*_SWEEP, "--variable", "alpha", "--values", "0.05,0.3,0.6,0.95"),
    (*_SWEEP, "--variable", "P_R_mw", "--values", "1,10,100"),
    (*_SWEEP, "--variable", "M", "--values", "0,4,16"),
    ("sweep", "--variable", "P_p_dbm", "--values", "0,20", "--samples", "2000", "--seed", "3",
     "--outputs", "power,ergodic_mc,outage_cf,outage_mc"),
    ("compare", "--set", "ris_mode=bogus"),
    ("compare", "--set", "M=abc"),
    ("compare", "--set", "M"),
    ("compare", "--set", "M=0", "--set", "d_f=inf"),
    ("sweep", "--variable", "P_p_dbm", "--values", "0,10", "--outputs", "outage_cf",
     "--set", "M=0", "--set", "d_f=inf"),
    *(("mc", "--alpha", alpha, "--samples", "3000") for alpha in ("0.1", "0.419", "0.9")),
)
# Monte Carlo and closed-form sweeps over every variable, with every output
_MC_SWEEP = ("sweep", "--samples", "2000", "--outputs",
             "ergodic_cf,ergodic_mc,outage_cf,outage_mc,effective,power,alpha_star,alpha_dagger")
_MC_VALUES = {"P_p_dbm": "0,10,20,30", "alpha": "0.1,0.419,0.9", "M": "0,4,16", "b": "1,4,8", "rho": "1,3,6",
              "P_R_mw": "1,10,100"}
# error lines that name the failing sweep value: a Monte Carlo rate that overflows at a
# later point, and an alpha* without an interior maximum
_LABELLED_ERRORS = (
    ("sweep", "--variable", "alpha", "--values", "0.05,0.5", "--outputs", "ergodic_mc", "--samples", "100000",
     "--set", "P_p_dbm=3070"),
    ("sweep", "--variable", "P_p_dbm", "--values", "3000,3070", "--outputs", "ergodic_mc", "--samples", "100000",
     "--set", "alpha=0.5"),
    ("sweep", "--variable", "alpha", "--values", "0.1,0.9", "--outputs", "power,ergodic_mc", "--samples", "1000",
     "--set", "P_p_dbm=3080"),
    ("sweep", "--variable", "P_p_dbm", "--values=-300,-200,0", "--outputs", "alpha_star"),
    ("sweep", "--variable", "M", "--values", "0,4", "--outputs", "alpha_star", "--set", "d_f=inf"),
)
# valid configs where nu1 * zeta_p underflows to 0, so the outage is 1: a path loss of 1e-321 and a tiny nu1
_UNDERFLOWS = (("--set", "d_p=1e107", "--set", "P_p_dbm=-20"), ("--set", "P_p_dbm=-3000", "--set", "alpha=1e-300"))
_UNDERFLOWING_OUTAGE = (
    *(("compare", *sets) for sets in _UNDERFLOWS),
    *(("mc", "--samples", "2000", *sets) for sets in _UNDERFLOWS),
    ("sweep", "--variable", "alpha", "--values", "0.1,0.5,0.9", "--outputs", "outage_cf,effective,power",
     *_UNDERFLOWS[0]),
    *(("sweep", "--variable", "b", "--values", "1,2", "--outputs", "effective,outage_cf,ergodic_cf", *sets)
      for sets in _UNDERFLOWS),
)
ARGVS = (
    [(*command, *sets) for sets in _CONFIGS.values() for command in _COMMANDS]
    + list(_EXTRA)
    + [(*_MC_SWEEP, "--variable", variable, "--values", values, *_CONFIGS[name])
       for name in ("defaults", "passive", "M0") for variable, values in _MC_VALUES.items()]
    + list(_LABELLED_ERRORS)
    + list(_UNDERFLOWING_OUTAGE)
)


def run(argv) -> dict:
    from ariswpc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
    return {"argv": list(argv), "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue().split("\n")[0]}


def _cell_moved(expected: str, actual: str) -> bool:
    """True unless the cells are equal, or both are numbers within 2 units of expected's 9th digit."""
    if expected == actual:
        return False
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        return True
    exponent = int(expected.lower().split("e")[1]) if "e" in expected.lower() else 0
    return abs(a - e) > 2.0 * 10.0 ** (exponent - 8)


def moved_cells(expected: str, actual: str) -> list[str]:
    """Where actual's stdout differs from expected's beyond the rule above; [] when it does not."""
    e_lines, a_lines = expected.split("\n"), actual.split("\n")
    if len(e_lines) != len(a_lines):
        return [f"{len(e_lines)} lines expected, {len(a_lines)} printed"]
    moved = []
    for n, (e_line, a_line) in enumerate(zip(e_lines, a_lines), 1):
        e_cells, a_cells = e_line.split(","), a_line.split(",")
        if len(e_cells) != len(a_cells):
            moved.append(f"line {n}: {e_line!r} -> {a_line!r}")
            continue
        moved += [f"line {n}: {e} -> {a}" for e, a in zip(e_cells, a_cells) if _cell_moved(e, a)]
    return moved


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def report_line(expected: dict, actual: dict) -> str:
    """What moved at one argv: 'identical', its changed exit code or error line, or its moved cells.

    A cell moves when its text changes at all. The largest move is the largest
    absolute and relative difference over the moved numeric cells; a moved cell
    that is not a number on both sides counts as an infinite move.
    """
    if (actual["rc"], actual["stderr"]) != (expected["rc"], expected["stderr"]):
        return f"rc {expected['rc']} -> {actual['rc']}, stderr {expected['stderr']!r} -> {actual['stderr']!r}"
    e_rows = [line.split(",") for line in expected["stdout"].split("\n")]
    a_rows = [line.split(",") for line in actual["stdout"].split("\n")]
    if [len(row) for row in e_rows] != [len(row) for row in a_rows]:
        return f"layout changed: {len(e_rows)} -> {len(a_rows)} lines"
    moves = []
    for e, a in zip(itertools.chain(*e_rows), itertools.chain(*a_rows)):
        if e == a:
            continue
        x, y = _number(e), _number(a)
        if x is None or y is None:
            moves.append((math.inf, math.inf))
        else:
            moves.append((abs(y - x), abs(y - x) / abs(x) if x else math.inf))
    if not moves:
        return "identical"
    largest_abs, largest_rel = max(m[0] for m in moves), max(m[1] for m in moves)
    return f"{len(moves)} cells moved, largest move {largest_abs:.3g} absolute, {largest_rel:.3g} relative"


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_argv_list_is_current():
    assert [entry["argv"] for entry in _golden()] == [list(argv) for argv in ARGVS]


@pytest.mark.parametrize("index", range(len(ARGVS)), ids=[" ".join(argv) for argv in ARGVS])
def test_output_matches_golden(index):
    expected = _golden()[index]
    actual = run(expected["argv"])
    assert (actual["rc"], actual["stderr"]) == (expected["rc"], expected["stderr"])
    assert moved_cells(expected["stdout"], actual["stdout"]) == []


def test_report_line_names_what_moved():
    entry = {"argv": ["compare"], "rc": 0, "stdout": "a,b\n1.00000000e+00,2.00000000e+00\n", "stderr": ""}
    assert report_line(entry, dict(entry)) == "identical"
    moved = dict(entry, stdout="a,b\n1.00000000e+00,2.50000000e+00\n")
    assert report_line(entry, moved) == "1 cells moved, largest move 0.5 absolute, 0.25 relative"
    failed = dict(entry, rc=1, stdout="", stderr="error: ValueError: math domain error")
    assert report_line(failed, entry) == "rc 1 -> 0, stderr 'error: ValueError: math domain error' -> ''"


if __name__ == "__main__":
    if sys.argv[1:] == ["--report"]:
        lines = []
        for expected in _golden():
            lines.append(report_line(expected, run(expected["argv"])))
            print(f"{' '.join(expected['argv'])}: {lines[-1]}")
        print(f"{lines.count('identical')} of {len(lines)} argvs identical")
        sys.exit(0)
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --report | --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in ARGVS], indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(ARGVS)} entries to {GOLDEN}")
