#!/usr/bin/env python3
"""Benchmark runner for the ariswpc CLI.

    python3 perfbench/run.py --workload {mc-validate,sweep-pp,cf-scan} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. One
process, one client, closed loop: each job calls ``ariswpc.cli.main(argv)``
in-process and waits for its CSV before the next job starts. MC runs with
one worker (the CLI default).

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
fresh interpreters, then whole passes of the workload for at least S
seconds, then the correctness checks. --trace 1 runs a fixed job list once
untraced and twice traced (see tracer.py) and reports per-layer metrics.
Both print a metric table, write a result file with an environment block
to perfbench/out/, and end with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
REF_PATH = HERE / "references.json"

SETUP_REPS = 5              # fresh interpreters measured for setup_s
P90_MIN_JOBS = 100          # p90 needs >= 10 samples beyond it
MIN_JOB_S = {"mc-validate": 0.005, "sweep-pp": 0.02, "cf-scan": 0.04}  # sizes the pre-generated job list
TRACE_JOBS = {"mc-validate": 11, "sweep-pp": 4, "cf-scan": 24}       # one pass, one pass, 24 points
SPEEDUP_N = 2**20

# Layers that must show calls in the traced run of each workload, and
# layers that must show none.
EXPECTED_NONZERO = {
    "mc-validate": ("config", "ris", "channel", "closedform", "montecarlo", "cli"),
    "sweep-pp": ("config", "ris", "channel", "closedform", "power", "optimize", "montecarlo", "cli"),
    "cf-scan": ("config", "ris", "closedform", "power", "optimize", "cli"),
}
EXPECTED_ZERO = {"cf-scan": ("channel", "montecarlo")}


def import_program():
    """Import ariswpc.cli from ./src of this checkout, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import ariswpc.cli as cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ariswpc from {SRC}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: ariswpc was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, argvs) -> tuple[float, list[tuple[int, str]]]:
    """Run a job's commands in order; returns (latency in s, [(rc, stdout)])."""
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) and exc.code else 2
            except Exception:  # noqa: BLE001 - a crash is a failed job, reported below
                traceback.print_exc(file=err)
                rc = -1
        outputs.append((rc, out.getvalue()))
    return time.perf_counter() - start, outputs


def git_state(root: Path) -> tuple[str | None, bool | None]:
    """(commit, dirty) of the git tree rooted exactly at root, else (None, None)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30, check=True).stdout

    try:
        if Path(git("rev-parse", "--show-toplevel").strip()).resolve() != root.resolve():
            return None, None
        return git("rev-parse", "HEAD").strip(), bool(git("status", "--porcelain", "--", "src").strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def environment(seed: int, loadavg: list[str]) -> dict:
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit, dirty = git_state(ROOT)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": loadavg,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
        "workload_seed": seed,
    }


# ---- set-up probe -----------------------------------------------------------------


def setup_probe() -> int:
    """Child mode: time `import ariswpc` plus the warm-up job in this fresh interpreter."""
    argvs = json.loads(sys.stdin.read())
    start = time.perf_counter()
    cli = import_program()
    _, outputs = run_job(cli, argvs)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "outputs": outputs}))
    return 0


def measure_setup(warm_job) -> tuple[list[float], list]:
    samples, outputs = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe"],
            input=json.dumps([list(a) for a in warm_job.argvs]),
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(result["setup_s"])
        outputs.append([tuple(o) for o in result["outputs"]])
    return samples, outputs


# ---- runs -------------------------------------------------------------------------


def _check_all(jobs, outputs, refs):
    from checks import KNOWN_DEFECTS, check_job

    failed_jobs, gating, known, details = 0, 0, 0, []
    for job, out in zip(jobs, outputs):
        failures = check_job(job, out, refs)
        if failures:
            failed_jobs += 1
            details.append({"argvs": [list(a) for a in job.argvs], "failures": failures})
            if any(check not in KNOWN_DEFECTS for check, _ in failures):
                gating += 1
            else:
                known += 1
    return {"failed_jobs": failed_jobs, "gating_jobs": gating, "known_defect_jobs": known, "details": details}


def run_untraced(cli, workload: str, seed: int, seconds: float, refs: dict) -> dict:
    from workloads import job_passes, warmup_job

    warm = warmup_job(workload, seed)
    setup_samples, probe_outputs = measure_setup(warm)
    _, warm_outputs = run_job(cli, warm.argvs)
    reproducible = all(o == warm_outputs for o in probe_outputs)

    cap = math.ceil(seconds / MIN_JOB_S[workload])
    passes, planned = [], 0
    for batch in job_passes(workload, seed):
        passes.append(batch)
        planned += len(batch)
        if planned >= cap:
            break

    jobs, latencies, outputs, passes_run = [], [], [], 0
    start = time.perf_counter()
    for batch in passes:
        for job in batch:
            latency, out = run_job(cli, job.argvs)
            jobs.append(job)
            latencies.append(latency)
            outputs.append(out)
        passes_run += 1
        if time.perf_counter() - start >= seconds:
            exhausted = False
            break
    else:
        exhausted = True
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = _check_all(jobs, outputs, refs)
    errors = sum(any(rc != 0 for rc, _ in out) for out in outputs)
    n = len(jobs)
    mc_estimates = sum(job.mc_estimates for job in jobs)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (n / wall, "1/s"),
        "job_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS} fresh interpreters: import ariswpc + warm-up job",
        "job_ms_p50": f"n={n} jobs",
    }
    if n >= P90_MIN_JOBS:
        metrics["job_ms_p90"] = (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3, "ms")
        notes["job_ms_p90"] = f"n={n} jobs"
    else:
        notes["job_ms_p90"] = f"omitted: {n} jobs < {P90_MIN_JOBS}, fewer than 10 samples would lie beyond it"
    if mc_estimates:
        metrics["mc_estimates_per_s"] = (mc_estimates / wall, "1/s")
    else:
        notes["mc_estimates_per_s"] = "omitted: no MC in this workload"
    metrics["error_rate"] = (errors / n, "ratio")
    metrics["check_fail_rate"] = (checks["failed_jobs"] / n, "ratio")
    notes["check_fail_rate"] = (
        f"{checks['known_defect_jobs']} of {n} jobs fail only a known-defect check" if checks["known_defect_jobs"]
        else f"{checks['failed_jobs']} of {n} jobs"
    )
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    rejected = jobs[-1].rejected if workload == "cf-scan" else None
    return {
        "correct": errors == 0 and checks["gating_jobs"] == 0 and reproducible,
        "attempted": n,
        "failed": errors,
        "metrics": metrics,
        "notes": notes,
        "detail": {
            "wall_s": wall,
            "passes": passes_run,
            "job_list_exhausted": exhausted,
            "setup_samples_s": setup_samples,
            "latencies_ms": [x * 1e3 for x in latencies],
            "warmup_reproducible_across_processes": reproducible,
            "cf_points_rejected_no_interior_max": rejected,
            "checks": checks,
        },
    }


def _traced_loop(cli, jobs):
    from tracer import Tracer

    tracer = Tracer()
    outputs = []
    start = time.perf_counter()
    with tracer:
        for i, job in enumerate(jobs):
            tracer.job_id = i
            outputs.append(run_job(cli, job.argvs)[1])
    return time.perf_counter() - start, outputs, tracer


def _count_signature(summary: dict) -> dict:
    return {
        "functions": {name: f["calls"] for name, f in summary["functions"].items()},
        "counts": summary["counts"],
        "cf_entries_in_optimizers": summary["cf_entries_in_optimizers"],
    }


def _speedup_workers2() -> tuple[float, dict]:
    from ariswpc import SystemConfig, mc_ergodic_rate

    cfg = SystemConfig()
    times, estimates = [], []
    for workers in (1, 2):
        start = time.perf_counter()
        estimates.append(mc_ergodic_rate(cfg, 0.1, n=SPEEDUP_N, seed=1, workers=workers))
        times.append(time.perf_counter() - start)
    return times[0] / times[1], {"n": SPEEDUP_N, "seconds": times, "identical": estimates[0] == estimates[1]}


def run_traced(cli, workload: str, seed: int, refs: dict) -> dict:
    from tracer import LAYER_METRICS, layer_metrics
    from workloads import first_jobs, warmup_job

    run_job(cli, warmup_job(workload, seed).argvs)
    jobs = first_jobs(workload, seed, TRACE_JOBS[workload])

    start = time.perf_counter()
    plain = [run_job(cli, job.argvs)[1] for job in jobs]
    wall_plain = time.perf_counter() - start
    wall_traced, traced, tracer = _traced_loop(cli, jobs)
    summary = tracer.summary()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.npz"
    tracer.save(spans_path)
    del tracer
    _, traced_again, tracer2 = _traced_loop(cli, jobs)
    counts_repeat = _count_signature(summary) == _count_signature(tracer2.summary())
    del tracer2

    speedup, speedup_detail = _speedup_workers2() if workload != "cf-scan" else (0.0, {"skipped": "no MC"})

    checks = _check_all(jobs, plain, refs)
    errors = sum(any(rc != 0 for rc, _ in out) for out in plain)
    identical = plain == traced == traced_again
    layers = summary["layers"]
    missing = [layer for layer in EXPECTED_NONZERO[workload] if layers[layer]["calls"] == 0]
    unexpected = [layer for layer in EXPECTED_ZERO.get(workload, ()) if layers[layer]["calls"] != 0]

    values = layer_metrics(
        summary,
        mc_estimates=sum(job.mc_estimates for job in jobs),
        output_bytes=sum(len(text.encode()) for out in plain for _, text in out),
    )
    values["montecarlo.speedup_workers2"] = speedup
    values["trace.overhead_ratio"] = wall_plain / wall_traced
    values["trace.counts_repeat"] = int(counts_repeat)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    return {
        "correct": (errors == 0 and checks["gating_jobs"] == 0 and identical and counts_repeat
                    and not missing and not unexpected and speedup_detail.get("identical", True)),
        "attempted": len(jobs),
        "failed": errors,
        "metrics": metrics,
        "notes": {
            "trace.overhead_ratio": f"traced jobs_per_s {len(jobs) / wall_traced:.4g} / untraced {len(jobs) / wall_plain:.4g}",
            "montecarlo.speedup_workers2": (
                f"mc_ergodic_rate n=2^20: {speedup_detail['seconds'][0]:.3f} s (1 worker) / "
                f"{speedup_detail['seconds'][1]:.3f} s (2 workers)" if workload != "cf-scan" else "not measured: no MC"
            ),
        },
        "detail": {
            "jobs": len(jobs),
            "wall_untraced_s": wall_plain,
            "wall_traced_s": wall_traced,
            "spans": summary["spans"],
            "spans_file": str(spans_path.relative_to(ROOT)),
            "layers": layers,
            "functions": summary["functions"],
            "counts": summary["counts"],
            "outputs_identical_traced_untraced": identical,
            "layers_missing_calls": missing,
            "layers_unexpected_calls": unexpected,
            "speedup_workers2": speedup_detail,
            "checks": checks,
        },
    }


def report(workload: str, seed: int, trace: int, result: dict, env: dict) -> None:
    kind = "traced, per layer" if trace else "end to end"
    print(f"perfbench {workload} seed={seed} ({kind}); closed loop, 1 client, workers=1")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:42s} {value:14.6g} {unit:6s} {note}")
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"  {name:42s} {'-':>14s} {'':6s} {note}")
    if trace:
        print(f"  {'layer':12s} {'calls':>10s} {'self_ms':>12s}")
        for layer, v in result["detail"]["layers"].items():
            print(f"  {layer:12s} {v['calls']:10d} {v['self_ms']:12.3f}")
    checks = result["detail"]["checks"]
    for item in checks["details"][:5]:
        print(f"  check failed: {item['failures'][0][0]}: {item['failures'][0][1]}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    record = {"workload": workload, "trace": trace, "environment": env, **result}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  result file: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    loadavg = Path("/proc/loadavg").read_text().split()[:3]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("mc-validate", "sweep-pp", "cf-scan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cli = import_program()
    from checks import validate_references

    try:
        refs = json.loads(REF_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perfbench: cannot read {REF_PATH}: {exc}") from None
    validate_references(refs)
    env = environment(args.seed, loadavg)
    if args.trace:
        result = run_traced(cli, args.workload, args.seed, refs)
    else:
        result = run_untraced(cli, args.workload, args.seed, args.seconds, refs)
    report(args.workload, args.seed, args.trace, result, env)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()
                    if k in _reported_metrics(args.trace)},
    }))
    return 0


def _reported_metrics(trace: int) -> set[str]:
    """The metric names BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
