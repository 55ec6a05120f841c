"""Seeded job generation for the three benchmark workloads.

A job is one or more argv lists for ``ariswpc.cli.main``; the program sees
only these. Every job carries a fresh per-job MC seed below 2**31 drawn
from the workload seed, so no two jobs of a run repeat an MC stream.

- mc-validate: ``ariswpc mc`` at the default n over a fixed rotation of
  configurations. One pass runs every rotation entry once, in a seeded
  order, each at an alpha drawn from MC_ALPHAS.
- sweep-pp: a 7-point P_p sweep with closed-form and MC outputs over a
  smaller rotation of base configurations.
- cf-scan: ``figure all``, ``optimize --power-budget P_R`` and ``compare``
  on one random design point per job; no MC runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

WORKLOADS = ("mc-validate", "sweep-pp", "cf-scan")

MC_N = 100_000                      # CLI default mc_samples
MC_ALPHAS = (0.1, 0.419, 0.9)
MC_ROTATION = {
    "defaults": (),
    "M4": ("M=4",),
    "M16": ("M=16",),
    "M64": ("M=64",),
    "b1": ("b=1",),
    "b2": ("b=2",),
    "b8": ("b=8",),
    "passive": ("ris_mode=passive",),
    "far": ("d_f=60", "d_h=40", "d_g=40"),
    "pp0": ("P_p_dbm=0",),
    "pp30": ("P_p_dbm=30",),
}

SWEEP_N = 32_768
SWEEP_VALUES = (0, 5, 10, 15, 20, 25, 30)
SWEEP_OUTPUTS = ("ergodic_cf", "ergodic_mc", "outage_cf", "outage_mc", "effective", "power", "alpha_star")
SWEEP_ROTATION = {
    "defaults": (),
    "passive-a0.419": ("ris_mode=passive", "alpha=0.419"),
    "far-a0.25": ("d_f=60", "d_h=40", "d_g=40", "alpha=0.25"),
    "b2-a0.6": ("b=2", "alpha=0.6"),
}

# Workload tags keep the job streams of the workloads (and of the warm-up
# job) independent for the same seed.
_TAGS = {"mc-validate": 1, "sweep-pp": 2, "cf-scan": 3}
_WARMUP_TAG = 7


@dataclass(frozen=True)
class Job:
    workload: str
    entry: str                      # rotation entry, or "point" for cf-scan
    sets: tuple[str, ...]           # --set KEY=VALUE overrides
    argvs: tuple[tuple[str, ...], ...]
    seed: int = 0                   # per-job MC seed
    alpha: float | None = None      # mc-validate only
    P_R: float | None = None        # cf-scan only
    rejected: int = 0               # cf-scan: design points rejected before this one

    @property
    def mc_estimates(self) -> int:
        """Requested n times the number of MC outputs requested."""
        if self.workload == "mc-validate":
            return 2 * MC_N
        if self.workload == "sweep-pp":
            return len(SWEEP_VALUES) * 2 * SWEEP_N
        return 0


def config_from_sets(sets):
    """The SystemConfig the CLI builds from these --set overrides."""
    from ariswpc import SystemConfig

    overrides = {}
    for item in sets:
        key, raw = item.split("=", 1)
        overrides[key] = raw if key == "ris_mode" else int(raw) if key in ("M", "b") else float(raw)
    return SystemConfig(**overrides)


def _set_args(sets) -> list[str]:
    return [arg for s in sets for arg in ("--set", s)]


def mc_job(entry: str, alpha: float, seed: int) -> Job:
    sets = MC_ROTATION[entry]
    argv = ("mc", "--seed", str(seed), "--alpha", repr(alpha), *_set_args(sets))
    return Job("mc-validate", entry, sets, (argv,), seed=seed, alpha=alpha)


def sweep_job(entry: str, seed: int) -> Job:
    sets = SWEEP_ROTATION[entry]
    argv = (
        "sweep", "--variable", "P_p_dbm",
        "--values", ",".join(str(v) for v in SWEEP_VALUES),
        "--samples", str(SWEEP_N),
        "--outputs", ",".join(SWEEP_OUTPUTS),
        "--seed", str(seed), *_set_args(sets),
    )
    return Job("sweep-pp", entry, sets, (argv,), seed=seed)


def _sig9(x: float) -> float:
    """Round to the CLI's 9 significant digits, so CSV and input compare exactly."""
    return float(f"{x:.8e}")


def draw_design_point(rng: np.random.Generator) -> dict:
    return {
        "M": int(rng.choice(np.arange(0, 65, 4))),
        "b": int(rng.integers(1, 9)),
        "P_p_dbm": _sig9(rng.uniform(0.0, 30.0)),
        "r_v": _sig9(rng.uniform(0.5, 4.0)),
        "d_f": _sig9(rng.uniform(20.0, 60.0)),
        "d_h": _sig9(rng.uniform(10.0, 40.0)),
        "d_g": _sig9(rng.uniform(10.0, 40.0)),
        "rho": _sig9(rng.uniform(1.0, 6.0)),
        "ris_mode": "active" if rng.random() < 0.5 else "passive",
        "budget_factor": float(rng.uniform(1.2, 4.0)),
    }


def cf_job(sets: tuple[str, ...], budget_factor: float, floor_mw: float, rejected: int = 0) -> Job:
    P_R = _sig9(floor_mw * budget_factor)
    args = _set_args(sets)
    argvs = (
        ("figure", "all", *args),
        ("optimize", "--power-budget", repr(P_R), *args),
        ("compare", *args),
    )
    return Job("cf-scan", "point", sets, argvs, P_R=P_R, rejected=rejected)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("workload seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence((seed, *tags)))


def warmup_job(workload: str, seed: int) -> Job:
    """The untimed first job: the default configuration, so set-up time
    does not depend on which rotation entry or design point a seed draws."""
    rng = _rng(seed, _TAGS[workload], _WARMUP_TAG)
    if workload == "mc-validate":
        return mc_job("defaults", float(rng.choice(MC_ALPHAS)), int(rng.integers(2**31)))
    if workload == "sweep-pp":
        return sweep_job("defaults", int(rng.integers(2**31)))
    from oracle import Link

    return cf_job((), 2.0, Link.from_config(config_from_sets(())).power_floor())


def job_passes(workload: str, seed: int) -> Iterator[list[Job]]:
    """Endless stream of passes; the same (workload, seed) gives the same stream.

    A pass covers the whole rotation once (mc-validate, sweep-pp), or is a
    single fresh design point (cf-scan). Design points whose effective-rate
    objective has no interior maximum (judged by the benchmark's oracle) are
    skipped; each cf-scan job carries the running count in ``rejected``.
    """
    if workload not in _TAGS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = _rng(seed, _TAGS[workload])
    if workload == "mc-validate":
        names = list(MC_ROTATION)
        while True:
            yield [
                mc_job(names[i], float(rng.choice(MC_ALPHAS)), int(rng.integers(2**31)))
                for i in rng.permutation(len(names))
            ]
    elif workload == "sweep-pp":
        names = list(SWEEP_ROTATION)
        while True:
            yield [sweep_job(names[i], int(rng.integers(2**31))) for i in rng.permutation(len(names))]
    else:
        yield from _cf_passes(rng)


def _cf_passes(rng: np.random.Generator) -> Iterator[list[Job]]:
    from oracle import Link, has_interior_maximum

    rejected = 0
    while True:
        point = draw_design_point(rng)
        sets = tuple(f"{k}={v}" for k, v in point.items() if k != "budget_factor")
        link = Link.from_config(config_from_sets(sets))
        if not has_interior_maximum(link):
            rejected += 1
            continue
        yield [cf_job(sets, point["budget_factor"], link.power_floor(), rejected)]


def first_jobs(workload: str, seed: int, count: int) -> list[Job]:
    """The first `count` jobs of a workload's stream, across passes."""
    jobs: list[Job] = []
    for batch in job_passes(workload, seed):
        jobs.extend(batch)
        if len(jobs) >= count:
            return jobs[:count]
    raise AssertionError("unreachable: job streams are endless")
