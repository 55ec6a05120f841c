"""Generate the high-sample Monte Carlo references for the MC workloads.

    python3 perfbench/make_references.py

Writes perfbench/references.json: for every mc-validate rotation entry and
alpha, and every sweep-pp rotation entry and P_p point, the mean and
per-sample variance of the rate (1-alpha) log2(1+SINR) and the outage
probability P(rate < r_v). Draws come from the benchmark's own sampler
(oracle.draw_gain), not from the program, with at least 30 times the
job's sample count. Reference streams are rooted at REF_SEED >= 2**40,
disjoint from every job seed (< 2**31) and every workload seed stream.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from oracle import Link, draw_gain, model_params  # noqa: E402
from run import git_state  # noqa: E402

REF_SEED = 2**40 + 2409
REF_PATH = HERE / "references.json"
CHUNK = 16384
MC_REF_N = 30 * W.MC_N              # 3.0e6
SWEEP_REF_N = 32 * W.SWEEP_N        # 2**20


class _Acc:
    """Running count, mean, M2 (chunk merge) and outage count for one output."""

    def __init__(self):
        self.n, self.mean, self.m2, self.out = 0, 0.0, 0.0, 0

    def add(self, rate: np.ndarray, r_v: float):
        nb, mb = rate.size, float(rate.mean())
        m2b = float(((rate - mb) ** 2).sum())
        total = self.n + nb
        delta = mb - self.mean
        self.mean += delta * nb / total
        self.m2 += m2b + delta**2 * self.n * nb / total
        self.n = total
        self.out += int(np.count_nonzero(rate < r_v))

    def result(self) -> dict:
        return {
            "ergodic_mean": self.mean,
            "ergodic_var": self.m2 / (self.n - 1),
            "outage_p": self.out / self.n,
            "outage_count": self.out,
        }


def _reference(link: Link, points: list[tuple[float, float]], n: int, stream: tuple[int, ...]) -> list[dict]:
    """Estimates at (alpha, P_p in mW) points, all from one shared draw."""
    accs = [_Acc() for _ in points]
    for i, start in enumerate(range(0, n, CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((*stream, i)))
        gain = draw_gain(link, rng, min(CHUNK, n - start))
        for acc, (alpha, p_p) in zip(accs, points):
            nu1 = link.eta * alpha * p_p / (1.0 - alpha)
            acc.add((1.0 - alpha) * np.log2(1.0 + nu1 * gain), link.r_v)
    return [acc.result() for acc in accs]


def main() -> int:
    commit, dirty = git_state(ROOT)
    refs = {
        "generator": "perfbench/make_references.py (own sampler, oracle.draw_gain)",
        "commit": commit,
        "src_dirty": dirty,
        "seed_root": REF_SEED,
        "mc-validate": {},
        "sweep-pp": {},
    }
    for k, (entry, sets) in enumerate(W.MC_ROTATION.items()):
        cfg = W.config_from_sets(sets)
        link = Link.from_config(cfg)
        stream = (REF_SEED, 1, k)
        values = _reference(link, [(a, link.p_p) for a in W.MC_ALPHAS], MC_REF_N, stream)
        refs["mc-validate"][entry] = {
            "sets": list(sets),
            "params": model_params(cfg),
            "n": MC_REF_N,
            "seed": list(stream),
            "alphas": {repr(a): v for a, v in zip(W.MC_ALPHAS, values)},
        }
        print(f"mc-validate {entry}: done", file=sys.stderr)
    for k, (entry, sets) in enumerate(W.SWEEP_ROTATION.items()):
        cfg = W.config_from_sets(sets)
        link = Link.from_config(cfg)
        stream = (REF_SEED, 2, k)
        points = [(cfg.alpha, 10.0 ** (pp / 10.0)) for pp in W.SWEEP_VALUES]
        values = _reference(link, points, SWEEP_REF_N, stream)
        refs["sweep-pp"][entry] = {
            "sets": list(sets),
            "params": model_params(cfg),
            "alpha": cfg.alpha,
            "n": SWEEP_REF_N,
            "seed": list(stream),
            "points": {str(pp): v for pp, v in zip(W.SWEEP_VALUES, values)},
        }
        print(f"sweep-pp {entry}: done", file=sys.stderr)
    REF_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REF_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
