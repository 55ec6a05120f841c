"""Monte Carlo oracle: direct simulation of the instantaneous SINR.

Estimators stream over fixed-width chunks (see channel.CHUNK_SAMPLES), all
on a thread pool (_run_chunks, the one chunk loop); chunk i draws from
SeedSequence((seed, i)) and per-chunk accumulators are merged in index
order, so a given (cfg, alpha, n, seed) always produces the bit-identical
estimate, with any number of workers. n=None means cfg.mc_samples and
workers=None one thread per usable CPU within a memory budget
(_default_workers). The SINR kernel (_row_sums) reduces a chunk tile by
tile as the sampler draws it: the tiles hold the RIS links' unit power
gains, and each per-draw sum is a row dot against a per-element weight
vector that carries the config's scales. It takes the phase residuals' cos
and sin in float32 and everything else in float64; see its docstring.

mc_rate_and_outage is the one rate/outage engine: it samples each chunk
once for both estimates and for every requested point of one config, each
point at its own alpha and hub power. mc_ergodic_rate and mc_outage are
one-point calls of it; cli._evaluate groups a command's points into runs on
one config, one engine call per run.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import CHUNK_SAMPLES, TILE_SAMPLES, ChannelStream, chunk_rngs, sample_batch
from .config import ConfigValidationError, SystemConfig, harvested_power_coefficient

__all__ = [
    "Estimate",
    "RateOutage",
    "mc_rate_and_outage",
    "mc_ergodic_rate",
    "mc_outage",
    "mc_moments_x",
]


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error and provenance."""

    value: float
    stderr: float
    n: int
    seed: int


def _row_sums(cfg: SystemConfig, stream: ChannelStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-draw sums over the RIS elements, one tile of the stream at a time.

    Returns the in-phase amplitude X = |f| + sum rho|g||h| cos(phase error),
    the quadrature sum sum rho|g||h| sin(phase error) and sum rho^2 |g|^2.
    The stream's tiles hold the unit gains |h|^2/zeta_h and |g|^2/zeta_g, so
    each sum is a row dot of a tile against one per-element weight vector,
    taken once per call: sum rho^2|g|^2 weighs the |g|^2/zeta_g tile by
    rho^2 zeta_g, and the cascade sums weigh sqrt(|h|^2/zeta_h |g|^2/zeta_g)
    cos or sin(phase error) by rho sqrt(zeta_g) sqrt(zeta_h) (two roots:
    zeta_g zeta_h goes subnormal at far distances). Each tile turns its |h|
    tile into that square root in place and its phase tile into the products,
    overwriting the tile.

    The row dots are np.einsum's, which sums each row in its own loop, the
    same bits for a row of a tile or of a whole array; a matrix product would
    go to BLAS, whose threads and blocking change the bits. The cosines and
    sines are taken in float32, of each phase residual rounded to float32,
    where numpy runs them on SIMD loops (about 9x faster than float64's on an
    AVX-512 x86-64 CPU with numpy 2.4). Each is within 2^-21 of its float64
    value (rounding the residual, |phase| <= pi, moves it by at most pi 2^-24,
    and the float32 function adds a few 2^-24), so each sum is within 2^-21
    sum rho|g||h| of the float64-trig sum. Products and sums stay float64.
    """
    rho = cfg.rho_effective
    w_gain = np.full(cfg.M, rho**2 * cfg.zeta_g)
    w_cascade = np.full(cfg.M, rho * np.sqrt(cfg.zeta_g) * np.sqrt(cfg.zeta_h))
    n = len(stream.f_mag)
    in_phase, quadrature, gain2 = np.empty(n), np.empty(n), np.empty(n)
    # the work tile holds the float32 residuals and their cos or sin; each
    # float64 product goes to the phase tile
    work = np.empty((min(n, TILE_SAMPLES), cfg.M))
    angles, trig_values = work.view(np.float32).reshape(2, *work.shape)
    for rows, root, g, phase in stream.tiles:
        np.einsum("ij,j->i", g, w_gain, out=gain2[rows])
        root *= g
        np.sqrt(root, out=root)
        angle, trig = angles[: len(phase)], trig_values[: len(phase)]
        np.copyto(angle, phase, casting="same_kind")
        np.cos(angle, out=trig)
        np.multiply(trig, root, out=phase)
        np.einsum("ij,j->i", phase, w_cascade, out=in_phase[rows])
        in_phase[rows] += stream.f_mag[rows]
        np.sin(angle, out=trig)
        np.multiply(trig, root, out=phase)
        np.einsum("ij,j->i", phase, w_cascade, out=quadrature[rows])
        del root, g, phase  # free this tile before the sampler draws the next
    return in_phase, quadrature, gain2


def _gain_terms(cfg: SystemConfig, stream: ChannelStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alpha-free SINR factors of a stream: (|h_p|^2, |received amplitude|^2, noise).

    The SINR is nu1 * hp2 * amp / denom. Returning only these three vectors
    lets the chunk's other (n,) vectors be freed before the SINR is reduced.
    """
    re, im, gain2 = _row_sums(cfg, stream)
    denom = cfg.sigma_v2_mw * gain2 + cfg.sigma_n2_mw
    return stream.h_p_mag**2, re**2 + im**2, denom


# Thread pools by thread count, created on first use and kept for the life of
# the process. A pool per call would start new threads each time; glibc gives
# a thread that starts while another is still exiting a new malloc arena, and
# each arena keeps the pages of the chunk draws it served, so peak memory
# grew by a chunk's draws (5 MB at M=36) every few hundred calls.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _forget_pools() -> None:
    """After fork: the child has none of the pools' threads, so it starts its own."""
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def _pool(threads: int) -> ThreadPoolExecutor:
    # A pool starts a thread only when no idle one can take the task, so a
    # run with fewer chunks than threads starts no more threads than chunks.
    with _POOLS_LOCK:
        if threads not in _POOLS:
            _POOLS[threads] = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="ariswpc-mc")
        return _POOLS[threads]


def _run_chunks(chunk_fn, cfg: SystemConfig, seed: int, n: int, workers: int | None) -> list:
    """Evaluate chunk_fn(rng, size) per chunk of channel.chunk_rngs(seed, n) on _pool(workers).

    workers=None means _default_workers(cfg.M). Results come in chunk order.
    Every chunk, one chunk or one worker too, runs on the pool's threads, at
    most `workers` (>= 1) at a time: the sampler and the kernel spend their
    time in numpy calls that release the GIL.
    """
    pool = _pool(_default_workers(cfg.M) if workers is None else workers)
    futures = [pool.submit(chunk_fn, rng, m) for rng, m in chunk_rngs(seed, n)]
    return [f.result() for f in futures]


#: Bytes of chunk draws and sums that _default_workers lets be alive at once.
_INFLIGHT_BYTES = 128 * 2**20


def _chunk_bytes(m: int) -> int:
    """Most bytes one chunk holds at once for M elements: four (TILE_SAMPLES, M)
    float64 tiles (the |h|^2/zeta_h, |g|^2/zeta_g and phase tile being reduced
    and the kernel's work tile of float32 residuals and their cos or sin) and
    eleven (CHUNK_SAMPLES,) float64 vectors, one more than it holds as
    _gain_terms returns. 2.0 MB at M=36 and 18 MB at M=1024."""
    return (4 * TILE_SAMPLES * m + 11 * CHUNK_SAMPLES) * 8


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _default_workers(m: int) -> int:
    """Chunks to run at once for M elements: one per usable CPU, but no more
    chunks than fit in _INFLIGHT_BYTES, and at least one."""
    return max(1, min(_available_cpus(), _INFLIGHT_BYTES // _chunk_bytes(m)))


def _merge_mean_var(parts: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Combine per-chunk (count, mean, sum of squared deviations)."""
    n, mean, m2 = parts[0]
    for nb, mb, m2b in parts[1:]:
        delta = mb - mean
        total = n + nb
        mean += delta * nb / total
        m2 += m2b + delta**2 * n * nb / total
        n = total
    return n, mean, m2


class RateOutage(NamedTuple):
    """Monte Carlo ergodic rate and outage probability at one (cfg, alpha, P_p_dbm) point."""

    rate: Estimate
    outage: Estimate


def mc_rate_and_outage(
    cfg: SystemConfig,
    alphas: Sequence[float],
    P_p_dbms: Sequence[float],
    n: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> list[RateOutage]:
    """Ergodic-rate and outage estimates at cfg's points (alphas[i], P_p_dbms[i]) in one pass.

    The points share each chunk: it is sampled once, its alpha-free gain
    terms are computed once, and every point then pays one SINR scaling by
    its nu1(alpha, P_p) and one log2. n defaults to cfg.mc_samples and
    workers to _default_workers(cfg.M). Each result is bit-identical to
    mc_ergodic_rate / mc_outage at the same (cfg, alpha, n, seed) with cfg's
    hub power set to P_p_dbm, whatever the worker count. Raises
    ConfigValidationError on P_p_dbm at the first point whose rate estimate
    is not finite (its SINR overflows); its `point` is that point's index.
    """
    nu1s = [harvested_power_coefficient(cfg, alpha, P_p_dbm) for alpha, P_p_dbm in zip(alphas, P_p_dbms, strict=True)]
    n = cfg.mc_samples if n is None else n
    if n < 100:
        raise ValueError("n must be >= 100")

    def one_chunk(rng, m):
        # gains or an SINR that overflow give an inf or nan estimate, rejected
        # below; numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            hp2, amp, denom = _gain_terms(cfg, sample_batch(cfg, rng, m, stream=True))
            out = []
            for alpha, nu1 in zip(alphas, nu1s):
                rate = (1.0 - alpha) * np.log2(1.0 + nu1 * hp2 * amp / denom)
                mean = float(rate.mean())
                m2 = float(((rate - mean) ** 2).sum())
                out.append(((m, mean, m2), int(np.count_nonzero(rate < cfg.r_v))))
        return out

    chunks = _run_chunks(one_chunk, cfg, seed, n, workers) if nu1s else []
    results = []
    for k, alpha in enumerate(alphas):
        total, mean, m2 = _merge_mean_var([chunk[k][0] for chunk in chunks])
        rate = Estimate(value=mean, stderr=math.sqrt(m2 / (total - 1) / total), n=total, seed=seed)
        if not (math.isfinite(rate.value) and math.isfinite(rate.stderr)):
            error = ConfigValidationError(
                "P_p_dbm", f"the Monte Carlo rate (1-alpha) log2(1+SINR) overflows at alpha={alpha}; it must be finite"
            )
            error.point = k  # the points before it passed
            raise error
        p = sum(chunk[k][1] for chunk in chunks) / n
        outage = Estimate(value=p, stderr=math.sqrt(p * (1.0 - p) / n), n=n, seed=seed)
        results.append(RateOutage(rate=rate, outage=outage))
    return results


def mc_ergodic_rate(
    cfg: SystemConfig, alpha: float, n: int | None = None, seed: int = 0, workers: int | None = None
) -> Estimate:
    """Sample mean of (1-alpha) log2(1 + SINR) over n realizations."""
    return mc_rate_and_outage(cfg, (alpha,), (cfg.P_p_dbm,), n, seed, workers)[0].rate


def mc_outage(
    cfg: SystemConfig, alpha: float, n: int | None = None, seed: int = 0, workers: int | None = None
) -> Estimate:
    """Fraction of realizations with (1-alpha) log2(1 + SINR) < r_v."""
    return mc_rate_and_outage(cfg, (alpha,), (cfg.P_p_dbm,), n, seed, workers)[0].outage


def mc_moments_x(
    cfg: SystemConfig, n: int | None = None, seed: int = 0, workers: int | None = None
) -> tuple[Estimate, Estimate]:
    """Empirical (mean, variance) of X = |f| + sum rho|g||h| cos(phase error).

    The variance estimate's standard error uses the asymptotic
    fourth-central-moment formula sqrt((m4 - m2^2)/n).
    """
    n = cfg.mc_samples if n is None else n
    if n < 1000:
        raise ValueError("n must be >= 1000")

    def one_chunk(rng, m):
        x = _row_sums(cfg, sample_batch(cfg, rng, m, stream=True))[0]
        return np.array([float((x**k).sum()) for k in (1, 2, 3, 4)])

    sums = np.sum(_run_chunks(one_chunk, cfg, seed, n, workers), axis=0)
    mean = float(sums[0] / n)
    m2 = float(sums[1] / n - mean**2)
    m4 = float(sums[3] / n - 4 * mean * sums[2] / n + 6 * mean**2 * sums[1] / n - 3 * mean**4)
    var = m2 * n / (n - 1)
    mean_est = Estimate(value=mean, stderr=math.sqrt(var / n), n=n, seed=seed)
    var_est = Estimate(value=var, stderr=math.sqrt(max(m4 - m2**2, 0.0) / n), n=n, seed=seed)
    return mean_est, var_est
