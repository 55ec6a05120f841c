"""Block-Rayleigh channel sampling.

Every link magnitude is the modulus of a zero-mean circularly-symmetric
complex Gaussian whose variance equals the link's path-loss coefficient
zeta, i.e. Rayleigh with scale sqrt(zeta/2). Phase-alignment residuals of
the RIS elements are uniform on [-pi*2^-b, pi*2^-b).

Sampling uses numpy's seedable PCG64 generator. For one generator, the
draw order is fixed, and sample_batch is the one place that states it: hub
magnitudes, direct magnitudes, the device->RIS block, the RIS->receiver
block, the phase-residual block (each block in C order), so a fixed seed
reproduces the identical realization sequence on any platform. The last two
blocks may also be drawn in row tiles (see ChannelStream): the generator
consumes its stream in the same order, so the draws are the same bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .config import SystemConfig

__all__ = [
    "CHUNK_SAMPLES",
    "ChannelDraw",
    "ChannelBatch",
    "ChannelStream",
    "chunk_sizes",
    "chunk_rng",
    "chunk_rngs",
    "rayleigh_magnitudes",
    "sample_realization",
    "sample_batch",
]

#: Fixed Monte Carlo chunk width. Chunk i of a run with root seed s draws
#: from default_rng(SeedSequence((s, i))); estimates are therefore functions
#: of (seed, n) alone, independent of how chunks are scheduled.
CHUNK_SAMPLES = 16384


@dataclass(frozen=True)
class ChannelDraw:
    """One joint realization of all fading magnitudes and phase residuals."""

    h_p_mag: float          # |h_p|, hub -> device (path loss included)
    f_mag: float            # |f|, direct device -> receiver
    h_mag: np.ndarray       # |h_m|, device -> RIS, shape (M,)
    g_mag: np.ndarray       # |g_m|, RIS -> receiver, shape (M,)
    phase_err: np.ndarray   # quantization residuals, shape (M,), radians


class ChannelBatch(NamedTuple):
    """Vectorized realizations with a leading sample axis."""

    h_p_mag: np.ndarray     # (n,)
    f_mag: np.ndarray       # (n,)
    h_mag: np.ndarray       # (n, M)
    g_mag: np.ndarray       # (n, M)
    phase_err: np.ndarray   # (n, M)


class ChannelStream(NamedTuple):
    """A batch whose |g| and phase residuals arrive in row tiles, drawn as they are read.

    Each tile is a (rows, array) pair: a slice of the sample axis and that
    slice's (rows, M) block. All of g_tiles must be read before phase_tiles,
    because that is the order in which the generator produces them; reading
    a phase tile earlier raises RuntimeError. A consumer may overwrite the
    tiles and h_mag: nothing else holds them.
    """

    h_p_mag: np.ndarray                               # (n,)
    f_mag: np.ndarray                                 # (n,)
    h_mag: np.ndarray                                 # (n, M)
    g_tiles: Iterable[tuple[slice, np.ndarray]]       # |g|, tile by tile
    phase_tiles: Iterable[tuple[slice, np.ndarray]]   # phase residuals, tile by tile


def chunk_sizes(n: int) -> list[int]:
    """Split n samples into the fixed chunk widths (last one ragged)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return [min(CHUNK_SAMPLES, n - start) for start in range(0, n, CHUNK_SAMPLES)]


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of a run rooted at `seed`."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def chunk_rngs(seed: int, n: int):
    """Yield (generator, chunk_size) pairs covering n samples in order."""
    for i, size in enumerate(chunk_sizes(n)):
        yield chunk_rng(seed, i), size


def rayleigh_magnitudes(rng: np.random.Generator, zeta, size) -> np.ndarray:
    """Draw |h| with E{|h|^2} = zeta (zeta may broadcast over the last axis).

    A unit Rayleigh draw scaled in place by sqrt(zeta/2) is bit-identical to
    rng.rayleigh(scale=sqrt(zeta/2), size=size) and skips numpy's per-element
    broadcast of the scale.
    """
    magnitudes = rng.rayleigh(size=size)
    magnitudes *= np.sqrt(np.asarray(zeta, dtype=float) / 2.0)
    return magnitudes


def _row_tiles(draw, n: int, m: int, tile_rows: int) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, draw((len(rows), m))) for consecutive tiles of tile_rows rows, the last ragged."""
    for start in range(0, n, tile_rows):
        size = min(tile_rows, n - start)
        yield slice(start, start + size), draw((size, m))


def _after(first: Iterator, then: Iterator) -> Iterator:
    """Yield from `then` once `first` is exhausted; raise if it is not."""
    if next(first, None) is not None:
        raise RuntimeError("read every g tile before the first phase tile")
    yield from then


def sample_batch(
    cfg: SystemConfig, rng: np.random.Generator, n: int, tile_rows: int | None = None
) -> ChannelBatch | ChannelStream:
    """Draw n independent joint realizations.

    Without tile_rows the result is a ChannelBatch of whole arrays. With it,
    only |h_p|, |f| and |h| are drawn here; the result is a ChannelStream that
    draws |g| and then the phase residuals tile_rows rows at a time as they
    are read, so no (n, M) block of them is ever held. Both give the same draws.
    """
    tau = math.pi * 2.0 ** (-cfg.b)
    h_p_mag = rayleigh_magnitudes(rng, cfg.zeta_p, n)
    f_mag = rayleigh_magnitudes(rng, cfg.zeta_f, n)
    h_mag = rayleigh_magnitudes(rng, cfg.zeta_h, (n, cfg.M))

    def gains(size):
        return rayleigh_magnitudes(rng, cfg.zeta_g, size)

    def phases(size):
        return rng.uniform(-tau, tau, size=size)

    if tile_rows is None:
        return ChannelBatch(h_p_mag, f_mag, h_mag, gains((n, cfg.M)), phases((n, cfg.M)))
    g_tiles = _row_tiles(gains, n, cfg.M, tile_rows)
    phase_tiles = _after(g_tiles, _row_tiles(phases, n, cfg.M, tile_rows))
    return ChannelStream(h_p_mag, f_mag, h_mag, g_tiles, phase_tiles)


def sample_realization(cfg: SystemConfig, rng: np.random.Generator) -> ChannelDraw:
    """Draw a single joint realization."""
    batch = sample_batch(cfg, rng, 1)
    return ChannelDraw(
        h_p_mag=float(batch.h_p_mag[0]),
        f_mag=float(batch.f_mag[0]),
        h_mag=batch.h_mag[0],
        g_mag=batch.g_mag[0],
        phase_err=batch.phase_err[0],
    )

