"""Block-Rayleigh channel sampling.

Every link magnitude is the modulus of a zero-mean circularly-symmetric
complex Gaussian whose variance equals the link's path-loss coefficient
zeta, i.e. Rayleigh with scale sqrt(zeta/2). Phase-alignment residuals of
the RIS elements are uniform on [-pi*2^-b, pi*2^-b).

Sampling uses numpy's seedable PCG64 generator. For one generator, the
draw order is fixed, and sample_batch is the one place that states it: hub
magnitudes, direct magnitudes, then, tile by tile of TILE_SAMPLES rows (the
last one ragged), the tile's device->RIS block, its RIS->receiver block and
its phase-residual block, each block in C order. So a fixed seed reproduces
the identical realization sequence on any platform, and a consumer that
reads the tiles as they are drawn (see ChannelStream) holds one tile of the
(n, M) draws at a time.

Every magnitude is sqrt(2 E) * sqrt(zeta/2) of one standard exponential E,
which is numpy's Rayleigh draw with scale sqrt(zeta/2), bit for bit (checked
by tests/test_channel.py). The RIS blocks are drawn as those E, the unit
power gains |h|^2/zeta_h and |g|^2/zeta_g. The streamed tiles carry the
gains, which the SINR kernel weighs per element; the whole-array
ChannelBatch carries the magnitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .config import SystemConfig

__all__ = [
    "CHUNK_SAMPLES",
    "TILE_SAMPLES",
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

#: Rows per tile of a batch's (n, M) draws, part of the draw order like
#: CHUNK_SAMPLES. A (512, M) float64 tile is 147 KB at M=36, so the SINR
#: kernel's working set stays in a core's L2 cache.
TILE_SAMPLES = 512


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
    """A batch whose (n, M) draws arrive in row tiles, each drawn as it is read.

    Each tile is (rows, h_gain, g_gain, phase_err): a slice of at most
    TILE_SAMPLES rows and that slice's (rows, M) blocks, the unit power gains
    |h|^2/zeta_h and |g|^2/zeta_g (standard exponentials) and the phase
    residuals. A consumer may overwrite a tile: nothing else holds it.
    """

    h_p_mag: np.ndarray                                                 # (n,)
    f_mag: np.ndarray                                                   # (n,)
    tiles: Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]   # read once, in order


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


def _magnitudes(gain: np.ndarray, zeta) -> np.ndarray:
    """|h| = sqrt(2 gain) * sqrt(zeta/2) of a unit power gain |h|^2/zeta."""
    m = np.multiply(gain, 2.0)
    np.sqrt(m, out=m)
    m *= np.sqrt(np.asarray(zeta, dtype=float) / 2.0)
    return m


def rayleigh_magnitudes(rng: np.random.Generator, zeta, size) -> np.ndarray:
    """Draw |h| with E{|h|^2} = zeta (zeta may broadcast over the last axis).

    Bit-identical to rng.rayleigh(scale=sqrt(zeta/2), size=size).
    """
    return _magnitudes(rng.standard_exponential(size=size), zeta)


def _tiles(cfg: SystemConfig, rng: np.random.Generator, n: int):
    """(rows, |h|^2/zeta_h, |g|^2/zeta_g, phase residuals) for each tile of n rows, drawn as it is read.

    No local names a tile, so none is alive here while the next is drawn.
    """
    tau = math.pi * 2.0 ** (-cfg.b)
    for start in range(0, n, TILE_SAMPLES):
        shape = (min(TILE_SAMPLES, n - start), cfg.M)
        yield (
            slice(start, start + shape[0]),
            rng.standard_exponential(size=shape),
            rng.standard_exponential(size=shape),
            rng.uniform(-tau, tau, size=shape),
        )


def sample_batch(
    cfg: SystemConfig, rng: np.random.Generator, n: int, stream: bool = False
) -> ChannelBatch | ChannelStream:
    """Draw n independent joint realizations.

    With stream=True the result is a ChannelStream, whose (n, M) blocks are
    drawn tile by tile as they are read, so none is ever held whole, and
    whose RIS tiles are unit power gains; otherwise it is a ChannelBatch of
    the same tiles joined into whole arrays, the gains turned into magnitudes.
    """
    h_p_mag = rayleigh_magnitudes(rng, cfg.zeta_p, n)
    f_mag = rayleigh_magnitudes(rng, cfg.zeta_f, n)
    tiles = _tiles(cfg, rng, n)
    if stream:
        return ChannelStream(h_p_mag, f_mag, tiles)
    h_mag, g_mag, phase_err = (np.empty((n, cfg.M)) for _ in range(3))
    for rows, h_gain, g_gain, phase in tiles:
        h_mag[rows] = _magnitudes(h_gain, cfg.zeta_h)
        g_mag[rows] = _magnitudes(g_gain, cfg.zeta_g)
        phase_err[rows] = phase
    return ChannelBatch(h_p_mag, f_mag, h_mag, g_mag, phase_err)


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

