import math

import numpy as np
import pytest

from ariswpc import RisMode, SystemConfig, sample_batch, sample_realization
from ariswpc.channel import CHUNK_SAMPLES, chunk_rngs, chunk_sizes, rayleigh_magnitudes

from helpers import GainBatch, sample_batch_by_hand, sample_gains_by_hand


# scalar and per-element zeta, an empty block, and the 8e-156 of a 5e51 m link
_RAYLEIGH_CASES = [(0.37, 1000), (2.5e-7, (300, 4)), (np.array([1e-3, 0.5, 4.0]), (200, 3)), (1.0, (50, 0)),
                   (8e-156, (64, 2))]


class TestSampling:
    def test_fixed_seed_reproduces_sequence(self, default_cfg):
        draws_a = [sample_realization(default_cfg, np.random.default_rng(7)) for _ in range(1)]
        draws_b = [sample_realization(default_cfg, np.random.default_rng(7)) for _ in range(1)]
        a, b = draws_a[0], draws_b[0]
        assert a.h_p_mag == b.h_p_mag
        assert a.f_mag == b.f_mag
        assert np.array_equal(a.h_mag, b.h_mag)
        assert np.array_equal(a.g_mag, b.g_mag)
        assert np.array_equal(a.phase_err, b.phase_err)

    def test_shapes_and_ranges(self, default_cfg):
        draw = sample_realization(default_cfg, np.random.default_rng(0))
        assert draw.h_mag.shape == (36,)
        assert draw.g_mag.shape == (36,)
        assert draw.h_p_mag >= 0 and draw.f_mag >= 0
        assert np.all(draw.h_mag >= 0) and np.all(draw.g_mag >= 0)
        tau = math.pi * 2.0**-default_cfg.b
        assert np.all(draw.phase_err >= -tau) and np.all(draw.phase_err < tau)

    @pytest.mark.parametrize(("zeta", "size"), _RAYLEIGH_CASES)
    def test_matches_numpy_scaled_rayleigh(self, zeta, size):
        scale = np.sqrt(np.asarray(zeta, dtype=float) / 2.0)
        expected = np.random.default_rng(8).rayleigh(scale=scale, size=size)
        assert np.array_equal(rayleigh_magnitudes(np.random.default_rng(8), zeta, size), expected)

    @pytest.mark.parametrize(("zeta", "size"), _RAYLEIGH_CASES)
    def test_unit_gain_is_the_rayleigh_draw(self, zeta, size):
        """sqrt(2 E) sqrt(zeta/2) of a standard exponential E is numpy's Rayleigh draw, bit for bit.

        The sampler states every magnitude by this identity, so it is checked here against
        Generator.rayleigh itself (numpy 2.4.6), not against the sampler. On a numpy that drew
        Rayleigh otherwise this test would fail, and so would test_matches_numpy_scaled_rayleigh.
        """
        scale = np.sqrt(np.asarray(zeta, dtype=float) / 2.0)
        gain = np.random.default_rng(9).standard_exponential(size=size)
        expected = np.random.default_rng(9).rayleigh(scale=scale, size=size)
        assert np.array_equal(np.sqrt(2.0 * gain) * scale, expected)

    def test_zero_scale_is_identically_zero(self):
        rng = np.random.default_rng(1)
        assert np.all(rayleigh_magnitudes(rng, 0.0, 1000) == 0.0)

    def test_first_moment_unit_scale(self):
        rng = np.random.default_rng(2)
        n = 10**6
        x = rayleigh_magnitudes(rng, 1.0, n)
        se = x.std(ddof=1) / math.sqrt(n)
        assert abs(x.mean() - math.sqrt(math.pi) / 2.0) <= 3 * se

    def test_second_moment_unit_scale(self):
        rng = np.random.default_rng(3)
        n = 10**6
        x2 = rayleigh_magnitudes(rng, 1.0, n) ** 2
        se = x2.std(ddof=1) / math.sqrt(n)
        assert abs(x2.mean() - 1.0) <= 3 * se

    def test_variance_unit_scale(self):
        rng = np.random.default_rng(4)
        n = 10**6
        x = rayleigh_magnitudes(rng, 1.0, n)
        m = x.mean()
        dev2 = (x - m) ** 2
        var = dev2.sum() / (n - 1)
        se_var = math.sqrt((np.mean((dev2 - dev2.mean()) ** 2)) / n)
        assert abs(var - (1.0 - math.pi / 4.0)) <= 3 * se_var

    def test_stream_independence(self):
        cfg = SystemConfig(M=2)
        batch = sample_batch(cfg, np.random.default_rng(5), 10**6)
        streams = np.column_stack(
            [batch.h_p_mag, batch.f_mag, batch.h_mag[:, 0], batch.h_mag[:, 1],
             batch.g_mag[:, 0], batch.g_mag[:, 1]]
        )
        corr = np.corrcoef(streams, rowvar=False)
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.max(np.abs(off_diag)) <= 0.01

    def test_batch_scales_follow_path_loss(self):
        # distinct distances -> distinct per-element second moments
        cfg = SystemConfig(M=2, d_h=(10.0, 40.0), alpha=0.5)
        batch = sample_batch(cfg, np.random.default_rng(6), 200_000)
        m2 = (batch.h_mag**2).mean(axis=0)
        assert m2[0] == pytest.approx(10.0**-3, rel=0.02)
        assert m2[1] == pytest.approx(40.0**-3, rel=0.02)


_ORDER_CONFIGS = [
    pytest.param(SystemConfig(M=0), id="M0"),
    pytest.param(SystemConfig(M=1), id="M1"),
    pytest.param(SystemConfig(), id="M36"),
    pytest.param(SystemConfig(ris_mode=RisMode.PASSIVE, d_h=(3.0, 40.0) * 18), id="passive"),
]
# below one 512-row tile, a ragged last tile, and a full chunk
_ORDER_SIZES = [pytest.param(301, id="under-one-tile"), pytest.param(7232, id="ragged"),
                pytest.param(CHUNK_SAMPLES, id="full-chunk")]


def _streamed(stream) -> GainBatch:
    """A stream's tiles, each of 512 rows but the last, joined back into whole blocks."""
    tiles, n = list(stream.tiles), len(stream.f_mag)
    assert [rows for rows, *_ in tiles] == [slice(start, min(start + 512, n)) for start in range(0, n, 512)]
    assert all(len(block) == rows.stop - rows.start for rows, *blocks in tiles for block in blocks)
    h_gain, g_gain, phase_err = (np.concatenate(blocks) for blocks in zip(*(blocks for _, *blocks in tiles)))
    return GainBatch(stream.h_p_mag, stream.f_mag, h_gain, g_gain, phase_err)


class TestDrawOrder:
    """sample_batch, whole and streamed, against the documented numpy calls, bit for bit: the whole
    batch's magnitudes against numpy's Rayleigh draws, the stream's unit gains against its
    standard exponentials."""

    @pytest.mark.parametrize("n", _ORDER_SIZES)
    @pytest.mark.parametrize("cfg", _ORDER_CONFIGS)
    def test_batch_matches_numpy_calls(self, cfg, n):
        batch = sample_batch(cfg, np.random.default_rng(41), n)
        expected = sample_batch_by_hand(cfg, np.random.default_rng(41), n)
        assert all(np.array_equal(a, b) for a, b in zip(batch, expected, strict=True))

    @pytest.mark.parametrize("n", _ORDER_SIZES)
    @pytest.mark.parametrize("cfg", _ORDER_CONFIGS)
    def test_stream_matches_numpy_calls(self, cfg, n):
        rng, by_hand = np.random.default_rng(42), np.random.default_rng(42)
        batch = _streamed(sample_batch(cfg, rng, n, stream=True))
        expected = sample_gains_by_hand(cfg, by_hand, n)
        assert all(np.array_equal(a, b) for a, b in zip(batch, expected, strict=True))
        assert rng.random() == by_hand.random()  # both consumed the same stream

    @pytest.mark.parametrize("n", [pytest.param(301, id="under-one-tile"), pytest.param(512, id="one-tile")])
    @pytest.mark.parametrize("cfg", _ORDER_CONFIGS)
    def test_one_tile_is_the_whole_block_order(self, cfg, n):
        # up to one tile, |h|, |g| and the phases are each one block, as in the whole-block order
        batch = sample_batch(cfg, np.random.default_rng(43), n)
        expected = sample_batch_by_hand(cfg, np.random.default_rng(43), n, tile_rows=n)
        assert all(np.array_equal(a, b) for a, b in zip(batch, expected, strict=True))

class TestChunking:
    def test_chunk_sizes_cover_n(self):
        assert sum(chunk_sizes(100_000)) == 100_000
        assert chunk_sizes(5) == [5]

    def test_chunk_rngs_deterministic(self):
        a = [rng.standard_normal() for rng, _ in chunk_rngs(3, 50_000)]
        b = [rng.standard_normal() for rng, _ in chunk_rngs(3, 50_000)]
        assert a == b

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            chunk_sizes(0)
        with pytest.raises(ValueError):
            list(chunk_rngs(-1, 10))
