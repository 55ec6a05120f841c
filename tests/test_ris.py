import math

import numpy as np
import pytest

from ariswpc import cascade_moment, phase_error_stats
from ariswpc.ris import MAX_PHASE_BITS

from helpers import nearest_phase_enumerated, rayleigh_moment_quad


class TestQuantizePhase:
    """The nearest b-bit phase leaves a residual within tau = pi*2^-b of the target.

    That bound is why the sampler draws the residual uniform on [-tau, tau).
    """

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_error_bound(self, b):
        rng = np.random.default_rng(20 + b)
        tau = math.pi * 2.0**-b
        for theta in rng.uniform(0.0, 2.0 * math.pi, 500):
            q = nearest_phase_enumerated(theta, b)
            delta = (theta - q) % (2.0 * math.pi)
            dist = min(delta, 2.0 * math.pi - delta)
            assert dist <= tau + 1e-12


class TestPhaseErrorStats:
    def test_one_bit(self):
        stats = phase_error_stats(1)
        assert stats.tau == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert stats.e_cos == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_four_bits(self):
        stats = phase_error_stats(4)
        tau = math.pi / 16.0
        assert stats.e_cos == pytest.approx(math.sin(tau) / tau, rel=1e-14)
        assert stats.e_cos == pytest.approx(0.99358, abs=1e-5)

    def test_many_bits_limit(self):
        stats = phase_error_stats(30)
        assert stats.e_cos == pytest.approx(1.0, abs=1e-12)
        assert stats.e_sin2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("b", range(1, 11))
    def test_cos2_sin2_identity(self, b):
        stats = phase_error_stats(b)
        assert abs(stats.e_cos2 + stats.e_sin2 - 1.0) <= 1e-12

    def test_e_cos_monotone_in_bits(self):
        values = [phase_error_stats(b).e_cos for b in range(1, 16)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sampling_cross_check(self):
        stats = phase_error_stats(4)
        rng = np.random.default_rng(31)
        n = 10**6
        c = np.cos(rng.uniform(-stats.tau, stats.tau, n))
        se = c.std(ddof=1) / math.sqrt(n)
        assert abs(c.mean() - stats.e_cos) <= 3 * se

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            phase_error_stats(0)

    def test_rejects_bits_beyond_cap(self):
        # tau = pi*2^-b underflows to 0 near b = 1075; the cap keeps far clear of it
        assert phase_error_stats(MAX_PHASE_BITS).e_cos == 1.0
        with pytest.raises(ValueError, match="b must lie in"):
            phase_error_stats(1100)


class TestCascadeMoment:
    def test_unit_second_moment(self):
        assert cascade_moment(2, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_unit_first_moment(self):
        assert cascade_moment(1, 1.0, 1.0, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_quadrature(self, n):
        rho, zg, zh = 6.0, 1.25e-4, 2.5e-4
        expected = rho**n * rayleigh_moment_quad(zg, n) * rayleigh_moment_quad(zh, n)
        assert cascade_moment(n, rho, zg, zh) == pytest.approx(expected, rel=1e-6)

    def test_against_sampling(self):
        rho, zeta = 6.0, 1.25e-4
        rng = np.random.default_rng(32)
        n = 10**6
        prod = rho * rng.rayleigh(math.sqrt(zeta / 2), n) * rng.rayleigh(math.sqrt(zeta / 2), n)
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - cascade_moment(1, rho, zeta, zeta)) <= 3 * se

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            cascade_moment(0, 1.0, 1.0, 1.0)
