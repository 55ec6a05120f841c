import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ariswpc import (
    ConfigValidationError,
    RisMode,
    SystemConfig,
    gamma_fit,
    harvested_power_coefficient,
    mc_ergodic_rate,
    mc_moments_x,
    mc_outage,
    mc_rate_and_outage,
    montecarlo,
    replace_config,
)
from ariswpc.channel import CHUNK_SAMPLES, TILE_SAMPLES, chunk_rngs, sample_batch
from ariswpc.montecarlo import _chunk_bytes, _default_workers, _row_sums, _run_chunks

from helpers import (
    GainBatch,
    in_phase_amplitude,
    mc_moments_x_loop,
    mc_rate_outage_loop,
    mc_rate_outage_reference,
    quadrature_sum,
    sample_batch_by_hand,
    sinr_full_width,
)


def _one_row(cfg, h_p=1.0, f=1.0, h=1.0, g=1.0, phase=0.0) -> GainBatch:
    """One draw of cfg's elements with the given magnitudes, as the unit gains the kernel reads."""
    return GainBatch(
        h_p_mag=np.array([float(h_p)]),
        f_mag=np.array([float(f)]),
        h_gain=np.full((1, cfg.M), float(h)) ** 2 / cfg.zeta_h,
        g_gain=np.full((1, cfg.M), float(g)) ** 2 / cfg.zeta_g,
        phase_err=np.full((1, cfg.M), float(phase)),
    )


class TestSimulateSinr:
    """Known SINRs of single draws under the full-width formula of tests/helpers.py.

    test_rate_and_outage_match_plain_loop pins the library's tiled kernel to
    that formula bit for bit.
    """

    def test_zero_magnitudes(self, default_cfg):
        nu1 = harvested_power_coefficient(default_cfg, 0.419)
        assert sinr_full_width(default_cfg, _one_row(default_cfg, h_p=0, f=0, h=0, g=0), nu1)[0] == 0.0

    def test_direct_link_only(self):
        cfg = SystemConfig(M=0)
        nu1 = harvested_power_coefficient(cfg, 0.419)
        expected = nu1 * 0.3**2 * 0.7**2 / cfg.sigma_n2_mw
        sinr = sinr_full_width(cfg, _one_row(cfg, h_p=0.3, f=0.7), nu1)[0]
        assert sinr == pytest.approx(expected, rel=1e-12)

    def test_ideal_passive_coherent_combining(self):
        # perfect alignment, unit gain, no amplifier noise
        cfg = SystemConfig(M=4, ris_mode=RisMode.PASSIVE)
        batch = _one_row(cfg, h_p=0.5, f=0.2, h=0.3, g=0.4, phase=0.0)
        nu1 = harvested_power_coefficient(cfg, 0.419)
        expected = nu1 * 0.5**2 * (0.2 + 4 * 0.3 * 0.4) ** 2 / cfg.sigma_n2_mw
        assert sinr_full_width(cfg, batch, nu1)[0] == pytest.approx(expected, rel=1e-12)


class TestMcErgodicRate:
    def test_no_power_limit(self, default_cfg):
        cfg = replace_config(default_cfg, P_p_dbm=-200.0)
        assert mc_ergodic_rate(cfg, 0.419, n=1000, seed=0).value <= 1e-6

    def test_deterministic_under_seed(self, default_cfg):
        a = mc_ergodic_rate(default_cfg, 0.419, n=5000, seed=9)
        b = mc_ergodic_rate(default_cfg, 0.419, n=5000, seed=9)
        assert a == b

    def test_seed_changes_estimate(self, default_cfg):
        a = mc_ergodic_rate(default_cfg, 0.419, n=5000, seed=9)
        b = mc_ergodic_rate(default_cfg, 0.419, n=5000, seed=10)
        assert a.value != b.value

    def test_nonnegative_and_finite(self, default_cfg):
        est = mc_ergodic_rate(default_cfg, 0.419, n=2000, seed=1)
        assert est.value >= 0 and math.isfinite(est.value)
        assert est.stderr >= 0 and est.n == 2000

    def test_workers_do_not_change_result(self, default_cfg):
        solo = mc_ergodic_rate(default_cfg, 0.419, n=60_000, seed=11, workers=1)
        quad = mc_ergodic_rate(default_cfg, 0.419, n=60_000, seed=11, workers=4)
        assert solo == quad

    def test_stderr_scales_with_sqrt_n(self, default_cfg):
        small = mc_ergodic_rate(default_cfg, 0.419, n=10_000, seed=12)
        large = mc_ergodic_rate(default_cfg, 0.419, n=40_000, seed=12)
        ratio = small.stderr / large.stderr
        assert 1.6 <= ratio <= 2.4

    def test_rejects_tiny_n(self, default_cfg):
        with pytest.raises(ValueError):
            mc_ergodic_rate(default_cfg, 0.419, n=10)


class TestMcOutage:
    def test_zero_target_rate(self, default_cfg):
        cfg = replace_config(default_cfg, r_v=0.0)
        assert mc_outage(cfg, 0.419, n=2000, seed=0).value == 0.0

    def test_overwhelming_noise(self, default_cfg):
        cfg = replace_config(default_cfg, sigma_n2_dbm=60.0, sigma_v2_dbm=60.0)
        assert mc_outage(cfg, 0.419, n=2000, seed=0).value == 1.0

    def test_within_unit_interval(self, default_cfg):
        est = mc_outage(default_cfg, 0.419, n=5000, seed=3)
        assert 0.0 <= est.value <= 1.0

    def test_deterministic_and_worker_invariant(self, default_cfg):
        a = mc_outage(default_cfg, 0.419, n=60_000, seed=4, workers=1)
        b = mc_outage(default_cfg, 0.419, n=60_000, seed=4, workers=3)
        assert a == b

    def test_matches_closed_form_m16(self, default_cfg):
        from ariswpc import outage_probability

        cfg = replace_config(default_cfg, M=16)
        est = mc_outage(cfg, 0.419, n=10**5, seed=5)
        assert abs(est.value - outage_probability(cfg, 0.419)) <= 0.03


def _engine_runs(cfg):
    """(config, alphas, P_p_dbms): three points on cfg (alpha and P_p vary), then one on each of three other configs."""
    return [
        (cfg, (0.419, 0.419, 0.1), (cfg.P_p_dbm, 5.0, cfg.P_p_dbm)),
        (replace_config(cfg, P_R_mw=50.0, r_v=1.0), (0.6,), (cfg.P_p_dbm,)),
        (replace_config(cfg, M=8), (0.419,), (cfg.P_p_dbm,)),
        (replace_config(cfg, ris_mode=RisMode.PASSIVE), (0.419,), (cfg.P_p_dbm,)),
    ]


def _put_rate(queue, cfg):
    queue.put(mc_ergodic_rate(cfg, 0.419, n=40_000, seed=28, workers=2))


class TestMcRateAndOutage:
    def test_each_point_equals_single_point_estimators(self, default_cfg):
        for cfg, alphas, hub_powers in _engine_runs(default_cfg):
            results = mc_rate_and_outage(cfg, alphas, hub_powers, n=40_000, seed=21)
            assert len(results) == len(alphas)
            for alpha, P_p_dbm, (rate, outage) in zip(alphas, hub_powers, results):
                point = replace_config(cfg, P_p_dbm=P_p_dbm)
                assert rate == mc_ergodic_rate(point, alpha, n=40_000, seed=21)
                assert outage == mc_outage(point, alpha, n=40_000, seed=21)

    def test_matches_plain_chunk_loop(self, default_cfg):
        for cfg, alphas, hub_powers in _engine_runs(default_cfg):
            results = mc_rate_and_outage(cfg, alphas, hub_powers, n=40_000, seed=26)
            for alpha, P_p_dbm, (rate, outage) in zip(alphas, hub_powers, results):
                point = replace_config(cfg, P_p_dbm=P_p_dbm)
                assert (rate.value, rate.stderr, outage.value) == mc_rate_outage_loop(point, alpha, 40_000, 26)

    def test_workers_do_not_change_result(self, default_cfg):
        for run in _engine_runs(default_cfg):
            solo = mc_rate_and_outage(*run, n=60_000, seed=22, workers=1)
            trio = mc_rate_and_outage(*run, n=60_000, seed=22, workers=3)
            assert solo == trio

    def test_at_most_workers_chunks_in_flight(self):
        lock = threading.Lock()
        in_flight, peak = [0], [0]

        def chunk(rng, m):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            time.sleep(0.01)
            with lock:
                in_flight[0] -= 1
            return m

        assert _run_chunks(chunk, SystemConfig(), 0, 8 * CHUNK_SAMPLES + 5, 3) == [CHUNK_SAMPLES] * 8 + [5]
        assert 1 < peak[0] <= 3

    # a chunk holds 4 TILE_SAMPLES M + 11 CHUNK_SAMPLES float64s: 128 MiB holds 93 at M=0, 66 at M=36,
    # 53 at M=64, 7 at M=1024 and 1 at M=4096
    @pytest.mark.parametrize(
        "cpus, m, expected",
        [(16, 0, 16), (128, 0, 93), (16, 36, 16), (128, 36, 66), (128, 64, 53), (16, 1024, 7), (16, 4096, 1),
         (2, 36, 2), (1, 4, 1)],
    )
    def test_default_workers_fit_cpus_and_memory_budget(self, monkeypatch, cpus, m, expected):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: cpus)
        assert _default_workers(m) == expected

    def test_concurrent_callers_get_serial_results(self, default_cfg):
        # more worker threads than cores, shared thread pools, frequent GIL switches
        run = (default_cfg, (0.419, 0.419), (default_cfg.P_p_dbm, 5.0))
        expected = mc_rate_and_outage(*run, n=40_000, seed=27, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                futures = [callers.submit(mc_rate_and_outage, *run, 40_000, 27, w) for w in (2, 3, 4) * 2]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 6

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_its_own_workers(self, default_cfg):
        expected = mc_ergodic_rate(default_cfg, 0.419, n=40_000, seed=28, workers=2)  # parent's pool exists
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_put_rate, args=(queue, default_cfg))
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
            child.join()
        assert not alive
        assert queue.get(timeout=10) == expected

    def test_samples_each_chunk_once_for_all_points(self, default_cfg, sample_batch_sizes):
        cfg, alphas, hub_powers = _engine_runs(default_cfg)[0]
        mc_rate_and_outage(cfg, alphas, hub_powers, n=40_000, seed=23)
        # the config's three points share each of the 3 chunks of 40000 samples; no points sample nothing
        assert mc_rate_and_outage(cfg, (), (), n=40_000, seed=23) == []
        assert sample_batch_sizes == [16384, 16384, 7232]

    @pytest.mark.parametrize("m", [0, 36, 64, 1024])
    def test_chunk_fits_its_footprint(self, m):
        # no (CHUNK_SAMPLES, M) block: a chunk holds four (TILE_SAMPLES, M) tiles and its (n,) vectors,
        # within the footprint _default_workers budgets for it
        cfg = SystemConfig(M=m)
        run = (cfg, (0.419, 0.6), (cfg.P_p_dbm, 5.0))
        mc_rate_and_outage(*run, n=1000, seed=24, workers=1)  # warm: nothing cached is counted below
        for estimate in (lambda: mc_rate_and_outage(*run, n=CHUNK_SAMPLES, seed=24, workers=1),
                         lambda: mc_moments_x(cfg, n=CHUNK_SAMPLES, seed=24, workers=1)):
            tracemalloc.start()
            try:
                estimate()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _chunk_bytes(m)

    def test_rejects_tiny_n(self, default_cfg):
        with pytest.raises(ValueError, match="n must be >= 100"):
            mc_rate_and_outage(default_cfg, (0.419,), (20.0,), n=10)

    def test_rejects_bad_alpha(self, default_cfg):
        with pytest.raises(ValueError, match="alpha"):
            mc_rate_and_outage(default_cfg, (0.419, 1.0), (20.0, 20.0), n=1000)

    def test_rejects_unpaired_alphas_and_hub_powers(self, default_cfg):
        with pytest.raises(ValueError, match="zip"):
            mc_rate_and_outage(default_cfg, (0.419, 0.5), (20.0,), n=1000)

    def test_rejects_overflowing_rate(self, default_cfg):
        # nu1 and the mean SINR are finite at 3070 dBm and alpha = 0.5, but some sampled SINR is not
        huge = replace_config(default_cfg, P_p_dbm=3070.0)
        with pytest.raises(ConfigValidationError, match=r"^P_p_dbm: the Monte Carlo rate .* at alpha=0.5;") as err:
            mc_ergodic_rate(huge, 0.5, n=100_000, seed=0)
        assert err.value.field == "P_p_dbm"
        with pytest.raises(ConfigValidationError, match="at alpha=0.5;"):
            mc_outage(huge, 0.5, n=100_000, seed=0)
        # the first point whose rate overflows is named
        with pytest.raises(ConfigValidationError, match="at alpha=0.6;"):
            mc_rate_and_outage(default_cfg, (0.1, 0.6, 0.5), (20.0, 3070.0, 3070.0), n=100_000, seed=0)


class TestChunkLoop:
    """One chunk loop: every chunk runs on the pool, whose size and the sample count the engine defaults."""

    def test_default_workers_are_the_engines(self, default_cfg, monkeypatch):
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 3)
        pools = []
        pool = montecarlo._pool

        def recording(threads):
            pools.append(threads)
            return pool(threads)

        monkeypatch.setattr(montecarlo, "_pool", recording)
        mc_ergodic_rate(default_cfg, 0.419, n=40_000, seed=1)
        assert pools == [_default_workers(default_cfg.M)] == [3]

    @pytest.mark.parametrize("n, workers", [(2 * CHUNK_SAMPLES, 1), (1000, 3)], ids=["one-worker", "one-chunk"])
    def test_every_chunk_runs_on_the_pool(self, n, workers):
        threads = _run_chunks(lambda rng, m: threading.current_thread().name, SystemConfig(), 0, n, workers)
        assert threads and all(name.startswith("ariswpc-mc") for name in threads)
        assert threading.current_thread().name not in threads

    def test_rejects_no_workers(self, default_cfg):
        with pytest.raises(ValueError, match="max_workers"):
            mc_ergodic_rate(default_cfg, 0.419, n=1000, workers=0)

    def test_default_sample_count_is_the_configs(self, default_cfg):
        cfg = replace_config(default_cfg, mc_samples=20_000)
        run = (cfg, (0.419, 0.6), (cfg.P_p_dbm, 5.0))
        assert mc_rate_and_outage(*run, seed=29) == mc_rate_and_outage(*run, n=cfg.mc_samples, seed=29)


class TestMcMomentsX:
    def test_direct_link_mean(self):
        cfg = SystemConfig(M=0)
        mean_est, _ = mc_moments_x(cfg, n=10**5, seed=6)
        expected = math.sqrt(math.pi * cfg.zeta_f) / 2.0
        assert abs(mean_est.value - expected) <= 3 * mean_est.stderr

    def test_zero_gain_variance(self, default_cfg):
        cfg = replace_config(default_cfg, rho=0.0)
        _, var_est = mc_moments_x(cfg, n=10**5, seed=7)
        expected = cfg.zeta_f * (1.0 - math.pi / 4.0)
        assert abs(var_est.value - expected) <= 3 * var_est.stderr

    def test_matches_gamma_fit_moments(self, default_cfg):
        fit = gamma_fit(default_cfg)
        mean_est, var_est = mc_moments_x(default_cfg, n=10**5, seed=8)
        assert abs(mean_est.value - fit.mean_x) <= 3 * mean_est.stderr
        assert abs(var_est.value - fit.var_x) <= 3 * var_est.stderr

    def test_deterministic(self, default_cfg):
        assert mc_moments_x(default_cfg, n=5000, seed=9) == mc_moments_x(
            default_cfg, n=5000, seed=9
        )

    def test_rejects_tiny_n(self, default_cfg):
        with pytest.raises(ValueError):
            mc_moments_x(default_cfg, n=100)


_FAR = SystemConfig(d_h=5e51, d_g=5e51, d_f=math.inf, P_p_dbm=3000.0)


def _kernel_cases():
    """(cfg, alpha, n): edge cases of the tiled kernel, then random geometries."""
    base = SystemConfig()
    cases = [
        pytest.param(replace_config(base, M=0), 0.419, 4096, id="M0"),
        pytest.param(replace_config(base, M=1), 0.3, 4096, id="M1"),
        pytest.param(replace_config(base, ris_mode=RisMode.PASSIVE), 0.6, 4096, id="passive"),
        pytest.param(replace_config(base, b=1), 0.2, 4096, id="b1"),
        pytest.param(base, 0.419, TILE_SAMPLES // 2 + 45, id="under-one-tile"),
        pytest.param(base, 0.419, CHUNK_SAMPLES + 7232, id="ragged-last-tile"),
        pytest.param(
            replace_config(base, M=3, rho=(1.5, 0.0, 4.0), d_h=(2.0, 9.0, 30.0)), 0.5, 3000, id="per-element"
        ),
        pytest.param(replace_config(base, M=1, rho=(2.5,), d_g=(7.0,)), 0.4, 4096, id="M1-per-element"),
        pytest.param(replace_config(base, rho=tuple(np.linspace(0.0, 6.0, 36))), 0.419, 4096, id="per-element-rho"),
        # zeta_g zeta_h is subnormal here; the kernel's weights take the two square roots apart
        pytest.param(_FAR, 0.419, 4096, id="far-subnormal"),
    ]
    rng = np.random.default_rng(2024)
    for i in range(8):
        cfg = replace_config(
            base,
            M=int(rng.integers(0, 80)),
            b=int(rng.integers(1, 9)),
            d_f=float(rng.uniform(2.0, 80.0)),
            d_h=float(rng.uniform(2.0, 80.0)),
            d_g=float(rng.uniform(2.0, 80.0)),
            epsilon=float(rng.uniform(2.0, 4.0)),
            rho=float(rng.uniform(0.0, 6.0)),
            P_p_dbm=float(rng.uniform(-20.0, 60.0)),
            ris_mode=RisMode.PASSIVE if rng.random() < 0.3 else RisMode.ACTIVE,
        )
        alpha, n = float(rng.uniform(0.05, 0.95)), int(rng.integers(1000, 2 * CHUNK_SAMPLES))
        cases.append(pytest.param(cfg, alpha, n, id=f"random{i}"))
    return cases


_CASES = _kernel_cases()

_BASE = SystemConfig()
_PER_ELEMENT = replace_config(_BASE, M=3, rho=(1.5, 0.0, 4.0), d_h=(2.0, 9.0, 30.0), d_g=(5.0, 20.0, 3.0))
# the widest (b=1) to narrowest (b=32) phase residuals, one to 1024 elements, passive and per-element
_TRIG_CASES = [
    *(pytest.param(replace_config(_BASE, M=m, b=b), id=f"M{m}-b{b}") for b in (1, 4, 16, 32) for m in (1, 36, 1024)),
    pytest.param(replace_config(_BASE, ris_mode=RisMode.PASSIVE), id="passive"),
    pytest.param(_PER_ELEMENT, id="per-element"),
    pytest.param(_FAR, id="far-subnormal"),
]
_TRIG_ESTIMATOR_CASES = [
    pytest.param(_BASE, 0.419, CHUNK_SAMPLES + 3000, id="defaults"),
    pytest.param(replace_config(_BASE, b=1), 0.2, 20_000, id="b1"),
    pytest.param(replace_config(_BASE, b=32), 0.6, 20_000, id="b32"),
    pytest.param(replace_config(_BASE, ris_mode=RisMode.PASSIVE), 0.419, 20_000, id="passive"),
    pytest.param(replace_config(_BASE, M=1024, b=16), 0.3, 2000, id="M1024-b16"),
    pytest.param(_PER_ELEMENT, 0.5, 20_000, id="per-element"),
    pytest.param(_FAR, 0.419, 20_000, id="far-subnormal"),
]


class TestTiledKernel:
    """The tiled kernel against the full-width formulas of tests/helpers.py: bit for bit against
    the kernel's arithmetic on unit gains, and within stated bounds of the magnitude formulas with
    float64 trig."""

    @pytest.mark.parametrize(("cfg", "alpha", "n"), _CASES)
    def test_rate_and_outage_match_plain_loop(self, cfg, alpha, n):
        [(rate, outage)] = mc_rate_and_outage(cfg, (alpha,), (cfg.P_p_dbm,), n, seed=31)
        assert (rate.value, rate.stderr, outage.value) == mc_rate_outage_loop(cfg, alpha, n, 31)

    @pytest.mark.parametrize(("cfg", "alpha", "n"), _CASES)
    def test_moments_x_match_plain_loop(self, cfg, alpha, n):
        n = max(n, 1000)
        mean_est, var_est = mc_moments_x(cfg, n=n, seed=32)
        assert (mean_est.value, var_est.value) == mc_moments_x_loop(cfg, n, 32)

    # The float32 phase trig against float64 trig, with bounds stated before the run. Per element,
    # rounding a residual |phase| <= pi to float32 moves it by at most pi 2^-24, and the float32 cos
    # or sin adds at most 4 units of 2^-24, so each differs from its float64 value by under 2^-21.
    # Each sum over the elements therefore moves by at most 2^-21 sum rho|g||h|, and X by that plus
    # one rounding of adding |f|.

    @pytest.mark.parametrize("cfg", _TRIG_CASES)
    def test_phase_sums_within_float32_trig_bound(self, cfg):
        n = 2000  # three full tiles and a ragged one
        in_phase, quadrature, _ = _row_sums(cfg, sample_batch(cfg, np.random.default_rng(41), n, stream=True))
        batch = sample_batch_by_hand(cfg, np.random.default_rng(41), n)
        budget = 2.0**-21 * np.sum(cfg.rho_effective * batch.g_mag * batch.h_mag, axis=1)
        x_error = np.abs(in_phase - in_phase_amplitude(cfg, batch, trig=np.float64))
        assert np.all(x_error <= budget + 2.0**-52 * np.abs(in_phase))
        assert np.all(np.abs(quadrature - quadrature_sum(cfg, batch, trig=np.float64)) <= budget)

    @pytest.mark.parametrize(("cfg", "alpha", "n"), _TRIG_ESTIMATOR_CASES)
    def test_estimates_within_float32_trig_bound(self, cfg, alpha, n):
        [(rate, outage)] = mc_rate_and_outage(cfg, (alpha,), (cfg.P_p_dbm,), n, seed=33)
        mean64, _, outage64 = mc_rate_outage_reference(cfg, alpha, n, 33)
        mean_bound, draws_near_target = _float32_trig_budget(cfg, alpha, n, 33)
        assert abs(rate.value - mean64) <= mean_bound
        assert abs(round(outage.value * n) - round(outage64 * n)) <= draws_near_target
        # the trig's worst case is far inside the estimator's own error
        assert mean_bound <= 0.01 * rate.stderr


def _float32_trig_budget(cfg: SystemConfig, alpha: float, n: int, seed: int) -> tuple[float, int]:
    """Worst-case effect of the float32 phase trig on a run's rate mean and outage count.

    Per draw, X and the quadrature sum each move by at most d (the bound
    above), so X^2 + quadrature^2 moves by at most 2(|X| + |quadrature|)d + 2d^2,
    and the SINR s by gain times that, ds. log(1 + s) has slope at most
    1/(1 + s - ds) between s - ds and s + ds, so the rate moves by at most
    (1 - alpha)/ln 2 ds/(1 + max(s - ds, 0)). The mean moves by at most the mean
    of those (plus its own float64 rounding), and only draws whose float64
    rate lies within their bound of r_v can cross it. Returns (bound on the
    mean's move, count of such draws).
    """
    nu1 = harvested_power_coefficient(cfg, alpha)
    rho = cfg.rho_effective
    bound_sum, rate_sum, near = 0.0, 0.0, 0
    for rng, m in chunk_rngs(seed, n):
        batch = sample_batch_by_hand(cfg, rng, m)
        re, im = in_phase_amplitude(cfg, batch, trig=np.float64), quadrature_sum(cfg, batch, trig=np.float64)
        d = 2.0**-21 * np.sum(rho * batch.g_mag * batch.h_mag, axis=1) + 2.0**-52 * np.abs(re)
        denom = cfg.sigma_v2_mw * np.sum(rho**2 * batch.g_mag**2, axis=1) + cfg.sigma_n2_mw
        gain = nu1 * batch.h_p_mag**2 / denom
        sinr = gain * (re**2 + im**2)
        rate = (1.0 - alpha) * np.log2(1.0 + sinr)
        ds = gain * (2.0 * (np.abs(re) + np.abs(im)) * d + 2.0 * d**2)
        # plus float64 rounding: 4 units in the last place of the rate, and 2^-50 for those of 1 + s
        move = (1.0 - alpha) / math.log(2.0) * ds / (1.0 + np.maximum(sinr - ds, 0.0)) + 2.0**-50 * (rate + 1.0)
        bound_sum += float(move.sum())
        rate_sum += float(rate.sum())
        near += int(np.count_nonzero(np.abs(rate - cfg.r_v) <= move))
    return bound_sum / n + 2.0**-40 * abs(rate_sum / n), near
