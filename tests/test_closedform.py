import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ariswpc import (
    ConfigValidationError,
    RisMode,
    SystemConfig,
    effective_rate,
    effective_rate_derivative,
    ergodic_rate,
    ergodic_terms,
    gamma_fit,
    harvested_power_coefficient,
    mc_outage,
    outage_probability,
    replace_config,
    sample_batch,
)
from ariswpc import closedform, optimize
from ariswpc.closedform import _log_outage_threshold

from helpers import adaptive_coverage, adaptive_outage


class TestErgodicTerms:
    def test_no_ris_terms_vanish(self):
        t = ergodic_terms(SystemConfig(M=0))
        assert t.t3 == 0.0 and t.t4 == 0.0 and t.t5 == 0.0
        assert t.t6 == pytest.approx(1e-8, rel=1e-12)

    def test_zero_amplification_matches_no_ris(self):
        t0 = ergodic_terms(SystemConfig(M=0))
        tz = ergodic_terms(SystemConfig(rho=0.0))
        assert tz.t3 == t0.t3 == 0.0
        assert tz.t4 == t0.t4 == 0.0
        assert tz.t5 == t0.t5 == 0.0
        assert tz.t6 == pytest.approx(t0.t6, rel=1e-12)

    def test_terms_match_sampled_expectations(self, default_cfg):
        # oracle: 1e6-sample means of the numerator and denominator sums
        t = ergodic_terms(default_cfg)
        rho = default_cfg.rho_effective
        n = 10**6
        s_num = s_num2 = s_den = s_den2 = 0.0
        rng = np.random.default_rng(40)
        for _ in range(16):
            batch = sample_batch(default_cfg, rng, n // 16)
            cascade = rho * batch.g_mag * batch.h_mag
            re = batch.f_mag + np.sum(cascade * np.cos(batch.phase_err), axis=1)
            im = np.sum(cascade * np.sin(batch.phase_err), axis=1)
            num = batch.h_p_mag**2 * (re**2 + im**2)
            den = default_cfg.sigma_v2_mw * np.sum(rho**2 * batch.g_mag**2, axis=1) + default_cfg.sigma_n2_mw
            s_num += num.sum()
            s_num2 += (num**2).sum()
            s_den += den.sum()
            s_den2 += (den**2).sum()
        mean_num, mean_den = s_num / n, s_den / n
        se_num = math.sqrt((s_num2 / n - mean_num**2) / n)
        se_den = math.sqrt((s_den2 / n - mean_den**2) / n)
        assert abs(mean_num - (t.t1 + t.t2 * t.t3 + t.t4 + t.t5)) <= 3 * se_num
        assert abs(mean_den - t.t6) <= 3 * se_den

    def test_positive_for_nondegenerate_config(self, default_cfg):
        t = ergodic_terms(default_cfg)
        assert all(v > 0 for v in (t.t1, t.t2, t.t3, t.t4, t.t5, t.t6, t.t7))

    def test_passive_noise_floor_is_static_noise_only(self, default_cfg):
        cfg = replace_config(default_cfg, ris_mode=RisMode.PASSIVE)
        assert ergodic_terms(cfg).t6 == pytest.approx(cfg.sigma_n2_mw, rel=1e-14)


class TestErgodicRate:
    def test_vanishes_at_both_endpoints(self, default_cfg):
        assert 0 < ergodic_rate(default_cfg, 1e-6) < 1e-2
        assert 0 < ergodic_rate(default_cfg, 1.0 - 1e-6) < 1e-3

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7])
    def test_domain_error(self, default_cfg, alpha):
        with pytest.raises(ValueError):
            ergodic_rate(default_cfg, alpha)

    def test_increasing_in_hub_power(self, default_cfg):
        rates = [
            ergodic_rate(replace_config(default_cfg, P_p_dbm=float(p)), 0.419)
            for p in range(0, 31, 5)
        ]
        assert np.all(np.diff(rates) > 0)

    def test_increasing_in_elements(self, default_cfg):
        rates = [
            ergodic_rate(replace_config(default_cfg, M=m), 0.419) for m in (4, 8, 16, 32, 64)
        ]
        assert np.all(np.diff(rates) > 0)

    def test_overflowing_mean_sinr_is_a_config_error(self, default_cfg):
        # nu1 and K are finite at 10^307 mW, but the mean SINR K alpha/(1-alpha) overflows at alpha = 0.9
        cfg = replace_config(default_cfg, P_p_dbm=3070)
        assert math.isfinite(ergodic_rate(cfg, 0.5))
        with pytest.raises(ConfigValidationError, match=r"^P_p_dbm: the mean SINR .* at alpha=0.9;") as err:
            ergodic_rate(cfg, 0.9)
        assert err.value.field == "P_p_dbm"

    def test_active_dominates_passive(self, default_cfg):
        active = ergodic_rate(default_cfg, 0.419)
        passive = ergodic_rate(replace_config(default_cfg, ris_mode=RisMode.PASSIVE), 0.419)
        assert active > passive


class TestGammaFit:
    def test_moment_match_identities(self, default_cfg):
        fit = gamma_fit(default_cfg)
        assert fit.s * fit.r == pytest.approx(fit.mean_x, rel=1e-12)
        assert fit.s * fit.r**2 == pytest.approx(fit.var_x, rel=1e-12)

    def test_direct_link_only(self):
        cfg = SystemConfig(M=0, d_f=1.0)
        fit = gamma_fit(cfg)
        assert fit.mean_x == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
        assert fit.var_x == pytest.approx(1.0 - math.pi / 4.0, rel=1e-12)
        assert fit.s == pytest.approx((math.pi / 4.0) / (1.0 - math.pi / 4.0), rel=1e-12)
        assert fit.s == pytest.approx(3.6597, abs=1e-4)

    def test_scale_equivariance_of_ris_sum(self, default_cfg):
        # doubling every rho doubles the cascade mean part and quadruples its
        # variance part (the direct-link contributions stay put)
        base = gamma_fit(replace_config(default_cfg, rho=1.5))
        doubled = gamma_fit(replace_config(default_cfg, rho=3.0))
        direct_mean = math.sqrt(math.pi * default_cfg.zeta_f) / 2.0
        direct_var = default_cfg.zeta_f * (1.0 - math.pi / 4.0)
        assert doubled.mean_x - direct_mean == pytest.approx(
            2.0 * (base.mean_x - direct_mean), rel=1e-12
        )
        assert doubled.var_x - direct_var == pytest.approx(
            4.0 * (base.var_x - direct_var), rel=1e-12
        )

    def test_pdf_integrates_to_cdf(self, default_cfg):
        from scipy import integrate, stats

        fit = gamma_fit(default_cfg)
        x = fit.mean_x
        integral, _ = integrate.quad(fit.pdf, 0.0, x, limit=200)
        assert integral == pytest.approx(stats.gamma.cdf(x, fit.s, scale=fit.r), rel=1e-8)


class TestOutage:
    def test_zero_target_rate(self):
        assert outage_probability(SystemConfig(r_v=0.0), 0.419) == 0.0

    def test_huge_hub_power(self, default_cfg):
        cfg = replace_config(default_cfg, P_p_dbm=200.0, quadrature_points=400)
        assert outage_probability(cfg, 0.419) <= 1e-6

    def test_within_unit_interval(self, default_cfg):
        for alpha in (0.05, 0.419, 0.95):
            assert 0.0 <= outage_probability(default_cfg, alpha) <= 1.0

    def test_dual_oracle_m16(self, default_cfg):
        cfg = replace_config(default_cfg, M=16)
        cf = outage_probability(cfg, 0.419)
        mc = mc_outage(cfg, 0.419, n=10**5, seed=50)
        assert abs(cf - mc.value) <= 0.03
        converged = replace_config(cfg, quadrature_points=400)
        assert abs(outage_probability(converged, 0.419) - adaptive_outage(cfg, 0.419)) <= 1e-6

    def test_non_increasing_in_hub_power(self, default_cfg):
        po = [
            outage_probability(replace_config(default_cfg, P_p_dbm=float(p)), 0.419)
            for p in range(0, 31, 5)
        ]
        assert np.all(np.diff(po) <= 0)

    def test_non_increasing_in_elements(self, default_cfg):
        po = [
            outage_probability(replace_config(default_cfg, M=m), 0.419)
            for m in (8, 16, 32, 64)
        ]
        assert np.all(np.diff(po) <= 0)

    def test_threshold_log_holds_for_every_positive_rate(self):
        # log(2^(r_v/(1-alpha)) - 1) = log(expm1(x)), x = r_v ln 2/(1-alpha), which is exact
        # until expm1 overflows; the threshold must match it where e^-x rounds to 1 as well
        for x in 10.0 ** np.linspace(-20.0, 2.5, 400):
            got = _log_outage_threshold(x / math.log(2.0) * 0.5, 0.5)
            assert got == pytest.approx(math.log(math.expm1(x)), rel=1e-15, abs=1e-15)
        assert 0.0 <= outage_probability(SystemConfig(r_v=1e-17), 0.419) < 1e-12

    @pytest.mark.parametrize("alpha", [0.1, 0.9])
    def test_quadrature_convergence_at_defaults(self, default_cfg, alpha):
        coarse = outage_probability(replace_config(default_cfg, quadrature_points=100), alpha)
        fine = outage_probability(replace_config(default_cfg, quadrature_points=400), alpha)
        assert abs(coarse - fine) <= 1e-4

    def test_domain_error(self, default_cfg):
        with pytest.raises(ValueError):
            outage_probability(default_cfg, 0.0)

    def test_matches_adaptive_oracle_on_random_geometries(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        distance = st.floats(2.0, 80.0)

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(
            M=st.integers(0, 1024),
            b=st.integers(1, 8),
            d_p=distance,
            d_f=distance,
            d_h=distance,
            d_g=distance,
            epsilon=st.floats(2.0, 4.0),
            P_p_dbm=st.floats(-20.0, 80.0),
            ris_mode=st.sampled_from(list(RisMode)),
            alpha=st.floats(0.05, 0.95),
        )
        def check(alpha, **geometry):
            cfg = SystemConfig(**geometry)
            assert outage_probability(cfg, alpha) == pytest.approx(
                adaptive_outage(cfg, alpha), abs=1e-6
            )

        check()

    def test_high_snr_has_no_false_floor(self, default_cfg):
        cfg = replace_config(default_cfg, P_p_dbm=60.0)
        reference = adaptive_outage(cfg, 0.419)  # about 2.4e-6
        assert outage_probability(cfg, 0.419) == pytest.approx(reference, abs=1e-6)


class TestEffectiveRate:
    def test_composition(self, default_cfg):
        alpha = 0.419
        expected = (1.0 - outage_probability(default_cfg, alpha)) * default_cfg.r_v
        assert effective_rate(default_cfg, alpha) == pytest.approx(expected, rel=1e-14)

    def test_no_outage_regime(self, default_cfg):
        cfg = replace_config(default_cfg, P_p_dbm=120.0, quadrature_points=400)
        assert effective_rate(cfg, 0.419) == pytest.approx(default_cfg.r_v, abs=1e-5)

    def test_certain_outage_regime(self, default_cfg):
        cfg = replace_config(default_cfg, P_p_dbm=-150.0)
        assert effective_rate(cfg, 0.419) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("changes", [{"d_p": 1e107, "P_p_dbm": -20.0}, {"P_p_dbm": -3000.0, "alpha": 1e-300}],
                             ids=["far-hub", "tiny-nu1"])
    def test_underflowing_hub_link_gain_is_certain_outage(self, changes):
        # nu1 * zeta_p rounds to 0 (zeta_p is 1e-321, or nu1 is 0), so c = kappa t6/(nu1 zeta_p) is +inf
        cfg = SystemConfig(**changes)
        assert harvested_power_coefficient(cfg, cfg.alpha) * cfg.zeta_p == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [f(cfg, cfg.alpha) for f in (outage_probability, effective_rate, effective_rate_derivative)]
        assert values == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("P_p_dbm", [-20.0, -15.0])
    def test_keeps_relative_accuracy_deep_in_outage(self, default_cfg, P_p_dbm):
        # r_v I is about 6e-28 and 2e-14 here; through 1 - outage it would round to 0 and to a
        # multiple of 1.1e-16 r_v. At 400 nodes the rule has converged to 1e-13 at both points
        cfg = replace_config(default_cfg, P_p_dbm=P_p_dbm, quadrature_points=400)
        expected = cfg.r_v * adaptive_coverage(cfg, 0.419)
        assert effective_rate(cfg, 0.419) == pytest.approx(expected, rel=1e-9, abs=0.0)


def _same_model(a, b) -> bool:
    """True when two link models hold the same statistics, bit for bit."""
    arrays = [(a.log_t, b.log_t), (a.log_base, b.log_base)]
    same_arrays = all(x is y is None or np.array_equal(x, y) for x, y in arrays)
    return (a.moments, a.t6, a.signal, a.fit) == (b.moments, b.t6, b.signal, b.fit) and same_arrays


class TestLinkModel:
    @pytest.mark.parametrize(
        "changes",
        [{"M": 8}, {"rho": 2.0}, {"ris_mode": "passive"}, {"b": 1}, {"d_p": 15.0}, {"d_f": 15.0}, {"d_h": 15.0},
         {"d_g": 15.0}, {"epsilon": 2.5}, {"sigma_v2_dbm": -70.0}, {"sigma_n2_dbm": -70.0},
         {"quadrature_points": 50}],
        ids=lambda changes: next(iter(changes)),
    )
    def test_changing_a_model_input_rebuilds_the_model(self, changes):
        cfg = SystemConfig(M=16)
        model = closedform._link_model(cfg)
        new = replace_config(cfg, **changes)
        assert closedform._link_model(new) is not model
        fresh = SystemConfig(**{field.name: getattr(new, field.name) for field in fields(SystemConfig)})
        for evaluate in (ergodic_rate, outage_probability):
            assert evaluate(new, 0.3) == evaluate(fresh, 0.3)

    @pytest.mark.parametrize(
        "changes",
        [{"alpha": 0.5}, {"P_p_dbm": 5.0}, {"eta": 0.5}, {"r_v": 1.0}, {"P_R_mw": 3.0}, {"P1_dbm": -5.0},
         {"P2_dbm": -5.0}, {"rho_max": 7.0}, {"mc_samples": 1000}],
        ids=lambda changes: next(iter(changes)),
    )
    def test_other_changes_hand_the_model_on(self, changes):
        # the new config builds its own model, with the same statistics: none of these fields enters it
        cfg = SystemConfig(M=16)
        model = closedform._link_model(cfg)
        new = replace_config(cfg, **changes)
        assert _same_model(closedform._link_model(new), model)
        fresh = SystemConfig(**{field.name: getattr(new, field.name) for field in fields(SystemConfig)})
        assert ergodic_terms(new) == ergodic_terms(fresh)
        for evaluate in (ergodic_rate, outage_probability, effective_rate):
            assert evaluate(new, 0.3) == evaluate(fresh, 0.3)

    @pytest.mark.parametrize("U", [2, 8, 100, 400])
    def test_node_table_gives_the_inline_nodes(self, U):
        # the U-only node geometry is one read-only table; log_t and log_base keep their bits
        assert all(not arr.flags.writeable for arr in closedform._nodes(U))
        for cfg in (SystemConfig(quadrature_points=U), SystemConfig(M=4, b=1, P_p_dbm=-20.0, quadrature_points=U)):
            model = closedform._link_model(cfg)
            s, r = model.fit.s, model.fit.r
            u = np.arange(1, U + 1)
            x = np.cos((2 * u - 1) * np.pi / (2 * U))
            ang = (np.pi / 2.0) * x
            root_s = math.sqrt(s)
            log_t = math.log(model.fit.mean_x) + np.tan(ang) / root_s
            log_weights = np.log((np.pi**2 / (2.0 * U * root_s)) * np.sqrt(1.0 - x**2) / np.cos(ang) ** 2)
            with np.errstate(over="ignore"):
                t_over_r = np.exp(log_t) / r
            log_base = log_weights + s * log_t - t_over_r - s * math.log(r) - math.lgamma(s)
            assert np.array_equal(model.log_t, log_t)
            assert np.array_equal(model.log_base, log_base)

    def test_hub_power_is_checked_at_each_point(self):
        # the model holds no P_p, so K = eta P_p signal/t6 is checked wherever a closed form uses a hub power
        cfg = SystemConfig()
        model = closedform._link_model(cfg)
        huge = replace_config(cfg, P_p_dbm=3080.0)
        assert _same_model(closedform._link_model(huge), model)
        for evaluate in (
            lambda: ergodic_terms(huge),
            lambda: ergodic_rate(huge, 0.5),
            lambda: outage_probability(huge, 0.5),
            lambda: closedform._Run(cfg, [0.5, 0.5], [20.0, 3080.0]).rates,
            lambda: closedform._Run(cfg, [0.5, 0.5], [20.0, 3080.0]).coverages,
        ):
            with pytest.raises(ConfigValidationError, match=r"^P_p_dbm: K = ") as err:
                evaluate()
            assert err.value.field == "P_p_dbm"
        assert closedform._Run(cfg, [0.5], [20.0]).rates == [ergodic_rate(cfg, 0.5)]

    def test_alpha_free_statistics_are_built_once_per_config(self, monkeypatch):
        calls = []
        original = closedform.phase_error_stats
        monkeypatch.setattr(closedform, "phase_error_stats", lambda b: calls.append(b) or original(b))
        cfg = SystemConfig(M=16)
        ergodic_terms(cfg)
        gamma_fit(cfg)
        for alpha in np.linspace(0.02, 0.98, 25):
            for evaluate in (ergodic_rate, outage_probability, effective_rate, effective_rate_derivative):
                evaluate(cfg, float(alpha))
        optimize.optimize_alpha_ergodic(cfg)
        optimize.optimize_alpha_ergodic_constrained(cfg)
        optimize.optimize_alpha_effective(cfg)
        optimize.optimize_alpha_effective_constrained(cfg)
        optimize.ergodic_rate_derivative(cfg, 0.419)
        assert calls == [cfg.b]
