import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ariswpc import (
    ConfigValidationError,
    PowerBudgetInactiveError,
    PowerBudgetInfeasibleError,
    RisMode,
    SystemConfig,
    expected_power,
    harvested_power_coefficient,
    instantaneous_power,
    inverse_power,
    power_model,
    replace_config,
    sample_batch,
    sample_realization,
)
from ariswpc.channel import ChannelDraw


def _bisect_inverse(cfg, P_R, lo=1e-9, hi=1 - 1e-9, tol=1e-13):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if expected_power(cfg, mid) < P_R:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPowerModel:
    def test_kept_per_mode_and_never_handed_on(self, default_cfg):
        cfg = replace_config(default_cfg)
        models = {mode: power_model(cfg, mode) for mode in ("nominal", "physical")}
        assert all(power_model(cfg, mode) is model for mode, model in models.items())
        # a replaced config builds its own, whether or not the changed field enters the model
        for changes in ({}, {"alpha": 0.5}, {"P1_dbm": -5.0}, {"rho": 2.0}, {"ris_mode": RisMode.PASSIVE}):
            new = replace_config(cfg, **changes)
            assert "_power_models" not in new.__dict__
            fresh = SystemConfig(**{field.name: getattr(new, field.name) for field in fields(SystemConfig)})
            for mode, model in models.items():
                assert power_model(new, mode) is not model
                assert power_model(new, mode) == power_model(fresh, mode)

    def test_terms_at_defaults(self, default_cfg):
        model = power_model(default_cfg)
        assert model.amp_signal_term == pytest.approx(36 * 36 * 1.25e-4, rel=1e-12)
        assert model.amp_noise_term == pytest.approx(1e-8 * 36 * 36, rel=1e-12)
        assert model.static_term == pytest.approx(36 * 0.2, rel=1e-12)

    def test_passive_zeroes_amplifier_terms(self, default_cfg):
        model = power_model(replace_config(default_cfg, ris_mode=RisMode.PASSIVE))
        assert model.amp_signal_term == 0.0
        assert model.amp_noise_term == 0.0
        assert model.static_term == pytest.approx(36 * 0.2, rel=1e-12)

    def test_physical_mode_scales_by_hub_gain(self, default_cfg):
        nominal = power_model(default_cfg, mode="nominal")
        physical = power_model(default_cfg, mode="physical")
        assert physical.amp_signal_term == pytest.approx(
            nominal.amp_signal_term * default_cfg.zeta_p, rel=1e-12
        )

    def test_rejects_unknown_mode(self, default_cfg):
        with pytest.raises(ValueError):
            power_model(default_cfg, mode="bogus")


class TestExpectedPower:
    def test_alpha_floor_limit(self, default_cfg):
        model = power_model(default_cfg)
        floor = model.amp_noise_term + model.static_term
        assert expected_power(default_cfg, 1e-9) == pytest.approx(floor, rel=1e-6)

    def test_no_ris_consumes_nothing(self):
        assert expected_power(SystemConfig(M=0), 0.5) == 0.0

    def test_strictly_increasing_in_alpha(self, default_cfg):
        grid = np.linspace(0.05, 0.95, 50)
        values = [expected_power(default_cfg, a) for a in grid]
        assert np.all(np.diff(values) > 0)

    def test_monotone_in_m_rho_pp(self, default_cfg):
        alpha = 0.1
        in_m = [expected_power(replace_config(default_cfg, M=m), alpha) for m in (8, 16, 32, 64)]
        in_rho = [expected_power(replace_config(default_cfg, rho=r), alpha) for r in (1.0, 2.0, 4.0, 6.0)]
        in_pp = [expected_power(replace_config(default_cfg, P_p_dbm=p), alpha) for p in (0.0, 10.0, 20.0, 30.0)]
        for series in (in_m, in_rho, in_pp):
            assert np.all(np.diff(series) > 0)

    def test_elasticity_ordering_at_default_point(self, default_cfg):
        # relative sensitivity at the default operating point: M >= rho >= alpha
        alpha = default_cfg.alpha
        base = expected_power(default_cfg, alpha)
        e_m = (expected_power(replace_config(default_cfg, M=45), alpha) - base) / base / (9 / 36)
        bumped = replace_config(default_cfg, rho=6.06, rho_max=6.06)
        e_rho = (expected_power(bumped, alpha) - base) / base / 0.01
        e_alpha = (expected_power(default_cfg, alpha * 1.01) - base) / base / 0.01
        assert e_m >= e_rho >= e_alpha

    def test_domain_error(self, default_cfg):
        with pytest.raises(ValueError):
            expected_power(default_cfg, 1.0)

    @pytest.mark.parametrize(
        "changes, mode, field",
        [
            ({"P_p_dbm": 3050, "d_h": 0.01}, "nominal", "P_p_dbm"),  # nu1 * amp_signal
            ({"rho_max": 1e160, "rho": 1e160}, "nominal", "rho, d_h"),
            ({"d_h": 1e-100, "d_p": 0.01}, "physical", "rho, d_h, d_p"),
            ({"sigma_v2_dbm": 3080}, "nominal", "rho, sigma_v2_dbm"),
            ({"M": 4, "P1_dbm": 3080}, "nominal", "M, P1_dbm, P2_dbm"),
            # each alpha-free term is finite, their sum is not
            ({"M": 1, "sigma_v2_dbm": 3064.4, "P1_dbm": 3080}, "nominal", "rho, sigma_v2_dbm, M, P1_dbm, P2_dbm"),
        ],
        ids=["nu1-term", "signal", "signal-physical", "noise", "static", "floor"],
    )
    def test_overflow_is_a_config_error(self, default_cfg, changes, mode, field):
        cfg = replace_config(default_cfg, **changes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigValidationError, match="the expected RIS power overflows") as err:
                expected_power(cfg, 0.1, mode)
        assert err.value.field == field


class TestInstantaneousPower:
    def test_no_incident_signal(self, default_cfg):
        draw = ChannelDraw(
            h_p_mag=1.0,
            f_mag=1.0,
            h_mag=np.zeros(36),
            g_mag=np.ones(36),
            phase_err=np.zeros(36),
        )
        model = power_model(default_cfg)
        expected = model.amp_noise_term + model.static_term
        assert instantaneous_power(default_cfg, draw, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_doubling_gain_quadruples_amplifier_terms(self, default_cfg):
        draw = sample_realization(default_cfg, np.random.default_rng(70))
        static = power_model(default_cfg).static_term
        base = instantaneous_power(replace_config(default_cfg, rho=1.5), draw, 0.5) - static
        doubled = instantaneous_power(replace_config(default_cfg, rho=3.0), draw, 0.5) - static
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_sampling_oracle_nominal(self, default_cfg):
        n = 10**5
        batch = sample_batch(default_cfg, np.random.default_rng(71), n)
        rho = default_cfg.rho_effective
        nu1 = harvested_power_coefficient(default_cfg, 0.5)
        model = power_model(default_cfg)
        samples = (
            nu1 * np.sum(rho**2 * batch.h_mag**2, axis=1)
            + model.amp_noise_term
            + model.static_term
        )
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - expected_power(default_cfg, 0.5)) <= 3 * se

    def test_sampling_oracle_physical(self, default_cfg):
        n = 10**5
        rng = np.random.default_rng(72)
        batch = sample_batch(default_cfg, rng, n)
        total = 0.0
        for i in range(0, n, 25_000):
            chunk = slice(i, i + 25_000)
            draws = zip(batch.h_p_mag[chunk], batch.h_mag[chunk])
            total += sum(
                instantaneous_power(
                    default_cfg,
                    ChannelDraw(hp, 0.0, h, np.ones(36), np.zeros(36)),
                    0.5,
                    mode="physical",
                )
                for hp, h in draws
            )
        mean = total / n
        expected = expected_power(default_cfg, 0.5, mode="physical")
        # loose band: the |h_p|^2 factor makes this heavy-tailed
        assert mean == pytest.approx(expected, rel=0.05)

    def test_dimension_mismatch(self, default_cfg):
        draw = ChannelDraw(1.0, 1.0, np.ones(4), np.ones(4), np.zeros(4))
        with pytest.raises(ValueError):
            instantaneous_power(default_cfg, draw, 0.5)


class TestInversePower:
    def test_round_trip(self, default_cfg):
        for p_r in (7.5, 10.0, 20.0, 100.0):
            alpha = inverse_power(default_cfg, p_r)
            assert 0.0 < alpha < 1.0
            assert expected_power(default_cfg, alpha) == pytest.approx(p_r, rel=1e-9)

    def test_matches_bisection(self, default_cfg):
        closed = inverse_power(default_cfg, 10.0)
        root = _bisect_inverse(default_cfg, 10.0)
        assert abs(closed - root) <= 1e-9

    def test_budget_just_above_floor(self, default_cfg):
        model = power_model(default_cfg)
        floor = model.amp_noise_term + model.static_term
        alpha = inverse_power(default_cfg, floor + 1e-6)
        assert 0.0 < alpha < 1e-6

    def test_infeasible_budget(self, default_cfg):
        model = power_model(default_cfg)
        floor = model.amp_noise_term + model.static_term
        with pytest.raises(PowerBudgetInfeasibleError):
            inverse_power(default_cfg, floor)

    def test_inactive_constraint_in_passive_mode(self, default_cfg):
        cfg = replace_config(default_cfg, ris_mode=RisMode.PASSIVE)
        with pytest.raises(PowerBudgetInactiveError):
            inverse_power(cfg, 10.0)
