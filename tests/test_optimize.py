import math

import numpy as np
import pytest
from scipy.special import lambertw

from ariswpc import (
    Binding,
    NoInteriorMaximumError,
    PowerBudgetInfeasibleError,
    SystemConfig,
    effective_alpha_closed_form,
    effective_rate,
    effective_rate_derivative,
    ergodic_rate,
    ergodic_rate_derivative,
    expected_power,
    optimize_alpha_effective,
    optimize_alpha_effective_constrained,
    optimize_alpha_ergodic,
    optimize_alpha_ergodic_constrained,
    power_model,
    replace_config,
)
from ariswpc.closedform import ergodic_terms
from ariswpc.optimize import _effective_alpha, _lambertw0

from helpers import central_difference, effective_alpha_bisection, ergodic_alpha_brentq, golden_max


class TestErgodicDerivative:
    @pytest.mark.parametrize("alpha", np.arange(0.1, 0.95, 0.1))
    def test_matches_finite_difference(self, default_cfg, alpha):
        analytic = ergodic_rate_derivative(default_cfg, alpha)
        numeric = central_difference(lambda a: ergodic_rate(default_cfg, a), alpha)
        assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_small_alpha_limit(self, default_cfg):
        t = ergodic_terms(default_cfg)
        limit = t.t7 / (t.t6 * math.log(2.0))
        assert ergodic_rate_derivative(default_cfg, 1e-6) == pytest.approx(limit, rel=1e-3)
        numeric = central_difference(lambda a: ergodic_rate(default_cfg, a), 1e-4, h=1e-5)
        assert ergodic_rate_derivative(default_cfg, 1e-4) == pytest.approx(numeric, rel=1e-3)

    def test_domain_error(self, default_cfg):
        with pytest.raises(ValueError):
            ergodic_rate_derivative(default_cfg, 0.0)


class TestOptimizeErgodic:
    def test_stationarity(self, default_cfg):
        res = optimize_alpha_ergodic(default_cfg)
        assert res.binding is Binding.INTERIOR
        assert res.residual <= 1e-6
        assert abs(ergodic_rate_derivative(default_cfg, res.alpha_opt)) <= 1e-6

    def test_finite_difference_sign_change(self, default_cfg):
        res = optimize_alpha_ergodic(default_cfg)
        f = lambda a: ergodic_rate(default_cfg, a)
        h = 1e-4
        assert f(res.alpha_opt - h) < f(res.alpha_opt)
        assert f(res.alpha_opt + h) < f(res.alpha_opt)

    def test_agrees_with_golden_section(self, default_cfg):
        res = optimize_alpha_ergodic(default_cfg)
        alpha_golden, _ = golden_max(
            lambda a: ergodic_rate(default_cfg, a), 1e-6, 1 - 1e-6, 1e-9
        )
        assert abs(res.alpha_opt - alpha_golden) <= 1e-6

    def test_weakly_decreasing_in_hub_power(self, default_cfg):
        stars = [
            optimize_alpha_ergodic(replace_config(default_cfg, P_p_dbm=float(p))).alpha_opt
            for p in (10, 15, 20, 25, 30)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(stars, stars[1:]))

    def test_no_interior_maximum_flagged(self, default_cfg):
        cfg = replace_config(default_cfg, P_p_dbm=-300.0)
        with pytest.raises(NoInteriorMaximumError):
            optimize_alpha_ergodic(cfg)

    @pytest.mark.parametrize("ris_mode", ["active", "passive"])
    @pytest.mark.parametrize("p_p_dbm", np.arange(-100.0, 81.0, 5.0))
    def test_closed_form_is_the_derivative_root(self, default_cfg, ris_mode, p_p_dbm):
        cfg = replace_config(default_cfg, P_p_dbm=float(p_p_dbm), ris_mode=ris_mode)
        res = optimize_alpha_ergodic(cfg)
        assert res.iterations == 0
        assert res.residual == abs(ergodic_rate_derivative(cfg, res.alpha_opt))
        assert res.residual <= 1e-10
        assert abs(res.alpha_opt - ergodic_alpha_brentq(cfg)) <= 1e-9

    def test_unit_snr_ratio_gives_one_minus_inverse_e(self, default_cfg):
        # at K = t7/t6 = 1 the equivalent form z = (K-1)/W((K-1)/e) would be 0/0
        t = ergodic_terms(default_cfg)
        cfg = replace_config(default_cfg, P_p_dbm=default_cfg.P_p_dbm - 10.0 * math.log10(t.t7 / t.t6))
        t = ergodic_terms(cfg)
        assert t.t7 / t.t6 == pytest.approx(1.0, rel=1e-12)
        assert optimize_alpha_ergodic(cfg).alpha_opt == pytest.approx(1.0 - 1.0 / math.e, abs=1e-10)


def _alpha_star(k: float, w) -> float:
    """The ergodic optimum (z-1)/(K+z-1), z = exp(1 + W((K-1)/e)), for a given W."""
    z = math.exp(1.0 + w((k - 1.0) / math.e))
    return (z - 1.0) / (k + z - 1.0)


class TestLambertW:
    """The in-house principal-branch W against scipy.special.lambertw(x).real."""

    @staticmethod
    def _scipy_w(x: float) -> float:
        return float(lambertw(x).real)

    def test_alpha_star_matches_scipy_over_k(self):
        rng = np.random.default_rng(8)
        ks = np.concatenate([10.0 ** rng.uniform(-12.0, 14.0, 4000), [1e-12, 1e-6, 1.0, 1e14]])
        for k in map(float, ks):
            ours, ref = _alpha_star(k, _lambertw0), _alpha_star(k, self._scipy_w)
            # as K -> 0, W nears its branch point, where it is ill-conditioned and scipy loses digits
            tol = 1e-12 if k >= 1e-6 else 1e-9
            assert abs(ours - ref) <= tol * abs(ref), k

    def test_unit_k_is_one_minus_inverse_e(self):
        assert _lambertw0(0.0) == 0.0
        assert _alpha_star(1.0, _lambertw0) == _alpha_star(1.0, self._scipy_w)
        assert _alpha_star(1.0, _lambertw0) == pytest.approx(1.0 - 1.0 / math.e, rel=1e-15)

    def test_branch_point(self):
        # the double nearest -1/e lies below the branch point: no real W, as in scipy
        x = -1.0 / math.e
        assert math.isnan(_lambertw0(x)) and math.isnan(self._scipy_w(x))
        assert math.isnan(_lambertw0(math.nextafter(x, -1.0)))
        above = math.nextafter(x, 0.0)
        assert -1.0 < _lambertw0(above) == pytest.approx(self._scipy_w(above), abs=1e-8)
        # K so small that (K-1)/e rounds to the branch point
        assert (1e-30 - 1.0) / math.e == x
        assert math.isnan(_alpha_star(1e-30, _lambertw0))

    @pytest.mark.parametrize("x", [-0.36, -0.3, -0.25, -1e-3, 1e-300, 1e-3, 0.5, 2.9, 3.0, 1e3, 1e300, 6e307])
    def test_solves_w_exp_w(self, x):
        w = _lambertw0(x)
        # exp amplifies the rounding of w by a factor of about w
        assert w * math.exp(w) == pytest.approx(x, rel=1e-14 * max(1.0, abs(w)))
        assert w == pytest.approx(self._scipy_w(x), rel=1e-14)


class TestOptimizeErgodicConstrained:
    def test_huge_budget_is_unconstrained(self, default_cfg):
        assert optimize_alpha_ergodic_constrained(default_cfg, 1e6) == optimize_alpha_ergodic(
            default_cfg
        )

    def test_binding_case(self, default_cfg):
        res = optimize_alpha_ergodic_constrained(default_cfg, 10.0)
        assert res.binding is Binding.POWER_CONSTRAINED
        assert expected_power(default_cfg, res.alpha_opt) == pytest.approx(10.0, rel=1e-9)
        assert res.residual <= 1e-9

    def test_tight_budget_drives_alpha_to_zero(self, default_cfg):
        model = power_model(default_cfg)
        floor = model.amp_noise_term + model.static_term
        res = optimize_alpha_ergodic_constrained(default_cfg, floor + 1e-6)
        assert res.binding is Binding.POWER_CONSTRAINED
        assert res.alpha_opt < 1e-6

    def test_infeasible_budget_raises(self, default_cfg):
        with pytest.raises(PowerBudgetInfeasibleError):
            optimize_alpha_ergodic_constrained(default_cfg, 1e-3)

    def test_objective_never_beats_unconstrained(self, default_cfg):
        constrained = optimize_alpha_ergodic_constrained(default_cfg, 10.0)
        assert constrained.objective_value <= optimize_alpha_ergodic(default_cfg).objective_value

    def test_default_budget_from_config(self, default_cfg):
        assert optimize_alpha_ergodic_constrained(default_cfg) == (
            optimize_alpha_ergodic_constrained(default_cfg, default_cfg.P_R_mw)
        )


class TestOptimizeEffective:
    def test_closed_form_value(self):
        assert effective_alpha_closed_form(2.0) == pytest.approx(
            1.0 / (1.0 + 2.0 * math.log(2.0)), abs=1e-12
        )

    def test_closed_form_limit_small_target(self):
        assert effective_alpha_closed_form(1e-9) > 1.0 - 1e-8

    def test_closed_form_is_none_at_zero_target(self):
        # the candidate 1/(ln 2 * 0 + 1) = 1 lies outside (0, 1)
        assert effective_alpha_closed_form(0.0) is None
        with pytest.raises(ValueError):
            effective_alpha_closed_form(-1.0)

    def test_closed_form_invariant_to_everything_but_target(self, default_cfg):
        base = optimize_alpha_effective(default_cfg).alpha_closed_form
        for changes in ({"M": 8}, {"P_p_dbm": 5.0}, {"b": 1}, {"d_p": 5.0, "d_f": 50.0}):
            other = optimize_alpha_effective(replace_config(default_cfg, **changes))
            assert other.alpha_closed_form == base

    def test_numeric_maximizer_beats_neighbors(self, default_cfg):
        res = optimize_alpha_effective(default_cfg)
        obj = lambda a: effective_rate(default_cfg, a)
        assert res.objective_value >= obj(res.alpha_opt - 1e-3) - 1e-12
        assert res.objective_value >= obj(res.alpha_opt + 1e-3) - 1e-12
        assert res.objective_value >= obj(res.alpha_closed_form) - 1e-9

    def test_reports_both_values(self, default_cfg):
        res = optimize_alpha_effective(default_cfg)
        assert res.alpha_closed_form is not None
        assert 0.0 < res.alpha_opt < 1.0

    @pytest.mark.parametrize("changes", [{"r_v": 50.0}, {"P_p_dbm": -60.0}])
    def test_degenerate_objective_raises(self, default_cfg, changes):
        # the effective rate is 0 at its peak, so at every alpha: no alpha is better than another
        cfg = replace_config(default_cfg, **changes)
        with pytest.raises(NoInteriorMaximumError):
            optimize_alpha_effective(cfg)
        with pytest.raises(NoInteriorMaximumError):
            optimize_alpha_effective_constrained(cfg, 1e6)

    def test_numeric_maximizer_matches_dense_grid(self, default_cfg):
        res = optimize_alpha_effective(default_cfg)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 10**4)
        grid_best = max(effective_rate(default_cfg, a) for a in grid)
        assert res.objective_value >= grid_best - 1e-6


class TestEffectiveDerivative:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize(
        "changes", [{}, {"ris_mode": "passive"}, {"M": 0}, {"r_v": 0.1}, {"P_p_dbm": 5.0, "b": 1}]
    )
    def test_matches_finite_difference(self, default_cfg, changes, alpha):
        cfg = replace_config(default_cfg, **changes)
        numeric = central_difference(lambda a: effective_rate(cfg, a), alpha)
        assert effective_rate_derivative(cfg, alpha) == pytest.approx(numeric, rel=1e-4, abs=1e-9)

    def test_zero_target_and_domain(self, default_cfg):
        assert effective_rate_derivative(replace_config(default_cfg, r_v=0.0), 0.5) == 0.0
        with pytest.raises(ValueError):
            effective_rate_derivative(default_cfg, 1.0)


class TestEffectiveAlpha:
    """The closed-form maximizer y/(L + y), y = 1 + W0(-e^(-1-L)), L = r_v ln 2."""

    def test_matches_bisection_oracle_over_target_rates(self):
        rng = np.random.default_rng(12)
        r_vs = np.concatenate([10.0 ** rng.uniform(-12.0, 3.0, 300), [1e-12, 6.5e-6, 1.0, 1e3]])
        for r_v in map(float, r_vs):
            ref = effective_alpha_bisection(r_v)
            # each side rounds alpha once, so they agree to about an ulp; near alpha = 1 that
            # bounds the error in 1 - alpha, which W of the rounded -e^(-1-L) missed by up to 6e-5
            assert abs(_effective_alpha(r_v) - ref) <= 4.5e-16 * ref, r_v

    @pytest.mark.parametrize(
        "r_v, expected, tol", [(0.1, 0.8254, 5e-5), (2.0, 0.3932, 5e-5), (10.0, 0.12604, 5e-6)]
    )
    def test_tabulated_values(self, r_v, expected, tol):
        assert _effective_alpha(r_v) == pytest.approx(expected, abs=tol)

    def test_paper_candidate_is_the_w_free_limit(self):
        # alpha_dagger = 1/(1 + L) drops W's term: close at large r_v, far at small
        for r_v, gap in ((0.1, 0.2), (10.0, 1e-4)):
            dagger = effective_alpha_closed_form(r_v)
            assert 0.0 < dagger - _effective_alpha(r_v) < gap

    def test_tiny_target_is_no_interior_maximum(self, default_cfg):
        # 1 - alpha is about sqrt(r_v ln 2 / 2), below 1e-6 from r_v of about 3e-12
        cfg = replace_config(default_cfg, r_v=1e-17)
        assert 1.0 - _effective_alpha(cfg.r_v) < 1e-6
        assert effective_alpha_closed_form(cfg.r_v) is None
        with pytest.raises(NoInteriorMaximumError):
            optimize_alpha_effective(cfg)


def _design_point(rng, index: int) -> SystemConfig:
    return replace_config(
        SystemConfig(),
        M=int(rng.integers(0, 257)),
        b=int(rng.integers(1, 9)),
        P_p_dbm=float(rng.uniform(-10.0, 40.0)),
        r_v=float(np.exp(rng.uniform(math.log(0.03), math.log(16.0)))),
        d_p=float(rng.uniform(2.0, 80.0)),
        d_f=float(rng.uniform(2.0, 80.0)),
        d_h=float(rng.uniform(2.0, 80.0)),
        d_g=float(rng.uniform(2.0, 80.0)),
        rho=float(rng.uniform(1.0, 6.0)),
        ris_mode=("active", "passive")[index % 2],
    )


@pytest.fixture(scope="module")
def random_designs():
    """Seeded random configs, each with the effective rate on a dense grid and a budget.

    The grid is 201 uniform points on (1e-6, 1 - 1e-6) plus 41 within 1e-3 of
    the closed-form optimum, where a grid point can come closest to beating it.
    """
    rng = np.random.default_rng(2024)
    designs = []
    for i in range(40):
        cfg = _design_point(rng, i)
        peak = _effective_alpha(cfg.r_v)
        grid = np.concatenate([
            np.linspace(1e-6, 1.0 - 1e-6, 201),
            np.clip(peak + np.linspace(-1e-3, 1e-3, 41), 1e-6, 1.0 - 1e-6),
        ])
        model = power_model(cfg)
        budget = (model.amp_noise_term + model.static_term) * float(rng.uniform(1.2, 4.0))
        values = np.array([effective_rate(cfg, float(a)) for a in grid])
        powers = np.array([expected_power(cfg, float(a)) for a in grid])
        designs.append((cfg, grid, values, powers, budget))
    return designs


class TestEffectiveOnRandomDesigns:
    """M 0-256, b 1-8, P_p -10..40 dBm, r_v 0.03-16 (log-uniform), distances 2-80 m, rho 1-6, both modes."""

    def test_optimum_is_at_least_the_dense_grid_maximum(self, random_designs):
        checked = 0
        for cfg, _, values, _, _ in random_designs:
            try:
                res = optimize_alpha_effective(cfg)
            except NoInteriorMaximumError:
                continue
            assert res.iterations == 0
            assert res.residual == abs(effective_rate_derivative(cfg, res.alpha_opt))
            assert res.objective_value >= values.max() * (1.0 - 1e-12), cfg
            checked += 1
        assert checked >= 20

    def test_raises_exactly_when_the_rate_is_zero_at_its_peak(self, random_designs):
        raised = []
        for cfg, _, values, _, _ in random_designs:
            try:
                optimize_alpha_effective(cfg)
                raised.append(False)
            except NoInteriorMaximumError:
                raised.append(True)
            assert raised[-1] == (effective_rate(cfg, _effective_alpha(cfg.r_v)) == 0.0)
            # the rate is then 0 on the whole grid, and only then
            assert raised[-1] == (values.max() == 0.0)
        assert any(raised) and not all(raised)

    def test_constrained_optimum_is_at_least_the_feasible_grid_maximum(self, random_designs):
        checked = 0
        for cfg, _, values, powers, budget in random_designs:
            feasible = values[powers <= budget]
            try:
                res = optimize_alpha_effective_constrained(cfg, budget)
            except NoInteriorMaximumError:
                continue
            assert expected_power(cfg, res.alpha_opt) <= budget * (1.0 + 1e-12)
            if feasible.size:
                assert res.objective_value >= feasible.max() * (1.0 - 1e-12), cfg
            checked += 1
        assert checked >= 20


class TestOptimizeEffectiveConstrained:
    def test_huge_budget_is_unconstrained(self, default_cfg):
        assert optimize_alpha_effective_constrained(default_cfg, 1e6) == (
            optimize_alpha_effective(default_cfg)
        )

    def test_binding_case_sits_on_budget(self, default_cfg):
        res = optimize_alpha_effective_constrained(default_cfg, 10.0)
        assert res.binding is Binding.POWER_CONSTRAINED
        assert expected_power(default_cfg, res.alpha_opt) == pytest.approx(10.0, rel=1e-9)

    def test_objective_never_beats_unconstrained(self, default_cfg):
        constrained = optimize_alpha_effective_constrained(default_cfg, 10.0)
        assert constrained.objective_value <= optimize_alpha_effective(default_cfg).objective_value
