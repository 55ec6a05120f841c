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
    ergodic_optima,
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
from ariswpc.optimize import _effective_alpha, _w_plus_one

from helpers import central_difference, ergodic_alpha_brentq, golden_max, w_plus_one_bisection


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

    def test_optima_equal_the_optimizer_at_each_hub_power(self, default_cfg):
        hub_powers = [-20.0, 0.0, default_cfg.P_p_dbm, 17.5, 30.0]
        expected = [optimize_alpha_ergodic(replace_config(default_cfg, P_p_dbm=pp)) for pp in hub_powers]
        assert ergodic_optima(default_cfg, hub_powers) == expected
        with pytest.raises(NoInteriorMaximumError, match=r"alpha=1\.000e\+00 \(K="):
            ergodic_optima(default_cfg, [0.0, -300.0])

    def test_no_interior_maximum_flagged(self, default_cfg):
        # K = 6.2e-30, and K = 0 with no link at all: alpha* rounds to its limit 1
        for changes in ({"P_p_dbm": -300.0}, {"M": 0, "d_f": math.inf}):
            cfg = replace_config(default_cfg, **changes)
            with pytest.raises(NoInteriorMaximumError, match=r"alpha=1\.000e\+00 \(K="):
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


def _alpha_star(k: float, y: float) -> float:
    """The ergodic optimum z/(K + z), z = expm1(y), for a given y = 1 + W((K-1)/e)."""
    z = math.expm1(y)
    return z / (k + z)


class TestLambertW:
    """The in-house y = 1 + W0((d-1)/e) against scipy.special.lambertw and a bisection oracle."""

    @staticmethod
    def _scipy_w(x: float) -> float:
        return float(lambertw(x).real)

    def test_alpha_star_matches_scipy_over_k(self):
        rng = np.random.default_rng(8)
        ks = np.concatenate([10.0 ** rng.uniform(-12.0, 14.0, 4000), [1e-12, 1e-6, 1.0, 1e14]])
        for k in map(float, ks):
            ours = _alpha_star(k, _w_plus_one(k))
            ref = _alpha_star(k, 1.0 + self._scipy_w((k - 1.0) / math.e))
            # as K -> 0, W nears its branch point, where it is ill-conditioned and scipy loses digits
            tol = 1e-12 if k >= 1e-6 else 1e-9
            assert abs(ours - ref) <= tol * abs(ref), k

    def test_one_minus_alpha_star_matches_bisection_over_k(self):
        rng = np.random.default_rng(13)
        ks = np.concatenate([
            10.0 ** rng.uniform(-300.0, 0.0, 300),
            [1e-300, 1e-12, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, math.nextafter(1.0, 0.0)],
        ])
        for k in map(float, ks):
            ours = k / (k + math.expm1(_w_plus_one(k)))
            ref = k / (k + math.expm1(w_plus_one_bisection(-math.log1p(-k))))
            # the oracle returns the low end of its last bracket, and each side rounds expm1,
            # the sum and the quotient; W of the rounded (K-1)/e would miss by 1.4e-13 at K = 1e-4
            assert abs(ours - ref) <= 1.5e-15 * ref, k

    def test_unit_k_is_one_minus_inverse_e(self):
        assert _w_plus_one(1.0) == 1.0
        assert _alpha_star(1.0, _w_plus_one(1.0)) == _alpha_star(1.0, 1.0 + self._scipy_w(0.0))
        assert _alpha_star(1.0, _w_plus_one(1.0)) == pytest.approx(1.0 - 1.0 / math.e, rel=1e-15)

    def test_branch_point(self):
        assert _w_plus_one(0.0) == 0.0
        # K so small that (K-1)/e rounds to the branch point: the offset K itself still gives y
        assert (1e-30 - 1.0) / math.e == -1.0 / math.e
        assert _w_plus_one(1e-30) == pytest.approx(math.sqrt(2e-30), rel=1e-14)
        assert 1.0 - _alpha_star(1e-30, _w_plus_one(1e-30)) < 1e-15

    @pytest.mark.parametrize("x", [-0.36, -0.3, -0.25, -1e-3, 1e-300, 1e-3, 0.5, 2.9, 3.0, 1e3, 1e300, 6e307])
    def test_solves_w_exp_w(self, x):
        w = _w_plus_one(math.e * x + 1.0) - 1.0
        # exp amplifies the rounding of w by a factor of about w; the offset e x + 1 keeps x to 1.1e-16
        assert w * math.exp(w) == pytest.approx(x, rel=1e-14 * max(1.0, abs(w)), abs=1.2e-16)
        assert w == pytest.approx(self._scipy_w(x), rel=1e-14, abs=1.2e-16)


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
            L = r_v * math.log(2.0)
            y = w_plus_one_bisection(L)
            ref = y / (L + y)
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
    """Seeded random configs, each with both rates on a dense grid and a budget.

    The grid is 201 uniform points on (1e-6, 1 - 1e-6) plus 41 within 1e-3 of
    the closed-form effective optimum, where a grid point can come closest to
    beating it.
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
        values = {
            "effective": np.array([effective_rate(cfg, float(a)) for a in grid]),
            "ergodic": np.array([ergodic_rate(cfg, float(a)) for a in grid]),
        }
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
            assert res.objective_value >= values["effective"].max() * (1.0 - 1e-12), cfg
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
            assert raised[-1] == (values["effective"].max() == 0.0)
        assert any(raised) and not all(raised)

    @pytest.mark.parametrize("objective, optimizer", [
        ("effective", optimize_alpha_effective_constrained),
        ("ergodic", optimize_alpha_ergodic_constrained),
    ], ids=["effective", "ergodic"])
    def test_constrained_optimum_is_at_least_the_feasible_grid_maximum(self, random_designs, objective, optimizer):
        # the KKT split is exact: expected_power rises with alpha and both rates are unimodal in it.
        # Each design is checked at its drawn budget and at a tight one, between the powers of grid
        # points 50 and 51 (alpha about 0.25)
        checked = bound = 0
        for cfg, _, values, powers, drawn in random_designs:
            for budget in (drawn, powers[50:52].mean()):
                feasible = values[objective][powers <= budget]
                try:
                    res = optimizer(cfg, budget)
                except NoInteriorMaximumError:
                    continue
                assert expected_power(cfg, res.alpha_opt) <= budget * (1.0 + 1e-12)
                if feasible.size:
                    assert res.objective_value >= feasible.max() * (1.0 - 1e-12), cfg
                checked += 1
                bound += res.binding is Binding.POWER_CONSTRAINED
        assert checked >= 60 and bound >= 10


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
