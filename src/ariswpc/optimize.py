"""Time-switching-factor optimizers for the ergodic and effective rates.

Both unconstrained maximizers are Lambert-W closed forms: for the ergodic
rate (1-alpha) log2(1 + K alpha/(1-alpha)), Ju & Zhang (IEEE TWC 2014); for
the effective rate (1 - P_O) r_v, the minimizer of c(alpha) = kappa/nu1,
since the SINR is nu1(alpha) times an alpha-free gain. That point depends
on r_v alone and is reported alongside the paper's candidate
1/(ln 2 * r_v + 1). Power-constrained variants apply the KKT case split:
keep the interior optimum when it is feasible, otherwise return the budget
boundary inverse_power(P_R). The split is exact for both rates:
expected_power rises with alpha, so the feasible set is (0, alpha_budget];
the ergodic rate is the perspective of the concave log2(1 + K z), hence
concave in alpha, and the effective rate is unimodal in alpha, as c is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .closedform import _LN2, _Run, _effective_slope, effective_rate, ergodic_rate, ergodic_terms
from .config import SystemConfig
from .power import expected_power, inverse_power

__all__ = [
    "Binding",
    "NoInteriorMaximumError",
    "OptResult",
    "effective_alpha_closed_form",
    "ergodic_optima",
    "ergodic_rate_derivative",
    "optimize_alpha_ergodic",
    "optimize_alpha_ergodic_constrained",
    "optimize_alpha_effective",
    "optimize_alpha_effective_constrained",
]

_ALPHA_LO = 1e-6
_ALPHA_HI = 1.0 - 1e-6
# W(x) + 1 as a power series in p = sqrt(2(e x + 1)), lowest order first
_BRANCH_SERIES = (1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0, -221.0 / 8505.0)
# (y + expm1(-y))/y^2 = 1/2! - y/3! + y^2/4! - ..., summed to 1e-17 below y = 1/2
_EXPM1_TAIL = tuple((-1.0) ** k / math.factorial(k + 2) for k in range(14))


class Binding(str, Enum):
    INTERIOR = "interior"
    POWER_CONSTRAINED = "power_constrained"


class NoInteriorMaximumError(RuntimeError):
    """The rate has no maximum strictly inside the search interval."""


@dataclass(frozen=True)
class OptResult:
    """Optimizer outcome.

    residual is |d rate/d alpha| at interior optima, which are closed
    forms (iterations is 0), and |expected_power - P_R| for budget-bound
    solutions.
    alpha_closed_form carries the analytic effective-rate candidate where
    one exists (None otherwise).
    """

    alpha_opt: float
    objective_value: float
    binding: Binding
    iterations: int
    residual: float
    alpha_closed_form: float | None = None


def _ergodic_slope(k: float, alpha: float) -> float:
    """d/d alpha of (1-alpha) log2(1 + z), z = K alpha/(1-alpha): (K/((1-alpha)(1+z)) - ln(1+z)) / ln 2."""
    z = k * alpha / (1.0 - alpha)
    return (k / ((1.0 - alpha) * (1.0 + z)) - math.log1p(z)) / math.log(2.0)


def ergodic_rate_derivative(cfg: SystemConfig, alpha: float) -> float:
    """d/d alpha of the closed-form ergodic rate, bits/s/Hz per unit alpha, at K = t7/t6 (_ergodic_slope)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t = ergodic_terms(cfg)
    return _ergodic_slope(t.t7 / t.t6, alpha)


def _polyval(coeffs, x: float) -> float:
    """sum_k coeffs[k] x^k by Horner's rule."""
    s = 0.0
    for c in reversed(coeffs):
        s = s * x + c
    return s


def _w_plus_one(d: float) -> float:
    """y = 1 + W0((d - 1)/e), the root of (1 - y) e^y = 1 - d, from the branch offset d >= 0.

    Both optima solve this equation, and both know d exactly; from the rounded
    (d - 1)/e, y would lose d's leading digits as d -> 0. Below p = sqrt(2d) = 3e-3
    the six-term branch series in p is the answer (its error is below 1e-19). Above,
    Halley's iteration for W (Corless et al., 1996), written in y and d, starts from
    that series for d < 1 and from log(d + e - 1), which is 1 + log1p((d - 1)/e),
    beyond. In its residual y and expm1(-y) cancel near the branch point, leaving
    noise of about eps/y in each step, so below y = 1/2 their sum is a Taylor
    series. The error falls as the cube of the step, about (step/y)^3 y^2/12
    relative, so a step below 1e-7 y leaves less than an ulp for every y below 710.
    """
    p = math.sqrt(2.0 * d)
    y = p * _polyval(_BRANCH_SERIES, p) if d < 1.0 else math.log(d + (math.e - 1.0))
    if p < 3e-3:
        return y
    for _ in range(32):
        tail = y * y * _polyval(_EXPM1_TAIL, y) if y < 0.5 else y + math.expm1(-y)
        f = tail - d * math.exp(-y)  # (w e^w - x)/e^w with w = y - 1, x = (d - 1)/e
        step = f / (y - (y + 1.0) * f / (2.0 * y))
        y -= step
        if abs(step) <= 1e-7 * y:
            break
    return y


def ergodic_optima(cfg: SystemConfig, P_p_dbms) -> list[OptResult]:
    """optimize_alpha_ergodic(cfg at hub power P_p_dbm) for each P_p_dbm, all from cfg's one link model."""
    ks = _Run(cfg, (), P_p_dbms).ks
    zs = [math.expm1(_w_plus_one(k)) for k in ks]
    alphas = [z / (k + z) if k != 0.0 else 1.0 for k, z in zip(ks, zs)]  # 1 is the limit as K -> 0
    for k, alpha in zip(ks, alphas):
        if not _ALPHA_LO < alpha < _ALPHA_HI:
            raise NoInteriorMaximumError(
                f"the ergodic rate has no interior maximum on ({_ALPHA_LO}, {_ALPHA_HI}): "
                f"the stationary point is alpha={alpha:.3e} (K={k:.3e})"
            )
    rates = _Run(cfg, alphas, P_p_dbms).rates
    return [OptResult(a, rate, Binding.INTERIOR, 0, abs(_ergodic_slope(k, a))) for k, a, rate in zip(ks, alphas, rates)]


def optimize_alpha_ergodic(cfg: SystemConfig) -> OptResult:
    """Interior maximizer of the ergodic rate in closed form.

    With K = t7/t6, the root of the derivative is alpha* = z/(K + z) where
    z = expm1(y) and y = 1 + W((K-1)/e), W the principal Lambert-W branch
    taken from its branch offset K (_w_plus_one); at K = 1 this is 1 - 1/e.
    iterations is 0 and residual is the derivative at alpha*. As K -> 0,
    alpha* -> 1, which is reported as NoInteriorMaximumError.
    """
    return ergodic_optima(cfg, [cfg.P_p_dbm])[0]


def effective_alpha_closed_form(r_v: float) -> float | None:
    """Analytic effective-rate candidate 1/(ln 2 * r_v + 1); depends on r_v only.

    Returns None where the candidate rounds to 1, outside (0, 1): at r_v = 0,
    where the effective rate is identically 0, and for r_v below about 1.6e-16.
    """
    if r_v < 0.0:
        raise ValueError("r_v must be >= 0")
    alpha = 1.0 / (math.log(2.0) * r_v + 1.0)
    return alpha if alpha < 1.0 else None


def _effective_alpha(r_v: float) -> float:
    """The minimizer y/(L + y) of c(alpha) for r_v > 0, with L = r_v ln 2 and y = 1 + W0(-e^(-1-L)).

    In x = L/(1-alpha), c is proportional to (e^x - 1)/(x - L), least at x = L + y.
    W's branch offset is d = 1 - e^-L, taken from L directly (_w_plus_one).
    """
    L = r_v * _LN2
    y = _w_plus_one(-math.expm1(-L))
    return y / (L + y)


def optimize_alpha_effective(cfg: SystemConfig) -> OptResult:
    """Maximizer of (1 - P_O(alpha)) r_v in closed form, plus the paper's candidate.

    The outage rises with c(alpha) = kappa/nu1 at any gain law, so the
    maximizer is c's minimizer (_effective_alpha); iterations is 0. Raises
    NoInteriorMaximumError when r_v = 0, when that point lies outside
    (1e-6, 1 - 1e-6), or when the rate is exactly 0 there, hence everywhere.
    """
    alpha = _effective_alpha(cfg.r_v) if cfg.r_v > 0.0 else 1.0  # its limit as r_v -> 0
    inside = _ALPHA_LO < alpha < _ALPHA_HI
    run = _Run(cfg, (alpha,), (cfg.P_p_dbm,))  # the value and the slope read its one quadrature
    value = float(run.coverages[0]) * cfg.r_v if inside else 0.0
    if value == 0.0:
        reason = "and is 0 there, so at every alpha" if inside else f"outside ({_ALPHA_LO}, {_ALPHA_HI})"
        raise NoInteriorMaximumError(
            f"the effective rate has no interior maximum: it peaks at alpha={alpha:.9g} {reason}"
        )
    return OptResult(
        alpha_opt=alpha,
        objective_value=value,
        binding=Binding.INTERIOR,
        iterations=0,
        residual=abs(_effective_slope(run)),
        alpha_closed_form=effective_alpha_closed_form(cfg.r_v),
    )


def _apply_power_constraint(cfg, unconstrained: OptResult, rate, P_R=None, mode="nominal") -> OptResult:
    """The KKT case split on an unconstrained optimum of the closed-form rate(cfg, alpha)."""
    if P_R is None:
        P_R = cfg.P_R_mw
    # without an amplified-signal term the power is its floor at every alpha: it meets
    # the budget here, or inverse_power raises PowerBudgetInfeasibleError
    if expected_power(cfg, unconstrained.alpha_opt, mode) <= P_R:
        return unconstrained
    alpha = inverse_power(cfg, P_R, mode)
    return replace(unconstrained, alpha_opt=alpha, objective_value=rate(cfg, alpha),
                   binding=Binding.POWER_CONSTRAINED, residual=abs(expected_power(cfg, alpha, mode) - P_R))


def optimize_alpha_ergodic_constrained(
    cfg: SystemConfig, P_R: float | None = None, mode: str = "nominal"
) -> OptResult:
    """Ergodic-rate maximizer subject to expected_power(alpha) <= P_R."""
    return _apply_power_constraint(cfg, optimize_alpha_ergodic(cfg), ergodic_rate, P_R, mode)


def optimize_alpha_effective_constrained(
    cfg: SystemConfig, P_R: float | None = None, mode: str = "nominal"
) -> OptResult:
    """Effective-rate maximizer subject to expected_power(alpha) <= P_R."""
    return _apply_power_constraint(cfg, optimize_alpha_effective(cfg), effective_rate, P_R, mode)
