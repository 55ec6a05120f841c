"""Time-switching-factor optimizers for the ergodic and effective rates.

Both unconstrained maximizers are Lambert-W closed forms: for the ergodic
rate (1-alpha) log2(1 + K alpha/(1-alpha)), Ju & Zhang (IEEE TWC 2014); for
the effective rate (1 - P_O) r_v, the minimizer of c(alpha) = kappa/nu1,
since the SINR is nu1(alpha) times an alpha-free gain. That point depends
on r_v alone and is reported alongside the paper's candidate
1/(ln 2 * r_v + 1). Power-constrained variants apply the KKT case split:
keep the interior optimum when it is feasible, otherwise return the budget
boundary inverse_power(P_R). The effective rate is unimodal in alpha, as c
is; for the ergodic rate a grid re-check warns if the restricted objective
is not maximized at the returned point.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closedform import _LN2, effective_rate, effective_rate_derivative, ergodic_rate, ergodic_terms
from .config import SystemConfig
from .power import PowerBudgetInactiveError, expected_power, inverse_power

__all__ = [
    "Binding",
    "NoInteriorMaximumError",
    "OptResult",
    "effective_alpha_closed_form",
    "ergodic_rate_derivative",
    "optimize_alpha_ergodic",
    "optimize_alpha_ergodic_constrained",
    "optimize_alpha_effective",
    "optimize_alpha_effective_constrained",
]

_ALPHA_LO = 1e-6
_ALPHA_HI = 1.0 - 1e-6
# 1/e split as the nearest double plus its remainder, so that x + 1/e keeps
# its leading digits near the Lambert-W branch point x = -1/e
_INV_E = math.exp(-1.0)
_INV_E_LO = -1.2428753672788363e-17
# W(x) + 1 as a power series in p = sqrt(2(e x + 1)), lowest order first
_BRANCH_SERIES = (1.0, -1.0 / 3.0, 11.0 / 72.0, -43.0 / 540.0, 769.0 / 17280.0, -221.0 / 8505.0)


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


def ergodic_rate_derivative(cfg: SystemConfig, alpha: float) -> float:
    """d/d alpha of the closed-form ergodic rate, bits/s/Hz per unit alpha.

    With K = t7/t6 and z = K alpha/(1-alpha) it is
    (K/((1-alpha)(1+z)) - ln(1+z)) / ln 2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t = ergodic_terms(cfg)
    k = t.t7 / t.t6
    z = k * alpha / (1.0 - alpha)
    return (k / ((1.0 - alpha) * (1.0 + z)) - math.log1p(z)) / math.log(2.0)


def _branch_series(p: float) -> float:
    """W + 1 as a series in p = sqrt(2(e x + 1)); its error is below 1e-19 for p < 3e-3."""
    s = 0.0
    for c in reversed(_BRANCH_SERIES):
        s = s * p + c
    return p * s


def _lambertw0(x: float) -> float:
    """Principal real branch of the Lambert W function: w e^w = x, w >= -1.

    NaN for x at or below the branch point -1/e (the double nearest -1/e
    lies just below it). Halley's iteration (Corless et al., "On the Lambert
    W function", 1996) from the branch-point series in p = sqrt(2(e x + 1))
    for x < -1/4, from log1p(x) up to x = 3 and from log x - log log x
    beyond. For p < 3e-3 the six-term series is the answer: its error is
    below 1e-19 there, under the rounding noise of a Halley step.
    """
    if not x > -_INV_E:
        return math.nan
    if x < -0.25:
        p = math.sqrt(2.0 * math.e * ((x + _INV_E) + _INV_E_LO))
        w = _branch_series(p) - 1.0
        if p < 3e-3:
            return w
    elif x < 3.0:
        w = math.log1p(x)
    else:
        log_x = math.log(x)
        w = log_x - math.log(log_x)
    for _ in range(32):
        f = w - x * math.exp(-w)  # (w e^w - x) / e^w, which does not overflow
        step = f / (w + 1.0 - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 4e-16 * abs(w):
            break
    return w


def optimize_alpha_ergodic(cfg: SystemConfig) -> OptResult:
    """Interior maximizer of the ergodic rate in closed form.

    With K = t7/t6, the root of the derivative is alpha* = (z-1)/(K+z-1)
    where z = exp(1 + W((K-1)/e)) and W is the principal Lambert-W branch;
    at K = 1 this is 1 - 1/e. iterations is 0 and residual is the
    derivative at alpha*. As K -> 0, alpha* -> 1; once (K-1)/e rounds to
    the branch point, W is NaN and so is alpha*, which is reported as
    NoInteriorMaximumError.
    """
    t = ergodic_terms(cfg)
    k = t.t7 / t.t6
    z = math.exp(1.0 + _lambertw0((k - 1.0) / math.e))
    alpha = (z - 1.0) / (k + z - 1.0)
    if not _ALPHA_LO < alpha < _ALPHA_HI:
        raise NoInteriorMaximumError(
            f"the ergodic rate has no interior maximum on ({_ALPHA_LO}, {_ALPHA_HI}): "
            f"the stationary point is alpha={alpha:.3e} (K={k:.3e})"
        )
    return OptResult(
        alpha_opt=alpha,
        objective_value=ergodic_rate(cfg, alpha),
        binding=Binding.INTERIOR,
        iterations=0,
        residual=abs(ergodic_rate_derivative(cfg, alpha)),
    )


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
    W enters through d = 1 - e^-L, the branch offset e x + 1 of its argument, from L
    directly: from the rounded x it would lose its leading digits, and 1 - alpha with
    them, as r_v -> 0. The Halley step is _lambertw0's, its residual written in y and d.
    """
    L = r_v * _LN2
    d = -math.expm1(-L)
    p = math.sqrt(2.0 * d)
    y = _branch_series(p)
    if p >= 3e-3:
        for _ in range(32):
            f = y + math.expm1(-y) - d * math.exp(-y)
            step = f / (y - (y + 1.0) * f / (2.0 * y))
            y -= step
            if abs(step) <= 4e-16 * y:
                break
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
    value = effective_rate(cfg, alpha) if inside else 0.0
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
        residual=abs(effective_rate_derivative(cfg, alpha)),
        alpha_closed_form=effective_alpha_closed_form(cfg.r_v),
    )


def _recheck_constrained(cfg, objective, result: OptResult, P_R: float, mode: str):
    """Grid sanity check of the KKT case split; warns instead of failing."""
    grid = np.linspace(_ALPHA_LO, _ALPHA_HI, 513)
    feasible = [a for a in grid if expected_power(cfg, a, mode) <= P_R]
    if not feasible:
        return
    best = max(objective(a) for a in feasible)
    if best > result.objective_value + 1e-6 * max(1.0, abs(best)):
        warnings.warn(
            f"constrained optimum {result.objective_value:.6g} at alpha="
            f"{result.alpha_opt:.6g} is beaten by {best:.6g} on the feasibility "
            "grid; the rate may not be unimodal for this configuration",
            RuntimeWarning,
            stacklevel=3,
        )


def _apply_power_constraint(cfg, unconstrained: OptResult, objective, P_R, mode):
    try:
        if expected_power(cfg, unconstrained.alpha_opt, mode) <= P_R:
            return unconstrained
        alpha = inverse_power(cfg, P_R, mode)
    except PowerBudgetInactiveError:
        return unconstrained
    return OptResult(
        alpha_opt=alpha,
        objective_value=objective(alpha),
        binding=Binding.POWER_CONSTRAINED,
        iterations=unconstrained.iterations,
        residual=abs(expected_power(cfg, alpha, mode) - P_R),
        alpha_closed_form=unconstrained.alpha_closed_form,
    )


def optimize_alpha_ergodic_constrained(
    cfg: SystemConfig, P_R: float | None = None, mode: str = "nominal"
) -> OptResult:
    """Ergodic-rate maximizer subject to expected_power(alpha) <= P_R."""
    if P_R is None:
        P_R = cfg.P_R_mw
    objective = lambda a: ergodic_rate(cfg, a)  # noqa: E731
    result = _apply_power_constraint(cfg, optimize_alpha_ergodic(cfg), objective, P_R, mode)
    if result.binding is Binding.POWER_CONSTRAINED:
        _recheck_constrained(cfg, objective, result, P_R, mode)
    return result


def optimize_alpha_effective_constrained(
    cfg: SystemConfig, P_R: float | None = None, mode: str = "nominal"
) -> OptResult:
    """Effective-rate maximizer subject to expected_power(alpha) <= P_R."""
    if P_R is None:
        P_R = cfg.P_R_mw
    unconstrained = optimize_alpha_effective(cfg)
    return _apply_power_constraint(
        cfg, unconstrained, lambda a: effective_rate(cfg, a), P_R, mode
    )
