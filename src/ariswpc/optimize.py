"""Time-switching-factor optimizers for the ergodic and effective rates.

The ergodic rate (1-alpha) log2(1 + K alpha/(1-alpha)) is the
harvest-then-transmit objective of Ju & Zhang (IEEE TWC 2014), whose
unique interior maximizer has a Lambert-W closed form. The effective rate
is maximized numerically (coarse grid plus golden-section refinement) and
reported alongside its closed-form candidate 1/(ln 2 * r_v + 1).
Power-constrained variants apply the KKT case split: keep the interior
optimum when it is feasible, otherwise return the budget boundary
inverse_power(P_R); a grid re-check warns if the restricted objective is
not maximized at the returned point.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closedform import effective_rate, ergodic_rate, ergodic_terms
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
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
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

    residual is |d rate/d alpha| at the optimum for interior derivative
    roots, |expected_power - P_R| for budget-bound solutions, and for
    golden-section maximizers the tolerance tol, the width the search
    bracket was narrowed to (the final bracket is at most that wide). That
    bounds the bracket, not the error in alpha_opt: near the peak the
    objective's rounding noise exceeds its fall-off over tol, so a
    golden-section alpha_opt is good to a few 1e-7.
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
        w = 0.0
        for c in reversed(_BRANCH_SERIES):
            w = w * p + c
        w = -1.0 + p * w
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


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Golden-section maximizer of a unimodal f on [lo, hi]."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        iterations += 1
    return 0.5 * (lo + hi), iterations


def effective_alpha_closed_form(r_v: float) -> float | None:
    """Analytic effective-rate candidate 1/(ln 2 * r_v + 1); depends on r_v only.

    Returns None at r_v = 0: the outage is then 0 at every alpha, the
    effective rate is identically 0, and the candidate 1 lies outside (0, 1).
    """
    if r_v < 0.0:
        raise ValueError("r_v must be >= 0")
    if r_v == 0.0:
        return None
    return 1.0 / (math.log(2.0) * r_v + 1.0)


def optimize_alpha_effective(cfg: SystemConfig, tol: float = 1e-7) -> OptResult:
    """Numeric maximizer of (1 - P_O(alpha)) r_v, plus the closed-form candidate.

    The two are reported side by side and deliberately not reconciled: the
    closed form comes from a single-term surrogate of the outage integral.
    Raises NoInteriorMaximumError when the coarse grid peaks at either end,
    which includes an objective that is flat (all zero) over the grid.
    """
    closed = effective_alpha_closed_form(cfg.r_v)

    def objective(a: float) -> float:
        return effective_rate(cfg, a)

    grid = np.linspace(_ALPHA_LO, _ALPHA_HI, 401)
    values = [objective(a) for a in grid]
    i = int(np.argmax(values))
    if i in (0, len(grid) - 1):
        raise NoInteriorMaximumError(
            f"the effective rate peaks at the end alpha={grid[i]:.6g} of the search grid "
            f"(value {values[i]:.3e}); it has no interior maximum"
        )
    lo, hi = grid[i - 1], grid[i + 1]
    alpha, iterations = _golden_max(objective, lo, hi, tol)
    return OptResult(
        alpha_opt=float(alpha),
        objective_value=objective(alpha),
        binding=Binding.INTERIOR,
        iterations=iterations,
        residual=tol,
        alpha_closed_form=closed,
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
    result = OptResult(
        alpha_opt=alpha,
        objective_value=objective(alpha),
        binding=Binding.POWER_CONSTRAINED,
        iterations=unconstrained.iterations,
        residual=abs(expected_power(cfg, alpha, mode) - P_R),
        alpha_closed_form=unconstrained.alpha_closed_form,
    )
    _recheck_constrained(cfg, objective, result, P_R, mode)
    return result


def optimize_alpha_ergodic_constrained(
    cfg: SystemConfig, P_R: float | None = None, mode: str = "nominal"
) -> OptResult:
    """Ergodic-rate maximizer subject to expected_power(alpha) <= P_R."""
    if P_R is None:
        P_R = cfg.P_R_mw
    unconstrained = optimize_alpha_ergodic(cfg)
    return _apply_power_constraint(
        cfg, unconstrained, lambda a: ergodic_rate(cfg, a), P_R, mode
    )


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
