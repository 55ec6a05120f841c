"""Active-RIS reflection model: phase-quantization residual moments and cascade moments."""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MAX_PHASE_BITS",
    "PhaseErrorStats",
    "phase_error_stats",
    "cascade_moment",
]

#: Largest supported phase resolution. From 28 bits on, the residual's
#: moments equal those of ideal (continuous) phases to double precision, and
#: far beyond it tau = pi*2^-b underflows to zero.
MAX_PHASE_BITS = 32


@dataclass(frozen=True)
class PhaseErrorStats:
    """Trigonometric moments of the uniform quantization residual.

    For b quantization bits the residual is uniform on [-tau, tau) with
    tau = pi*2^-b, giving E{cos} = sin(tau)/tau,
    E{cos^2} = sin(2 tau)/(4 tau) + 1/2 and E{sin^2} = 1 - E{cos^2}.
    E{sin} vanishes by symmetry.
    """

    tau: float
    e_cos: float
    e_cos2: float
    e_sin2: float


def phase_error_stats(b: int) -> PhaseErrorStats:
    if not 1 <= b <= MAX_PHASE_BITS:
        raise ValueError(f"b must lie in [1, {MAX_PHASE_BITS}], got {b}")
    tau = math.pi * 2.0 ** (-b)
    e_cos = math.sin(tau) / tau
    e_cos2 = math.sin(2.0 * tau) / (4.0 * tau) + 0.5
    return PhaseErrorStats(tau=tau, e_cos=e_cos, e_cos2=e_cos2, e_sin2=1.0 - e_cos2)


def cascade_moment(n: int, rho_m: float, zeta_g: float, zeta_h: float) -> float:
    """n-th moment of the amplified cascaded magnitude rho*|g_m|*|h_m|.

    Independent Rayleigh factors give
    rho^n * (zeta_g*zeta_h)^(n/2) * Gamma(n/2 + 1)^2.
    """
    if n < 1:
        raise ValueError("moment order must be >= 1")
    # Gamma(n/2 + 1) overflows a double from n = 342 on
    g = math.gamma(n / 2.0 + 1.0) if n < 342 else math.inf
    return float(rho_m**n * (zeta_g * zeta_h) ** (n / 2.0) * (g * g))
