"""RIS power-consumption model and its inverse in the time-switching factor.

Expected consumption is nu1(alpha) * amp_signal + amp_noise + static, with
amp_signal = sum rho^2 zeta_h, amp_noise = sigma_v^2 sum rho^2, and
static = M (P1 + P2). Two modes: "nominal" (default) applies the
harvested-power coefficient to the amplified signal directly, "physical"
additionally weights it by the hub->device link gain (|h_p|^2 per
realization, zeta_p in expectation). Passive mode has no amplifiers, so
both amplifier terms vanish and only the static term remains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDraw
from .closedform import _Run
from .config import ConfigValidationError, RisMode, SystemConfig, harvested_power_coefficient

__all__ = [
    "PowerBudgetInfeasibleError",
    "PowerBudgetInactiveError",
    "PowerModel",
    "power_model",
    "expected_power",
    "instantaneous_power",
    "inverse_power",
]

_MODES = ("nominal", "physical")


class PowerBudgetInfeasibleError(ValueError):
    """The budget sits at or below the alpha-independent consumption floor."""


class PowerBudgetInactiveError(ValueError):
    """Consumption is alpha-independent and never reaches the budget."""


@dataclass(frozen=True)
class PowerModel:
    """Expected-consumption coefficients, all in mW (amp_signal per unit nu1)."""

    amp_signal_term: float
    amp_noise_term: float
    static_term: float


def power_model(cfg: SystemConfig, mode: str = "nominal") -> PowerModel:
    """cfg's coefficients; ConfigValidationError on the fields of a term, or of the floor, that overflows."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    static = cfg.M * (cfg.p1_mw + cfg.p2_mw)
    amp_signal = amp_noise = 0.0
    if cfg.ris_mode is RisMode.ACTIVE:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            rho2 = cfg.rho_effective**2
            amp_signal = float(np.sum(rho2 * cfg.zeta_h)) * (cfg.zeta_p if mode == "physical" else 1.0)
            amp_noise = cfg.sigma_v2_mw * float(np.sum(rho2))
    for fields, term in (("rho, d_h, d_p" if mode == "physical" else "rho, d_h", amp_signal),
                         ("rho, sigma_v2_dbm", amp_noise), ("M, P1_dbm, P2_dbm", static),
                         ("rho, sigma_v2_dbm, M, P1_dbm, P2_dbm", amp_noise + static)):
        if not math.isfinite(term):
            raise ConfigValidationError(fields, "the expected RIS power overflows; it must be finite")
    return PowerModel(amp_signal, amp_noise, static)


def _expected_powers(run: _Run, mode: str = "nominal") -> list[float]:
    """expected_power at each point of the run: nu1 times amp_signal, plus the alpha-free terms."""
    nu1s, model = run.nu1s, power_model(run.cfg, mode)
    powers = [nu1 * model.amp_signal_term + model.amp_noise_term + model.static_term for nu1 in nu1s]
    for alpha, power in zip(run.alphas, powers):
        if not math.isfinite(power):
            raise ConfigValidationError("P_p_dbm",
                                        f"the expected RIS power overflows at alpha={alpha}; it must be finite")
    return powers


def expected_power(cfg: SystemConfig, alpha: float, mode: str = "nominal") -> float:
    """Expected RIS consumption at a given time-switching factor, mW."""
    return _expected_powers(_Run(cfg, (alpha,), (cfg.P_p_dbm,)), mode)[0]


def instantaneous_power(
    cfg: SystemConfig, draw: ChannelDraw, alpha: float, mode: str = "nominal"
) -> float:
    """Consumption for one channel realization, mW.

    The expected model with its amplified-signal term taken per draw:
    |h_m|^2 in place of zeta_h, and |h_p|^2 in place of zeta_p in physical mode.
    """
    model = power_model(cfg, mode)
    if len(draw.h_mag) != cfg.M:
        raise ValueError(f"draw.h_mag has length {len(draw.h_mag)}, expected M={cfg.M}")
    nu1 = harvested_power_coefficient(cfg, alpha)
    amp_signal = 0.0
    if cfg.ris_mode is RisMode.ACTIVE:
        scale = draw.h_p_mag**2 if mode == "physical" else 1.0
        amp_signal = nu1 * scale * float(np.sum(cfg.rho_effective**2 * draw.h_mag**2))
    return amp_signal + model.amp_noise_term + model.static_term


def inverse_power(cfg: SystemConfig, P_R: float, mode: str = "nominal") -> float:
    """The alpha at which expected consumption equals the budget P_R (mW).

    Closed form: nu1 = (P_R - floor) / amp_signal, alpha = nu1/(eta P_p + nu1).
    Raises PowerBudgetInfeasibleError when the budget is not above the
    alpha-independent floor, PowerBudgetInactiveError when consumption never
    reaches the budget for any alpha (no amplified-signal term).
    """
    model = power_model(cfg, mode)
    floor = model.amp_noise_term + model.static_term
    if P_R <= floor:
        raise PowerBudgetInfeasibleError(
            f"budget {P_R} mW is not above the alpha-independent floor {floor} mW"
        )
    if model.amp_signal_term == 0.0:
        raise PowerBudgetInactiveError(
            f"consumption is constant at {floor} mW; the {P_R} mW budget never binds"
        )
    nu1_budget = (P_R - floor) / model.amp_signal_term
    return nu1_budget / (cfg.eta * cfg.p_p_mw + nu1_budget)
