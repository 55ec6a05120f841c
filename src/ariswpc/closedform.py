"""Closed-form link analysis: ergodic rate, outage probability, effective rate.

Every closed form is an alpha-free channel statistic of the config composed
with the harvested-power coefficient nu1(alpha). Those statistics form the
config's link model, built once on first use and kept on the config
(_link_model): the channel-moment aggregates t1..t7, the Gamma fit of the
composite amplitude, and the outage quadrature's nodes with the alpha-free
part of their log terms. The rates, the outage and their optimizers apply
nu1(alpha) and the outage threshold kappa(alpha) to it.

The ergodic rate uses the expectation-ratio approximation
E{log2(1+x/y)} ~ log2(1+E{x}/E{y}) with exact channel moments on both
sides. The outage probability moment-matches the in-phase composite
amplitude X = |f| + sum_m rho_m |g_m||h_m| cos(phi_m) to a Gamma(s, r)
distribution and integrates the hub-link exponential CDF against its
density with a Gauss-Chebyshev rule under the log-space substitution
log t = log(mean_x) + tan((pi/2) x) / sqrt(s), which centres the nodes on
the density at every geometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigValidationError, SystemConfig, harvested_power_coefficient
from .ris import phase_error_stats

__all__ = [
    "ErgodicTerms",
    "GammaFit",
    "ergodic_terms",
    "ergodic_rate",
    "gamma_fit",
    "outage_probability",
    "effective_rate",
    "effective_rate_derivative",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ErgodicTerms:
    """Channel-moment aggregates entering the ergodic-rate closed form.

    t1:  direct-link power product zeta_p * zeta_f
    t2:  cross-term weight zeta_p * sqrt(pi * zeta_f)
    t3:  mean amplified cascade amplitude, sum over elements
    t4:  cascade power spread (per-element variance + quadrature leakage)
    t5:  squared mean of the hub-weighted cascade amplitude
    t6:  effective noise floor sigma_v^2 * sum rho^2 zeta_g + sigma_n^2
    t7:  eta * P_p * (t1 + t2*t3 + t4 + t5), the alpha-free rate numerator
    """

    t1: float
    t2: float
    t3: float
    t4: float
    t5: float
    t6: float
    t7: float


@dataclass(frozen=True)
class GammaFit:
    """Moment-matched Gamma(s, r) model of the composite amplitude X."""

    s: float        # shape, mean^2 / variance
    r: float        # scale, variance / mean
    mean_x: float
    var_x: float

    def cdf(self, x):
        """Regularized lower incomplete gamma at x/r; 0 for x < 0.

        The one library use of scipy, imported here so that importing the
        package loads numpy only.
        """
        from scipy.special import gammainc

        x = np.asarray(x, dtype=float)
        out = np.where(x > 0, gammainc(self.s, np.maximum(x, 0.0) / self.r), 0.0)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = (
                (self.s - 1.0) * np.log(x)
                - x / self.r
                - self.s * math.log(self.r)
                - math.lgamma(self.s)
            )
        out = np.where(x > 0, np.exp(logp), 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class _LinkModel:
    """The alpha-free statistics of one config; see _build_link_model."""

    terms: ErgodicTerms
    signal: float                # t1 + t2 t3 + t4 + t5, the mean SINR numerator over nu1
    fit: GammaFit | None         # None where Var X = 0
    log_t: np.ndarray | None     # quadrature nodes log t_u
    log_base: np.ndarray | None  # log terms of the outage integral without their -c/t_u^2


def _build_link_model(cfg: SystemConfig) -> _LinkModel:
    """The aggregates t1..t7, the Gamma fit of X and the outage quadrature's nodes and log terms.

    Raises ConfigValidationError when an aggregate overflows (a huge gain or
    very short cascade distances) or K = t7/t6 does (a huge hub power), before
    any closed form can return inf or nan.
    """
    stats = phase_error_stats(cfg.b)
    c1 = (math.pi / 4.0) * stats.e_cos  # E{cascade amplitude} weight per element
    rho = cfg.rho_effective
    zp, zf = cfg.zeta_p, cfg.zeta_f
    zg, zh = cfg.zeta_g, cfg.zeta_h

    t1 = zp * zf
    t2 = zp * math.sqrt(math.pi * zf)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        t3 = float(np.sum(c1 * rho * np.sqrt(zg * zh)))
        t4 = float(np.sum(rho**2 * zp * zg * zh * (1.0 - c1**2)))
        t5 = float(np.sum(c1 * rho * np.sqrt(zp * zg * zh)) ** 2)
        t6 = cfg.sigma_v2_mw * float(np.sum(rho**2 * zg)) + cfg.sigma_n2_mw
        var_x = zf * (1.0 - math.pi / 4.0) + float(np.sum(rho**2 * zg * zh * (stats.e_cos2 - c1**2)))
    signal = t1 + t2 * t3 + t4 + t5
    if not all(map(math.isfinite, (t1, t2, t3, t4, t5, t6, signal, var_x))):
        raise ConfigValidationError("rho, d_h, d_g", "the channel-moment aggregates overflow; they must be finite")
    terms = ErgodicTerms(t1=t1, t2=t2, t3=t3, t4=t4, t5=t5, t6=t6, t7=cfg.eta * cfg.p_p_mw * signal)
    if not math.isfinite(terms.t7 / t6):
        raise ConfigValidationError("P_p_dbm", "K = eta*P_p*(t1 + t2 t3 + t4 + t5)/t6 overflows; it must be finite")
    if var_x <= 0.0:
        return _LinkModel(terms, signal, None, None, None)

    # Gamma fit of X = |f| + sum rho|g||h| cos(phase error) by its mean and variance
    mean_x = math.sqrt(math.pi * zf) / 2.0 + t3
    s, r = mean_x * mean_x / var_x, var_x / mean_x
    # Gauss-Chebyshev nodes under log t = log(mean_x) + tan((pi/2) x) / sqrt(s)
    U = cfg.quadrature_points
    u = np.arange(1, U + 1)
    x = np.cos((2 * u - 1) * np.pi / (2 * U))
    ang = (np.pi / 2.0) * x
    root_s = math.sqrt(s)
    log_t = math.log(mean_x) + np.tan(ang) / root_s
    # Chebyshev weight times dt/dx = t (pi/2) / (sqrt(s) cos^2(ang)); the factor t
    # of the Jacobian is folded into t^s below
    log_weights = np.log((np.pi**2 / (2.0 * U * root_s)) * np.sqrt(1.0 - x**2) / np.cos(ang) ** 2)
    # the outermost nodes overflow t and t / r to inf; their terms are exp(-inf) = 0
    with np.errstate(over="ignore"):
        t_over_r = np.exp(log_t) / r
    log_base = log_weights + s * log_t - t_over_r - s * math.log(r) - math.lgamma(s)
    return _LinkModel(terms, signal, GammaFit(s=s, r=r, mean_x=mean_x, var_x=var_x), log_t, log_base)


def _link_model(cfg: SystemConfig) -> _LinkModel:
    """cfg's link model, built on first use and kept on cfg, which is immutable."""
    model = cfg.__dict__.get("_link_model")
    if model is None:
        model = cfg.__dict__["_link_model"] = _build_link_model(cfg)
    return model


def ergodic_terms(cfg: SystemConfig) -> ErgodicTerms:
    return _link_model(cfg).terms


def ergodic_rate(cfg: SystemConfig, alpha: float) -> float:
    """Approximate ergodic rate (1-alpha) log2(1 + nu1 * signal / noise), bits/s/Hz."""
    nu1 = harvested_power_coefficient(cfg, alpha)
    model = _link_model(cfg)
    return (1.0 - alpha) * math.log2(1.0 + nu1 * model.signal / model.terms.t6)


def gamma_fit(cfg: SystemConfig) -> GammaFit:
    """Match mean and variance of X = |f| + sum rho|g||h| cos(phase error)."""
    fit = _link_model(cfg).fit
    if fit is None:
        raise ValueError("degenerate composite amplitude: variance is zero")
    return fit


def _log_outage_threshold(r_v: float, alpha: float) -> float | None:
    """log of the SINR outage threshold kappa = 2^(r_v/(1-alpha)) - 1; None means kappa == 0."""
    if r_v == 0.0:
        return None
    x = r_v / (1.0 - alpha) * _LN2
    # log(2^expo - 1) = x + log(1 - e^-x); log(1 - e^-x) takes expm1 up to x = ln 2 and
    # log1p above (Maechler 2012), so it holds where e^-x rounds to 1 (x < 1.1e-16)
    return x + (math.log(-math.expm1(-x)) if x <= _LN2 else math.log1p(-math.exp(-x)))


def _outage_terms(cfg: SystemConfig, alpha: float):
    """Terms exp(... - c/t_u^2) of the integral 1 - outage, and their c/t_u^2; None if kappa == 0."""
    nu1 = harvested_power_coefficient(cfg, alpha)
    log_kappa = _log_outage_threshold(cfg.r_v, alpha)
    if log_kappa is None:
        return None
    gamma_fit(cfg)  # raises where X has no Gamma fit, hence no nodes
    model = _link_model(cfg)
    # exponent scale of the hub-link exponential CDF: exp(-c / t^2)
    log_c = log_kappa + math.log(model.terms.t6) - math.log(nu1 * cfg.zeta_p)
    # the outermost nodes overflow c / t^2 to inf; their terms are exp(-inf) = 0
    with np.errstate(over="ignore"):
        suppression = np.exp(log_c - 2.0 * model.log_t)  # c / t^2
    return np.exp(model.log_base - suppression), suppression


def outage_probability(cfg: SystemConfig, alpha: float) -> float:
    """Probability that the instantaneous rate falls below the target r_v.

    Gauss-Chebyshev evaluation with cfg.quadrature_points nodes under
    log t = log(mean_x) + tan((pi/2) x) / sqrt(s), with Jacobian
    t (pi/2) / (sqrt(s) cos^2((pi/2) x)): the log of a Gamma(s, r) variable
    spreads about 1/sqrt(s) around log(mean_x), so the nodes sit on the
    density however narrow it is or wherever it lies. Nodes whose t
    overflows contribute 0. The result is clamped to [0, 1]. At the default
    100 nodes it stays within 1e-8 of adaptive quadrature for M up to 1024
    (and 4096 at the default geometry), passive and active surfaces,
    distances of 2-80 m and hub powers of -20 to 80 dBm.
    """
    return 1.0 - _coverage(cfg, alpha)


def _coverage(cfg: SystemConfig, alpha: float) -> float:
    """I = 1 - P_O, the outage quadrature's sum clamped to at most 1; 1 where kappa == 0."""
    quadrature = _outage_terms(cfg, alpha)
    return 1.0 if quadrature is None else min(float(np.sum(quadrature[0])), 1.0)


def effective_rate(cfg: SystemConfig, alpha: float) -> float:
    """Throughput achieved without outage: r_v I = (1 - P_O) r_v, bits/s/Hz.

    It is taken from the quadrature's sum I itself, so it keeps its relative
    accuracy where the outage rounds to 1.
    """
    return _coverage(cfg, alpha) * cfg.r_v


def effective_rate_derivative(cfg: SystemConfig, alpha: float) -> float:
    """d/d alpha of the effective rate r_v I, bits/s/Hz per unit alpha.

    I = sum_u I_u is the outage quadrature's sum, whose terms fall as c/t_u^2
    grows. With c = kappa/nu1 up to alpha-free factors and x = r_v ln 2/(1-alpha),
    it is -r_v sum_u I_u c/t_u^2 times d ln c/d alpha = (x/(1 - e^-x) - 1/alpha)/(1-alpha).
    """
    quadrature = _outage_terms(cfg, alpha)
    if quadrature is None:
        return 0.0
    terms, exponents = quadrature
    x = cfg.r_v * _LN2 / (1.0 - alpha)
    d_log_c = (x / -math.expm1(-x) - 1.0 / alpha) / (1.0 - alpha)
    # a node whose exponent overflowed to inf has a term of 0, and adds 0
    return -cfg.r_v * float(terms @ np.where(terms > 0.0, exponents, 0.0)) * d_log_c
