"""Closed-form link analysis: ergodic rate, outage probability, effective rate.

Every closed form is a statistic of the config free of alpha and the hub
power P_p, composed with the harvested-power coefficient nu1(alpha, P_p).
Those statistics form the config's link model (_link_model): the
channel-moment aggregates t1..t6, the Gamma fit of the composite amplitude,
and the outage quadrature's nodes with the alpha-free part of their log
terms. A run record (_Run) holds the points (alpha, P_p) of a run on one
config and computes once what its outputs read: nu1, K, mean SINR, rate and
the (points x nodes) outage quadrature. Public functions use one-point runs.

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
from functools import lru_cache

import numpy as np

from .config import ConfigValidationError, SystemConfig, _cached, dbm_to_linear, harvested_power_coefficient
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
    """The statistics of one config that depend on neither alpha nor P_p; see _build_link_model."""

    moments: tuple[float, ...]   # t1..t5 of ErgodicTerms
    t6: float                    # the noise floor, the mean SINR denominator
    signal: float                # t1 + t2 t3 + t4 + t5, the mean SINR numerator over nu1
    fit: GammaFit | None         # None where Var X = 0
    log_t: np.ndarray | None     # quadrature nodes log t_u
    log_base: np.ndarray | None  # log terms of the outage integral without their -c/t_u^2


@lru_cache(maxsize=16)
def _nodes(U: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The U-node Gauss-Chebyshev geometry, read-only: tan(ang), sqrt(1 - x^2) and cos^2(ang), ang = (pi/2) x."""
    u = np.arange(1, U + 1)
    x = np.cos((2 * u - 1) * np.pi / (2 * U))
    ang = (np.pi / 2.0) * x
    table = (np.tan(ang), np.sqrt(1.0 - x**2), np.cos(ang) ** 2)
    for arr in table:
        arr.setflags(write=False)
    return table


def _build_link_model(cfg: SystemConfig) -> _LinkModel:
    """The aggregates t1..t6, the Gamma fit of X and the outage quadrature's nodes and log terms.

    Raises ConfigValidationError when an aggregate overflows (a huge gain or
    very short cascade distances), before any closed form can return inf or nan.
    """
    stats = phase_error_stats(cfg.b)
    c1 = (math.pi / 4.0) * stats.e_cos  # E{cascade amplitude} weight per element
    rho = cfg.rho_effective
    zp, zf = cfg.zeta_p, cfg.zeta_f
    zg, zh = cfg.zeta_g, cfg.zeta_h

    t1 = zp * zf
    t2 = zp * math.sqrt(math.pi * zf)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        t3 = float((c1 * rho * np.sqrt(zg * zh)).sum())
        t4 = float((rho**2 * zp * zg * zh * (1.0 - c1**2)).sum())
        t5 = float((c1 * rho * np.sqrt(zp * zg * zh)).sum() ** 2)
        t6 = cfg.sigma_v2_mw * float((rho**2 * zg).sum()) + cfg.sigma_n2_mw
        var_x = zf * (1.0 - math.pi / 4.0) + float((rho**2 * zg * zh * (stats.e_cos2 - c1**2)).sum())
    signal = t1 + t2 * t3 + t4 + t5
    if not all(map(math.isfinite, (t1, t2, t3, t4, t5, t6, signal, var_x))):
        raise ConfigValidationError("rho, d_h, d_g", "the channel-moment aggregates overflow; they must be finite")
    moments = (t1, t2, t3, t4, t5)
    if var_x <= 0.0:
        return _LinkModel(moments, t6, signal, None, None, None)

    # Gamma fit of X = |f| + sum rho|g||h| cos(phase error) by its mean and variance
    mean_x = math.sqrt(math.pi * zf) / 2.0 + t3
    s, r = mean_x * mean_x / var_x, var_x / mean_x
    # Gauss-Chebyshev nodes under log t = log(mean_x) + tan(ang) / sqrt(s)
    U = cfg.quadrature_points
    tan_ang, chebyshev, cos2_ang = _nodes(U)
    root_s = math.sqrt(s)
    log_t = math.log(mean_x) + tan_ang / root_s
    # Chebyshev weight times dt/dx = t (pi/2) / (sqrt(s) cos^2(ang)); the factor t
    # of the Jacobian is folded into t^s below
    log_weights = np.log((np.pi**2 / (2.0 * U * root_s)) * chebyshev / cos2_ang)
    # the outermost nodes overflow t and t / r to inf; their terms are exp(-inf) = 0
    with np.errstate(over="ignore"):
        t_over_r = np.exp(log_t) / r
    log_base = log_weights + s * log_t - t_over_r - s * math.log(r) - math.lgamma(s)
    return _LinkModel(moments, t6, signal, GammaFit(s=s, r=r, mean_x=mean_x, var_x=var_x), log_t, log_base)


def _link_model(cfg: SystemConfig) -> _LinkModel:
    """cfg's link model, built on first use and kept on cfg, which is immutable.

    A config derived from cfg builds its own: points that should share one
    model are put on one config, at their own alpha and P_p.
    """
    model = cfg.__dict__.get("_link_model")
    if model is None:
        model = cfg.__dict__["_link_model"] = _build_link_model(cfg)
    return model


class _Run:
    """The points (alpha, P_p_dbm) of one run on one config, and what its outputs read of them.

    Each quantity is computed on first use, checked as it is computed, and kept for
    the run: at one point the checks come in the order nu1, K, mean SINR, Gamma fit.
    """

    def __init__(self, cfg: SystemConfig, alphas, P_p_dbms):
        self.cfg, self.alphas, self.P_p_dbms = cfg, alphas, P_p_dbms

    @_cached
    def nu1s(self) -> list[float]:
        return [harvested_power_coefficient(self.cfg, alpha, P_p) for alpha, P_p in zip(self.alphas, self.P_p_dbms)]

    @_cached
    def ks(self) -> list[float]:
        """K = eta*P_p*signal/t6 at each hub power, which must be finite."""
        model = _link_model(self.cfg)
        ks = [self.cfg.eta * dbm_to_linear(P_p) * model.signal / model.t6 for P_p in self.P_p_dbms]
        if not all(map(math.isfinite, ks)):
            raise ConfigValidationError("P_p_dbm", "K = eta*P_p*(t1 + t2 t3 + t4 + t5)/t6 overflows; it must be finite")
        return ks

    @_cached
    def mean_sinrs(self) -> list[float]:
        """nu1*signal/t6 at each point, after the nu1 and K checks; each must be finite."""
        nu1s, model = self.nu1s, _link_model(self.cfg)
        self.ks  # K is checked before the mean SINR
        sinrs = [nu1 * model.signal / model.t6 for nu1 in nu1s]
        for alpha, sinr in zip(self.alphas, sinrs):
            if not math.isfinite(sinr):
                raise ConfigValidationError("P_p_dbm", "the mean SINR nu1*(t1 + t2 t3 + t4 + t5)/t6 overflows "
                                                       f"at alpha={alpha}; it must be finite")
        return sinrs

    @_cached
    def rates(self) -> list[float]:
        return [(1.0 - alpha) * math.log2(1.0 + sinr) for alpha, sinr in zip(self.alphas, self.mean_sinrs)]

    @_cached
    def quadrature(self):
        """Terms exp(... - c/t_u^2) of 1 - outage and their c/t_u^2, a row per point; None where r_v = 0."""
        if self.cfg.r_v == 0.0:
            self.nu1s  # kappa = 0, so there is no outage: only nu1 is checked
            return None
        self.mean_sinrs  # nu1, K and the mean SINR are checked first
        gamma_fit(self.cfg)  # raises where X has no Gamma fit, hence no nodes
        model, r_v, zeta_p = _link_model(self.cfg), self.cfg.r_v, self.cfg.zeta_p
        log_t6 = math.log(model.t6)
        # exponent scale of the hub-link exponential CDF: exp(-c / t^2); c is +inf where nu1 zeta_p underflows to 0
        log_c = [_log_outage_threshold(r_v, alpha) + log_t6 - math.log(nu1 * zeta_p)
                 if nu1 * zeta_p > 0.0 else math.inf for alpha, nu1 in zip(self.alphas, self.nu1s)]
        # the outermost nodes overflow c / t^2 to inf; their terms are exp(-inf) = 0
        with np.errstate(over="ignore"):
            suppression = np.exp(np.array(log_c)[:, None] - 2.0 * model.log_t)  # c / t^2
        return np.exp(model.log_base - suppression), suppression

    @_cached
    def coverages(self) -> np.ndarray:
        """I = 1 - P_O at each point: the quadrature's row sum clamped to at most 1; 1 where kappa == 0."""
        return np.ones(len(self.alphas)) if self.quadrature is None else np.minimum(self.quadrature[0].sum(axis=1), 1.0)


def ergodic_terms(cfg: SystemConfig) -> ErgodicTerms:
    _Run(cfg, (), (cfg.P_p_dbm,)).ks  # K at cfg's hub power must be finite
    model = _link_model(cfg)
    return ErgodicTerms(*model.moments, model.t6, cfg.eta * cfg.p_p_mw * model.signal)


def ergodic_rate(cfg: SystemConfig, alpha: float) -> float:
    """Approximate ergodic rate (1-alpha) log2(1 + nu1 * signal / noise), bits/s/Hz."""
    return _Run(cfg, (alpha,), (cfg.P_p_dbm,)).rates[0]


def gamma_fit(cfg: SystemConfig) -> GammaFit:
    """Match mean and variance of X = |f| + sum rho|g||h| cos(phase error).

    ConfigValidationError where the variance is zero: no direct term (d_f) and no RIS term (M, rho, d_h, d_g).
    """
    fit = _link_model(cfg).fit
    if fit is None:
        raise ConfigValidationError("d_f, M, rho, d_h, d_g", "degenerate composite amplitude: variance is zero")
    return fit


def _log_outage_threshold(r_v: float, alpha: float) -> float:
    """log of the SINR outage threshold kappa = 2^(r_v/(1-alpha)) - 1, for r_v > 0."""
    x = r_v / (1.0 - alpha) * _LN2
    # log(2^expo - 1) = x + log(1 - e^-x); log(1 - e^-x) takes expm1 up to x = ln 2 and
    # log1p above (Maechler 2012), so it holds where e^-x rounds to 1 (x < 1.1e-16)
    return x + (math.log(-math.expm1(-x)) if x <= _LN2 else math.log1p(-math.exp(-x)))


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
    return float(1.0 - _Run(cfg, (alpha,), (cfg.P_p_dbm,)).coverages[0])


def effective_rate(cfg: SystemConfig, alpha: float) -> float:
    """Throughput achieved without outage: r_v I = (1 - P_O) r_v, bits/s/Hz.

    It is taken from the quadrature's sum I itself, so it keeps its relative
    accuracy where the outage rounds to 1.
    """
    return float(_Run(cfg, (alpha,), (cfg.P_p_dbm,)).coverages[0]) * cfg.r_v


def effective_rate_derivative(cfg: SystemConfig, alpha: float) -> float:
    """d/d alpha of the effective rate r_v I, bits/s/Hz per unit alpha.

    I = sum_u I_u is the outage quadrature's sum, whose terms fall as c/t_u^2
    grows. With c = kappa/nu1 up to alpha-free factors and x = r_v ln 2/(1-alpha),
    it is -r_v sum_u I_u c/t_u^2 times d ln c/d alpha = (x/(1 - e^-x) - 1/alpha)/(1-alpha).
    """
    return _effective_slope(_Run(cfg, (alpha,), (cfg.P_p_dbm,)))


def _effective_slope(run: _Run) -> float:
    """effective_rate_derivative at the one point of `run`, from its outage quadrature."""
    quadrature = run.quadrature
    if quadrature is None:
        return 0.0
    [alpha], r_v = run.alphas, run.cfg.r_v
    terms, exponents = quadrature[0][0], quadrature[1][0]
    x = r_v * _LN2 / (1.0 - alpha)
    d_log_c = (x / -math.expm1(-x) - 1.0 / alpha) / (1.0 - alpha)
    # a node whose exponent overflowed to inf has a term of 0, and adds 0
    return -r_v * float(terms @ np.where(terms > 0.0, exponents, 0.0)) * d_log_c
