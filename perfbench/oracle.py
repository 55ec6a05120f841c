"""Independent model oracle for the benchmark's checks and references.

Everything here is computed from the raw SystemConfig fields with the
benchmark's own formulas: path loss, the Gamma fit of the composite
amplitude, the outage integral (adaptive quadrature, and a vectorised
quantile rule for scanning alpha), the power floor, and a channel sampler
for the high-sample Monte Carlo references. Only SystemConfig itself is
taken from the program, to resolve defaults and broadcast per-element
fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special, stats

# Fields that define the link model (alpha is an argument, not a field here).
MODEL_FIELDS = (
    "P_p_dbm", "eta", "M", "rho", "b", "d_p", "d_f", "d_h", "d_g", "epsilon",
    "sigma_v2_dbm", "sigma_n2_dbm", "r_v", "P1_dbm", "P2_dbm", "ris_mode",
)


def _mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def model_params(cfg) -> dict:
    """JSON-able snapshot of the model fields of a SystemConfig."""
    out = {}
    for name in MODEL_FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = list(value)
        elif name == "ris_mode":
            value = value.value
        out[name] = value
    return out


@dataclass(frozen=True)
class Link:
    """Linear-unit quantities of one configuration."""

    p_p: float          # hub transmit power, mW
    eta: float
    r_v: float
    zp: float
    zf: float
    zg: np.ndarray
    zh: np.ndarray
    rho: np.ndarray     # amplification applied (ones when passive)
    sigma_v2: float     # amplifier noise, mW (0 when passive)
    sigma_n2: float
    tau: float          # phase-residual half-width
    static_mw: float    # M (P1 + P2)

    @classmethod
    def from_config(cls, cfg) -> "Link":
        p = model_params(cfg)
        M = int(p["M"])
        passive = p["ris_mode"] == "passive"
        eps = float(p["epsilon"])
        return cls(
            p_p=_mw(p["P_p_dbm"]),
            eta=float(p["eta"]),
            r_v=float(p["r_v"]),
            zp=float(p["d_p"]) ** -eps,
            zf=float(p["d_f"]) ** -eps,
            zg=np.asarray(p["d_g"], dtype=float).reshape(M) ** -eps,
            zh=np.asarray(p["d_h"], dtype=float).reshape(M) ** -eps,
            rho=np.ones(M) if passive else np.asarray(p["rho"], dtype=float).reshape(M),
            sigma_v2=0.0 if passive else _mw(p["sigma_v2_dbm"]),
            sigma_n2=_mw(p["sigma_n2_dbm"]),
            tau=math.pi * 2.0 ** (-int(p["b"])),
            static_mw=M * (_mw(p["P1_dbm"]) + _mw(p["P2_dbm"])),
        )

    def nu1(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        return self.eta * alpha * self.p_p / (1.0 - alpha)

    @property
    def noise(self) -> float:
        """Effective noise floor sigma_v^2 sum rho^2 zeta_g + sigma_n^2."""
        return self.sigma_v2 * float(np.sum(self.rho**2 * self.zg)) + self.sigma_n2

    def gamma_shape_scale(self) -> tuple[float, float]:
        """Moment-matched Gamma(s, r) of X = |f| + sum rho|g||h|cos(phase)."""
        e_cos = math.sin(self.tau) / self.tau
        e_cos2 = math.sin(2.0 * self.tau) / (4.0 * self.tau) + 0.5
        c1 = (math.pi / 4.0) * e_cos
        mean = math.sqrt(math.pi * self.zf) / 2.0 + float(np.sum(c1 * self.rho * np.sqrt(self.zg * self.zh)))
        var = self.zf * (1.0 - math.pi / 4.0) + float(
            np.sum(self.rho**2 * self.zg * self.zh * (e_cos2 - c1**2))
        )
        return mean**2 / var, var / mean

    def outage_scale(self, alpha):
        """c(alpha) in P_O = 1 - E{exp(-c / X^2)}."""
        alpha = np.asarray(alpha, dtype=float)
        with np.errstate(over="ignore"):  # kappa = inf means certain outage
            kappa = np.expm1(self.r_v / (1.0 - alpha) * math.log(2.0))
        return kappa * self.noise / (self.nu1(alpha) * self.zp)

    def power_floor(self) -> float:
        """Alpha-independent consumption, mW: amplifier noise plus static."""
        return self.sigma_v2 * float(np.sum(self.rho**2)) + self.static_mw


def outage_adaptive(link: Link, alpha: float) -> float:
    """Gamma-fit outage by adaptive quadrature (scipy.integrate.quad)."""
    s, r = link.gamma_shape_scale()
    c = float(link.outage_scale(alpha))
    log_norm = s * math.log(r) + special.gammaln(s)

    def integrand(t):
        return math.exp(-c / t**2 + (s - 1.0) * math.log(t) - t / r - log_norm)

    split = stats.gamma.ppf(1.0 - 1e-12, a=s, scale=r)
    head, _ = integrate.quad(integrand, 0.0, split, limit=500)
    tail, _ = integrate.quad(integrand, split, np.inf, limit=500)
    return 1.0 - (head + tail)


def effective_curve(link: Link, alphas, nodes: int = 512) -> np.ndarray:
    """(1 - P_O(alpha)) r_v over an alpha array, midpoint rule in the quantile."""
    s, r = link.gamma_shape_scale()
    x = stats.gamma.ppf((np.arange(nodes) + 0.5) / nodes, a=s, scale=r)
    c = link.outage_scale(alphas)[:, None]
    with np.errstate(over="ignore", divide="ignore"):
        survive = np.exp(-c / x[None, :] ** 2).mean(axis=1)
    return survive * link.r_v


def has_interior_maximum(link: Link, grid_points: int = 101) -> bool:
    """True when the effective rate peaks strictly inside (0, 1).

    Rejected: objectives that are numerically flat (zero everywhere) or
    whose grid maximum sits at an end of the alpha range.
    """
    alphas = np.linspace(1e-6, 1.0 - 1e-6, grid_points)
    curve = effective_curve(link, alphas)
    edge = max(curve[0], curve[-1])
    return bool(curve.max() - edge > 1e-6 * link.r_v and 0 < int(np.argmax(curve)) < grid_points - 1)


# ---- Monte Carlo reference sampler -----------------------------------------------


def draw_gain(link: Link, rng: np.random.Generator, n: int) -> np.ndarray:
    """Alpha- and P_p-free SINR factor G, with SINR = nu1(alpha) * G.

    Draws n joint realizations of the block-Rayleigh link with uniform
    phase residuals on [-tau, tau).
    """
    M = link.rho.size
    h_p = rng.rayleigh(math.sqrt(link.zp / 2.0), n)
    f = rng.rayleigh(math.sqrt(link.zf / 2.0), n)
    h = rng.rayleigh(np.sqrt(link.zh / 2.0), (n, M))
    g = rng.rayleigh(np.sqrt(link.zg / 2.0), (n, M))
    phi = rng.uniform(-link.tau, link.tau, (n, M))
    amp = link.rho * g * h
    re = f + (amp * np.cos(phi)).sum(axis=1)
    im = (amp * np.sin(phi)).sum(axis=1)
    denom = link.sigma_v2 * (link.rho**2 * g**2).sum(axis=1) + link.sigma_n2
    return h_p**2 * (re**2 + im**2) / denom
