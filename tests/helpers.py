"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own evaluation paths:
outage and its complement via scipy adaptive integration, Rayleigh
moments via adaptive quadrature of the density, nearest-phase selection
via plain enumeration, derivatives via central finite differences, the ergodic optimum via a
bracketing root-finder or a golden-section search, both Lambert-W optima via
bisection on the equation they share, channel draws via the numpy calls of the
documented draw order, and Monte Carlo rate, outage and moments of X via plain
per-point chunk loops over those draws with the SINR and X written out in full.
The kernel's statement (kernel_sums and what builds on it) works on the unit
gains |h|^2/zeta_h and |g|^2/zeta_g with float32 phase trig, as the engine does,
and must equal it bit for bit; the reference (in_phase_amplitude,
quadrature_sum, mc_rate_outage_reference) works on the magnitudes in the
model's own terms, rho|g||h| and rho^2|g|^2, in the dtype of trig it is given.
"""
import math
from typing import NamedTuple

import numpy as np
from scipy import integrate, optimize, stats

from ariswpc import SystemConfig, gamma_fit, harvested_power_coefficient
from ariswpc.channel import ChannelBatch, chunk_rngs
from ariswpc.closedform import ergodic_terms
from ariswpc.montecarlo import _merge_mean_var


def _fit_and_scale(cfg: SystemConfig, alpha: float):
    """The Gamma fit of X and the scale c of the hub-link outage exp(-c/t^2) given X = t."""
    nu1 = harvested_power_coefficient(cfg, alpha)
    kappa = 2.0 ** (cfg.r_v / (1.0 - alpha)) - 1.0
    return gamma_fit(cfg), kappa * ergodic_terms(cfg).t6 / (nu1 * cfg.zeta_p)


def adaptive_outage(cfg: SystemConfig, alpha: float) -> float:
    """Outage integral evaluated by scipy.integrate.quad (reference value)."""
    fit, c = _fit_and_scale(cfg, alpha)

    def integrand(t):
        return math.exp(-c / t**2) * stats.gamma.pdf(t, a=fit.s, scale=fit.r)

    split = stats.gamma.ppf(1.0 - 1e-12, a=fit.s, scale=fit.r)
    head, _ = integrate.quad(integrand, 0.0, split, limit=500)
    tail, _ = integrate.quad(integrand, split, np.inf, limit=500)
    return 1.0 - (head + tail)


def adaptive_coverage(cfg: SystemConfig, alpha: float) -> float:
    """The integral I = 1 - outage by scipy.integrate.quad, to about 1e-10 relative however small I is.

    In u = log t the integrand exp(G(u)) = exp(-c/t^2) t gamma.pdf(t) is log-concave, so it is
    integrated on both sides of its peak u* after the peak value exp(G(u*)) is factored out.
    """
    fit, c = _fit_and_scale(cfg, alpha)

    def log_integrand(u):
        return -c * math.exp(-2.0 * u) + u + stats.gamma.logpdf(math.exp(u), a=fit.s, scale=fit.r)

    centre = math.log(fit.mean_x)
    peak = optimize.minimize_scalar(
        lambda u: -log_integrand(u), bounds=(centre - 30.0, centre + 30.0), method="bounded"
    ).x
    top = log_integrand(peak)
    sides = [
        integrate.quad(lambda u: math.exp(log_integrand(u) - top), lo, hi, epsabs=0.0, epsrel=1e-11, limit=500)[0]
        for lo, hi in ((peak - 10.0, peak), (peak, peak + 10.0))
    ]
    return math.exp(top) * sum(sides)


def rayleigh_moment_quad(zeta: float, n: int) -> float:
    """E{|h|^n} for Rayleigh with E{|h|^2} = zeta, by adaptive quadrature."""
    sigma2 = zeta / 2.0

    def integrand(x):
        return x**n * (x / sigma2) * math.exp(-(x**2) / (2.0 * sigma2))

    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=200)
    return value


def nearest_phase_enumerated(theta_star: float, b: int) -> float:
    """Brute-force nearest quantized phase with ties broken low."""
    levels = 2**b
    best_phase, best_dist = None, None
    for k in range(levels):
        phase = 2.0 * math.pi * k / levels
        delta = (theta_star - phase) % (2.0 * math.pi)
        dist = min(delta, 2.0 * math.pi - delta)
        if best_dist is None or dist < best_dist - 1e-12:
            best_phase, best_dist = phase, dist
    return best_phase


def central_difference(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def ergodic_alpha_brentq(cfg: SystemConfig) -> float:
    """Root of d/d alpha [(1-alpha) ln(1 + K alpha/(1-alpha))] by scipy brentq.

    K = eta P_p (t1 + t2 t3 + t4 + t5) / t6, and the derivative is written
    as K/(1 - alpha + K alpha) - ln(1 + K alpha/(1-alpha)).
    """
    t = ergodic_terms(cfg)
    k = cfg.eta * cfg.p_p_mw * (t.t1 + t.t2 * t.t3 + t.t4 + t.t5) / t.t6

    def slope(alpha):
        return k / (1.0 - alpha + k * alpha) - math.log1p(k * alpha / (1.0 - alpha))

    return optimize.brentq(slope, 1e-6, 1.0 - 1e-6, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Golden-section maximizer of a unimodal f on [lo, hi]: (argmax, iterations)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        iterations += 1
    return 0.5 * (lo + hi), iterations


def w_plus_one_bisection(ell: float) -> float:
    """y in (0, 1) with (1-y) e^y = e^-ell, that is -(y + log1p(-y)) = ell, by bisection.

    Both alpha optima solve (1-y) e^y = 1 - d, whose root is y = 1 + W0((d-1)/e):
    the effective optimum y/(L + y) with d = 1 - e^-L, so ell = L = r_v ln 2, and
    the ergodic optimum expm1(y)/(K + expm1(y)) with d = K, so ell = -log1p(-K)
    for K < 1. Below y = 1/2, where the difference cancels, the left side is its
    series sum_{k>=2} y^k/k instead. Bisection runs until the bracket is two
    adjacent doubles.
    """
    def lhs(y):
        return -(y + math.log1p(-y)) if y >= 0.5 else sum(y**k / k for k in range(2, 60))

    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if lhs(mid) < ell else (lo, mid)
    return lo


def _draws_by_hand(cfg: SystemConfig, rng: np.random.Generator, n: int, tile_rows: int, ris_block):
    """|h_p|, |f|, then per tile of tile_rows rows ris_block(zeta_h, shape), ris_block(zeta_g, shape)
    and the phase residuals, the tiles joined into whole (n, M) blocks."""
    tau = math.pi * 2.0**-cfg.b
    h_p_mag = rng.rayleigh(scale=math.sqrt(cfg.zeta_p / 2.0), size=n)
    f_mag = rng.rayleigh(scale=math.sqrt(cfg.zeta_f / 2.0), size=n)
    tiles = []
    for start in range(0, n, tile_rows):
        shape = (min(tile_rows, n - start), cfg.M)
        tiles.append((ris_block(cfg.zeta_h, shape), ris_block(cfg.zeta_g, shape), rng.uniform(-tau, tau, size=shape)))
    return (h_p_mag, f_mag, *(np.concatenate(blocks) for blocks in zip(*tiles)))


def sample_batch_by_hand(cfg: SystemConfig, rng: np.random.Generator, n: int, tile_rows: int = 512) -> ChannelBatch:
    """n joint draws by the numpy calls of the documented draw order: |h_p| and |f|, then, for
    each tile of tile_rows rows (the last one ragged), its |h| and |g| blocks (Rayleigh,
    E{|.|^2} = zeta) and its phase residuals. tile_rows=n gives the whole-block order: one
    call each for |h|, |g| and the phase residuals."""
    return ChannelBatch(*_draws_by_hand(
        cfg, rng, n, tile_rows, lambda zeta, shape: rng.rayleigh(scale=np.sqrt(zeta / 2.0), size=shape)
    ))


class GainBatch(NamedTuple):
    """Joint draws with the RIS links as unit power gains, as the streamed tiles carry them."""

    h_p_mag: np.ndarray     # (n,)
    f_mag: np.ndarray       # (n,)
    h_gain: np.ndarray      # (n, M), |h|^2 / zeta_h
    g_gain: np.ndarray      # (n, M), |g|^2 / zeta_g
    phase_err: np.ndarray   # (n, M)


def sample_gains_by_hand(cfg: SystemConfig, rng: np.random.Generator, n: int) -> GainBatch:
    """The draws of sample_batch_by_hand, each tile's |h| and |g| blocks drawn as the standard
    exponentials |h|^2/zeta_h and |g|^2/zeta_g that numpy's Rayleigh draws are made of."""
    return GainBatch(*_draws_by_hand(cfg, rng, n, 512, lambda zeta, shape: rng.standard_exponential(size=shape)))


def in_phase_amplitude(cfg: SystemConfig, batch: ChannelBatch, *, trig) -> np.ndarray:
    """X = |f| + sum rho|g||h| cos(phase error) of a batch of magnitudes, one full-width expression.

    The cosine is taken in dtype `trig` of the phase error cast to it; the
    products and the sum are float64.
    """
    cascade = cfg.rho_effective * batch.g_mag * batch.h_mag
    return batch.f_mag + np.sum(cascade * np.cos(batch.phase_err.astype(trig)), axis=1)


def quadrature_sum(cfg: SystemConfig, batch: ChannelBatch, *, trig) -> np.ndarray:
    """sum rho|g||h| sin(phase error), the sine taken in dtype `trig` as in in_phase_amplitude."""
    cascade = cfg.rho_effective * batch.g_mag * batch.h_mag
    return np.sum(cascade * np.sin(batch.phase_err.astype(trig)), axis=1)


def kernel_sums(cfg: SystemConfig, gains: GainBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, quadrature sum, sum rho^2|g|^2) of a GainBatch in the kernel's arithmetic, full width.

    Each sum is a row dot (np.einsum) against a per-element weight vector:
    rho sqrt(zeta_g) sqrt(zeta_h) times sqrt(|h|^2/zeta_h |g|^2/zeta_g) cos or
    sin(phase error) for the cascade, the cos and sin in float32, and
    rho^2 zeta_g times |g|^2/zeta_g for the gain.
    """
    rho, ones = cfg.rho_effective, np.ones(cfg.M)
    w_gain = rho**2 * cfg.zeta_g * ones
    w_cascade = rho * np.sqrt(cfg.zeta_g) * np.sqrt(cfg.zeta_h) * ones
    root = np.sqrt(gains.h_gain * gains.g_gain)
    angle = gains.phase_err.astype(np.float32)
    re = np.einsum("ij,j->i", np.cos(angle) * root, w_cascade) + gains.f_mag
    im = np.einsum("ij,j->i", np.sin(angle) * root, w_cascade)
    return re, im, np.einsum("ij,j->i", gains.g_gain, w_gain)


def sinr_full_width(cfg: SystemConfig, gains: GainBatch, nu1: float) -> np.ndarray:
    """Instantaneous SINR of every draw of a GainBatch in the kernel's arithmetic, written out in full."""
    re, im, gain2 = kernel_sums(cfg, gains)
    return nu1 * gains.h_p_mag**2 * (re**2 + im**2) / (cfg.sigma_v2_mw * gain2 + cfg.sigma_n2_mw)


def sinr_reference(cfg: SystemConfig, batch: ChannelBatch, nu1: float) -> np.ndarray:
    """Instantaneous SINR of every draw of a batch of magnitudes, float64 trig."""
    re = in_phase_amplitude(cfg, batch, trig=np.float64)
    im = quadrature_sum(cfg, batch, trig=np.float64)
    denom = cfg.sigma_v2_mw * np.sum(cfg.rho_effective**2 * batch.g_mag**2, axis=1) + cfg.sigma_n2_mw
    return nu1 * batch.h_p_mag**2 * (re**2 + im**2) / denom


def _rate_outage_loop(cfg: SystemConfig, alpha: float, n: int, seed: int, chunk_sinr):
    """(rate mean, rate stderr, outage probability) of chunk_sinr(rng, m, nu1) over the engine's chunks."""
    nu1 = harvested_power_coefficient(cfg, alpha)
    parts, outages = [], 0
    for rng, m in chunk_rngs(seed, n):
        rate = (1.0 - alpha) * np.log2(1.0 + chunk_sinr(rng, m, nu1))
        mean = float(rate.mean())
        parts.append((m, mean, float(((rate - mean) ** 2).sum())))
        outages += int(np.count_nonzero(rate < cfg.r_v))
    total, mean, m2 = _merge_mean_var(parts)
    return mean, math.sqrt(m2 / (total - 1) / total), outages / n


def mc_rate_outage_loop(cfg: SystemConfig, alpha: float, n: int, seed: int):
    """(rate mean, rate stderr, outage probability) by one chunk loop per point.

    Same chunk streams, arithmetic and chunk merge as the library's engine,
    so the results must agree bit for bit.
    """
    return _rate_outage_loop(
        cfg, alpha, n, seed, lambda rng, m, nu1: sinr_full_width(cfg, sample_gains_by_hand(cfg, rng, m), nu1)
    )


def mc_rate_outage_reference(cfg: SystemConfig, alpha: float, n: int, seed: int):
    """mc_rate_outage_loop's estimates from the magnitudes of the same draws, with float64 trig."""
    return _rate_outage_loop(
        cfg, alpha, n, seed, lambda rng, m, nu1: sinr_reference(cfg, sample_batch_by_hand(cfg, rng, m), nu1)
    )


def mc_moments_x_loop(cfg: SystemConfig, n: int, seed: int) -> tuple[float, float]:
    """(mean, unbiased variance) of X over the engine's chunk streams, summed per chunk."""
    sums = np.zeros(4)
    for rng, m in chunk_rngs(seed, n):
        x = kernel_sums(cfg, sample_gains_by_hand(cfg, rng, m))[0]
        sums += np.array([float((x**k).sum()) for k in (1, 2, 3, 4)])
    mean = float(sums[0] / n)
    return mean, float(sums[1] / n - mean**2) * n / (n - 1)
