"""Quality of the moment-matched Gamma model for the composite amplitude.

The outage analysis replaces the in-phase composite amplitude
X = |f| + sum_m rho_m |g_m||h_m| cos(phase error) by a Gamma distribution
matched to its exact mean and variance. This script compares the fitted
density with a Monte Carlo histogram of X and shows how quantization bits
shape the fit.
"""
import numpy as np

from ariswpc import SystemConfig, gamma_fit, mc_moments_x, replace_config, sample_batch
from ariswpc.channel import chunk_rngs


def empirical_x(cfg, n, seed):
    rho = cfg.rho_effective
    out = np.empty(n)
    offset = 0
    for rng, m in chunk_rngs(seed, n):
        batch = sample_batch(cfg, rng, m)
        out[offset:offset + m] = batch.f_mag + np.sum(
            rho * batch.g_mag * batch.h_mag * np.cos(batch.phase_err), axis=1
        )
        offset += m
    return out


def main():
    n, seed = 10**6, 99
    for b in (1, 4):
        cfg = replace_config(SystemConfig(), b=b)
        fit = gamma_fit(cfg)
        mean_est, var_est = mc_moments_x(cfg, n=n, seed=seed)
        print(f"\n=== b = {b} quantization bits ===")
        print(f"fit: shape s = {fit.s:.3f}, scale r = {fit.r:.3e}")
        print(f"mean: analytic {fit.mean_x:.6e}  empirical {mean_est.value:.6e} "
              f"(+-{mean_est.stderr:.1e})")
        print(f"var:  analytic {fit.var_x:.6e}  empirical {var_est.value:.6e} "
              f"(+-{var_est.stderr:.1e})")

        samples = empirical_x(cfg, n, seed)
        # ten bins over the central 99% of the draws; density = count / (n * bin width)
        counts, edges = np.histogram(samples, bins=10, range=tuple(np.quantile(samples, [0.005, 0.995])))
        centres = 0.5 * (edges[:-1] + edges[1:])
        print("density check (MC histogram of X against the fitted Gamma pdf at the bin centres):")
        for x, empirical, fitted in zip(centres, counts / (n * np.diff(edges)), fit.pdf(centres)):
            print(f"  x={x:.3e}: empirical {empirical:.4e}  fitted {fitted:.4e} "
                  f"(gap {abs(empirical - fitted) / fitted:.1%})")


if __name__ == "__main__":
    main()
