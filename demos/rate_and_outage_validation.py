"""Validate the closed-form rate and outage against direct simulation.

Sweeps the power hub's transmit power and prints closed-form values next to
seeded Monte Carlo estimates, for an active surface (amplifying, with
quantized phases) and the passive baseline. Each sweep's estimates come from
one mc_rate_and_outage call on its config, at its points (alpha, P_p), so
they share one set of draws (common random numbers) and cost one sampling
pass.
"""
from ariswpc import (
    RisMode,
    SystemConfig,
    ergodic_rate,
    mc_rate_and_outage,
    outage_probability,
    replace_config,
)

ALPHA = 0.419
SAMPLES = 10**5
SEED = 2024
POWERS_DBM = range(0, 31, 5)


def main():
    base = SystemConfig()
    print("Active-RIS wireless-powered link: closed forms vs Monte Carlo")
    print(f"alpha = {ALPHA}, N = {SAMPLES} realizations per point, seed = {SEED}")

    sweeps = {
        "active, 16 elements": replace_config(base, M=16),
        "passive, 16 elements": replace_config(base, M=16, ris_mode=RisMode.PASSIVE),
        "active, 36 elements": base,
    }
    hub_powers = [float(pp) for pp in POWERS_DBM]
    for label, cfg in sweeps.items():
        estimates = mc_rate_and_outage(cfg, [ALPHA] * len(hub_powers), hub_powers, SAMPLES, seed=SEED)
        print(f"\n--- {label} (M={cfg.M}, b={cfg.b}, mode={cfg.ris_mode.value}) ---")
        print(f"{'P_p dBm':>8} {'rate cf':>9} {'rate mc':>9} {'gap':>7}   "
              f"{'P_O cf':>9} {'P_O mc':>9} {'gap':>7}")
        for pp, (rate_mc, po_mc) in zip(POWERS_DBM, estimates):
            point = replace_config(cfg, P_p_dbm=float(pp))  # the closed forms read P_p from the config
            rate_cf = ergodic_rate(point, ALPHA)
            po_cf = outage_probability(point, ALPHA)
            print(
                f"{pp:8d} {rate_cf:9.4f} {rate_mc.value:9.4f} {rate_cf - rate_mc.value:+7.3f}   "
                f"{po_cf:9.5f} {po_mc.value:9.5f} {po_cf - po_mc.value:+7.4f}"
            )

    print(
        "\nNote: the outage closed form tracks simulation to a few 1e-3 absolute."
        "\nThe ergodic-rate closed form is an expectation-ratio approximation and"
        "\nsits above the simulated mean by roughly 0.83*(1-alpha) bits here (the"
        "\nJensen gap of the exponentially distributed harvested power); the gap"
        "\nshrinks as the direct link hardens or the SNR grows."
    )


if __name__ == "__main__":
    main()
