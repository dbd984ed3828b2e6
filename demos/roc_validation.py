"""Monte Carlo check of the analytic ROC.

The optimal receiver's detection probability has the closed form
P_D = P_FA^(1/(1+d^2)). This script designs a waveform for the
clutter-notch scene, simulates the receiver on 100k synthetic trials,
and prints empirical versus analytic detection rates.
"""

from miwave import (
    Scenario,
    build_parametric_psd,
    design_mi,
    detection_metric,
    make_grid,
    monte_carlo_roc,
)

grid = make_grid(band_width=20.0, duration=1.0)
noise = build_parametric_psd("noise_valley", {"n_min": 0.05, "n_max": 1.0}, grid)
clutter = build_parametric_psd(
    "clutter_notch", {"level": 1.0, "notch_depth": 0.9, "notch_width": 3.0}, grid
)
scenario = Scenario(noise, clutter, 1.0, 4.0)

design = design_mi(scenario)
d2 = detection_metric(design.esd, scenario)
print(f"designed waveform detection metric d^2 = {d2:.4f}")

p_fa_grid = (0.001, 0.01, 0.1)
trials = 100000
mc = monte_carlo_roc(design.esd, scenario, trials, seed=0, p_fa_grid=p_fa_grid)

print(f"\n{trials} trials, seed 0:")
print(f"{'P_FA':>8} {'P_D analytic':>14} {'P_D empirical':>14} {'devs':>6}")
for p_fa, p_d, p_hat, se in zip(p_fa_grid, mc.p_d_analytic, mc.p_d, mc.p_d_stderr):
    dev = abs(p_hat - p_d) / max(se, 1e-12)
    print(f"{p_fa:8.3f} {p_d:14.4f} {p_hat:14.4f} {dev:6.1f}")
print("\n(deviations are in standard errors that include the threshold noise)")
