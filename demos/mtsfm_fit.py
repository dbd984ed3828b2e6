"""Constant-modulus approximation of the optimal ESD.

The water-filling ESD is not realizable by a saturated transmitter, so
we fit a multi-tone sinusoidal FM waveform whose coefficient powers
match it. This script runs a small multistart fit and compares the best
waveform against the ideal design and an RMS-bandwidth-matched chirp.
"""

import numpy as np

from miwave import (
    Scenario,
    build_parametric_psd,
    design_mi,
    detection_metric,
    esd_on_grid,
    fit,
    integrate,
    lfm_esd,
    make_grid,
    match_rms_bandwidth,
    rms_bandwidth,
    solve_ofdm_coeffs,
    support_halfwidth,
)

grid = make_grid(band_width=20.0, duration=1.0)
noise = build_parametric_psd("noise_valley", {"n_min": 0.05, "n_max": 1.0}, grid)
clutter = build_parametric_psd(
    "clutter_notch", {"level": 1.0, "notch_depth": 0.9, "notch_width": 3.0}, grid
)
scenario = Scenario(noise, clutter, 1.0, 2.0)

design = design_mi(scenario)
d2_ideal = detection_metric(design.esd, scenario)
target = solve_ofdm_coeffs(design.esd, grid, integrate(design.esd))
kappa = support_halfwidth(target)
print(f"ideal design: d^2 = {d2_ideal:.4f}, support half-width kappa = {kappa}")

print("running 20 multistart fits (K = 8 harmonics, delta = 0.2)...")
results = fit(target, 8, 0.2, 20, seed=0, scenario=scenario)
best = results[0]
print(f"best fit:     d^2 = {best.d_squared_achieved:.4f} "
      f"({100 * best.d_squared_achieved / d2_ideal:.1f}% of ideal)")
print("best modulation indices:")
wave = best.waveform  # the waveform fit() scored
print("  " + "  ".join(f"b{k + 1}={b:+.3f}" for k, b in enumerate(wave.mod_indices)))

mtsfm_esd = esd_on_grid(wave, grid)
assert detection_metric(mtsfm_esd, scenario) == best.d_squared_achieved
print(f"fit ESD captures {integrate(mtsfm_esd) / scenario.energy:.4f} "
      "of the energy in band")

beta_rms = rms_bandwidth(design.esd, scenario.energy)
(chirp,) = match_rms_bandwidth([beta_rms], 1.0, [scenario.energy], grid)
chirp_esd = lfm_esd(chirp, grid)
print(f"chirp ESD captures {integrate(chirp_esd) / scenario.energy:.4f} "
      "of the energy in band")
d2_lfm = detection_metric(chirp_esd, scenario)
print(f"matched LFM (B = {chirp.sweep_bandwidth:.2f} Hz): d^2 = {d2_lfm:.4f}")

better = sum(r.d_squared_achieved > d2_lfm for r in results)
print(f"{better}/{len(results)} fitted waveforms beat the chirp comparator")
