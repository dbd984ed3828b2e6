"""Matched-illumination ESD design by spectral water-filling.

The optimal energy spectral density against known noise/channel PSDs is

    E_s(f) = max( (sqrt(P_n(f)/lambda) - P_n(f)) / P_h(f), 0 )

with the water level lambda fixed by the transmit-energy budget. In
mu = lambda^(-1/2) the allocated energy is piecewise linear and
increasing, with a breakpoint at each sqrt(P_n(f)), so one sort and two
cumulative sums give the exact water level (Palomar & Fonollosa,
"Practical algorithms for a family of waterfilling solutions", IEEE TSP
2005).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Scenario, SpectralDensity, integrate

__all__ = ["MiDesign", "UnboundedAllocationError", "design_mi"]

#: relative miss of the energy budget above which a design is refused
ENERGY_RTOL = 1e-6


class UnboundedAllocationError(ValueError):
    """A zero-channel bin would receive unbounded waveform energy."""


@dataclass(frozen=True)
class MiDesign:
    """Result of the water-filling design: the ESD and its water level;
    the energy and active bins are read from the ESD."""

    esd: SpectralDensity
    lagrange_lambda: float

    @property
    def achieved_energy(self) -> float:
        return integrate(self.esd)

    @property
    def active_set(self) -> np.ndarray:
        return np.flatnonzero(self.esd.values > 0)


def _water_level(scenario: Scenario) -> float:
    """Exact water level matching the scenario's energy budget.

    With mu = lambda^(-1/2) and the bins sorted by s = sqrt(P_n), the
    energy with the first j bins active is df*(mu*A_j - B_j), where A_j
    and B_j are cumulative sums of s/P_h and P_n/P_h. Each j thus gives
    mu_j = (E/df + B_j)/A_j, and the solution is the first mu_j that does
    not pass the next breakpoint s. The water level must stay below
    sqrt(P_n) of every zero-channel bin; if the budget cannot be met
    there, :class:`UnboundedAllocationError` is raised. A P_h so small
    that s/P_h or P_n/P_h overflows instead raises ``ValueError``.
    """
    p_n = scenario.noise_psd.values
    p_h = scenario.channel_psd.values
    s = np.sqrt(p_n)
    ceiling = np.min(s[p_h == 0], initial=np.inf)
    idx = np.flatnonzero(p_h > 0)
    idx = idx[np.argsort(s[idx], kind="stable")]
    with np.errstate(over="ignore", invalid="ignore"):
        gain, cost = s[idx] / p_h[idx], p_n[idx] / p_h[idx]
        a, b = np.cumsum(gain), np.cumsum(cost)
        mu = (scenario.energy / scenario.grid.spacing + b) / a
    fits = np.flatnonzero(mu <= np.append(s[idx[1:]], np.inf))
    if fits.size == 0 or mu[fits[0]] >= ceiling:
        overflow = np.sort(idx[np.isinf(gain) | np.isinf(cost)])
        if overflow.size:
            raise ValueError(f"P_n/P_h overflows on bins {overflow.tolist()}")
        raise UnboundedAllocationError(
            f"the budget E={scenario.energy:.6g} needs a water level at or above "
            f"sqrt(P_n)={ceiling:.6g} of a bin where the channel PSD vanishes"
        )
    return float(mu[fits[0]] ** -2)


def design_mi(scenario: Scenario) -> MiDesign:
    """Full matched-illumination design: the exact water level lambda,
    reported as ``lagrange_lambda``, and the ESD at that float lambda.

    The ESD integrates to E within 1e-12 relative plus a few roundings of
    lambda, each worth lambda*|dE/dlambda|*eps. A zero-channel bin with a
    positive numerator would get infinite energy and raises
    :class:`UnboundedAllocationError`. On a bin with a tiny P_h, E_s =
    (mu*s - P_n)/P_h divides the rounding error of mu*s by P_h, so a
    relative miss of the budget above ``ENERGY_RTOL`` raises ValueError."""
    lam = _water_level(scenario)
    p_n = scenario.noise_psd.values
    p_h = scenario.channel_psd.values
    numer = np.sqrt(p_n / lam) - p_n
    pos = numer > 0
    hot = pos & (p_h == 0)
    if np.any(hot):
        raise UnboundedAllocationError(
            f"channel PSD vanishes on {np.flatnonzero(hot).tolist()} where "
            "the water-filling numerator is positive"
        )
    values = np.zeros_like(p_n)
    values[pos] = numer[pos] / p_h[pos]
    esd = SpectralDensity(scenario.grid, values)
    energy = integrate(esd)
    if abs(energy - scenario.energy) > ENERGY_RTOL * scenario.energy:
        raise ValueError(
            f"the design integrates to {energy:.6g}, not the budget E="
            f"{scenario.energy:.6g}: P_h is too small to resolve the water level"
        )
    return MiDesign(esd, lam)
