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

from dataclasses import dataclass, field

import numpy as np

from .errors import UnboundedAllocationError
from .spectral import Scenario, SpectralDensity, integrate

__all__ = ["MiDesign", "esd_for_lambda", "solve_lambda", "design_mi"]


@dataclass(frozen=True)
class MiDesign:
    """Result of the water-filling design."""

    esd: SpectralDensity
    lagrange_lambda: float
    achieved_energy: float
    active_set: np.ndarray = field(repr=False)


def esd_for_lambda(scenario: Scenario, lam: float) -> SpectralDensity:
    """Evaluate the water-filling ESD for a given water level.

    Bins where the channel PSD is zero but the water-filling numerator is
    positive would receive infinite energy; that raises
    :class:`UnboundedAllocationError`.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
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
    return SpectralDensity(scenario.grid, values)


def solve_lambda(scenario: Scenario) -> float:
    """Exact water level matching the scenario's energy budget.

    With mu = lambda^(-1/2) and the bins sorted by s = sqrt(P_n), the
    energy with the first j bins active is df*(mu*A_j - B_j), where A_j
    and B_j are cumulative sums of s/P_h and P_n/P_h. Each j thus gives
    mu_j = (E/df + B_j)/A_j, and the solution is the first mu_j that does
    not pass the next breakpoint s. The water level must stay below
    sqrt(P_n) of every zero-channel bin; if the budget cannot be met
    there, :class:`UnboundedAllocationError` is raised.
    """
    p_n = scenario.noise_psd.values
    p_h = scenario.channel_psd.values
    s = np.sqrt(p_n)
    ceiling = np.min(s[p_h == 0], initial=np.inf)
    idx = np.flatnonzero(p_h > 0)
    idx = idx[np.argsort(s[idx], kind="stable")]
    a = np.cumsum(s[idx] / p_h[idx])
    b = np.cumsum(p_n[idx] / p_h[idx])
    mu = (scenario.energy / scenario.grid.spacing + b) / a
    fits = np.flatnonzero(mu <= np.append(s[idx[1:]], np.inf))
    if fits.size == 0 or mu[fits[0]] >= ceiling:
        raise UnboundedAllocationError(
            f"the budget E={scenario.energy:.6g} needs a water level at or above "
            f"sqrt(P_n)={ceiling:.6g} of a bin where the channel PSD vanishes"
        )
    return float(mu[fits[0]] ** -2)


def design_mi(scenario: Scenario) -> MiDesign:
    """Full matched-illumination design: solve the water level, evaluate
    the ESD, and report the active set."""
    lam = solve_lambda(scenario)
    esd = esd_for_lambda(scenario, lam)
    active = np.flatnonzero(esd.values > 0)
    return MiDesign(esd, lam, integrate(esd), active)
