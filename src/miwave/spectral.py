"""Frequency grids, spectral-density containers, and detection scenarios.

Everything downstream (water-filling, waveform synthesis, detection
analytics) works on a uniform baseband grid with bin spacing 1/T, so the
grid and the discrete Riemann integral live here.

Grid values, target and MTSFM coefficients are centred arrays: a 1-D
array of odd size holds order m at index m + h, with h = (size - 1)//2,
so its size alone fixes its orders. :class:`FrequencyGrid` derives its
size from W and T, and :func:`recentre` cuts or pads one centred array
to another's orders.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrequencyGrid",
    "SpectralDensity",
    "Scenario",
    "make_grid",
    "integrate",
    "build_parametric_psd",
]


#: largest grid in bins; ``miwave design`` on ``configs/clutter_notch.yaml``
#: at this size peaks at about 350 MB resident (x86_64, numpy 2.4), growing
#: linearly with the bins (the LFM match's chirp FFTs, the ESD table's floats)
MAX_BINS = 2**18 + 1


def _shown(value) -> str:
    """``repr(value)``, or its size for an integer too long to print."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def as_int(name: str, value, minimum: int) -> int:
    """``value`` as a plain int; ``ValueError`` unless it is an integer
    (``numbers.Integral`` but not bool, so not 1e5, 100000.0 or "100000")
    of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {_shown(value)}")
    return int(value)


def _finite(name: str, value, rule: str, ok=math.isfinite):
    """``value`` unchanged; ``ValueError`` unless it is a number, that is
    a non-bool real, whose float is finite and passes ``ok``. An integer
    past the float range counts as infinite. The body of the rules below."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {_shown(value)}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not (math.isfinite(x) and ok(x)):
        raise ValueError(f"{name} must be {rule}, got {_shown(value)}")
    return value


def finite_real(name: str, value):
    """``value`` unchanged; ``ValueError`` unless a finite number."""
    return _finite(name, value, "finite")


def finite_positive(name: str, value):
    """``value`` unchanged; ``ValueError`` unless a finite number > 0."""
    return _finite(name, value, "finite and positive", lambda x: x > 0)


def finite_nonnegative(name: str, value):
    """``value`` unchanged; ``ValueError`` unless a finite number >= 0."""
    return _finite(name, value, "finite and nonnegative", lambda x: x >= 0)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, marked read-only: for arrays that frozen containers
    hold or that caches share."""
    a.flags.writeable = False
    return a


def recentre(a: np.ndarray, half: int) -> np.ndarray:
    """A centred array over orders -h..h, cut or zero-padded to orders
    -half..half: a new array of length 2*half + 1."""
    h = (a.size - 1) // 2
    lo = min(h, half)
    out = np.zeros(2 * half + 1, dtype=a.dtype)
    out[half - lo : half + lo + 1] = a[h - lo : h + lo + 1]
    return out


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform baseband frequency grid for a band W (``band_width``, Hz)
    and a duration T (``duration``, s), which sets the bin spacing 1/T.

    Bins sit at f_m = m/T for integer m in [-M/2, M/2], where
    M = ceil(W*T) rounded up to even, at least 2, so ``num_bins`` = M+1
    is odd and the grid is symmetric about DC. The covered band M/T lies
    in [W, W + 2/T]. ValueError unless W and T are finite and positive
    and the grid has at most ``MAX_BINS`` bins, that is W*T <= MAX_BINS - 1.
    """

    band_width: float
    duration: float
    num_bins: int = field(init=False)

    def __post_init__(self) -> None:
        w = finite_positive("band_width", self.band_width)
        t = finite_positive("duration", self.duration)
        # MAX_BINS - 1 is even, so M <= MAX_BINS - 1 and num_bins <= MAX_BINS
        if not w * t <= MAX_BINS - 1:
            raise ValueError(f"W*T must be finite and at most {MAX_BINS - 1}, got {w * t}")
        m = math.ceil(w * t)
        m = max(m + m % 2, 2)
        object.__setattr__(self, "num_bins", m + 1)

    @property
    def spacing(self) -> float:
        """Bin spacing in Hz (1/T)."""
        return 1.0 / self.duration

    @property
    def half_order(self) -> int:
        """M/2: the largest harmonic index on the grid."""
        return (self.num_bins - 1) // 2

    @property
    def bin_indices(self) -> np.ndarray:
        """Integer harmonic indices m in [-M/2, M/2]."""
        h = self.half_order
        return np.arange(-h, h + 1)

    @property
    def bin_freqs(self) -> np.ndarray:
        """Bin center frequencies f_m = m/T in Hz."""
        return self.bin_indices / self.duration


def make_grid(band_width: float, duration: float) -> FrequencyGrid:
    """The frequency grid for a band W and duration T (see
    :class:`FrequencyGrid`)."""
    return FrequencyGrid(band_width, duration)


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative real density sampled on a :class:`FrequencyGrid`.

    Holds either a PSD (power/Hz, e.g. noise or channel) or an ESD
    (energy/Hz, e.g. a waveform's squared spectrum magnitude).
    """

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.num_bins,):
            raise ValueError(
                f"values length {v.shape} does not match grid bins "
                f"({self.grid.num_bins},)"
            )
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise ValueError("density values must be finite and nonnegative")
        object.__setattr__(self, "values", read_only(v.copy()))


def integrate(sd: SpectralDensity) -> float:
    """Riemann integral of the density: sum of values times 1/T."""
    return float(np.sum(sd.values)) * sd.grid.spacing


@dataclass(frozen=True)
class Scenario:
    """Point-target detection scenario: noise and channel PSDs plus
    target fluctuation variance and the transmit energy budget.

    The noise PSD must be strictly positive everywhere; channel (clutter)
    PSD may contain zero bins, which the water-filling design treats
    specially.
    """

    noise_psd: SpectralDensity
    channel_psd: SpectralDensity
    target_variance: float
    energy: float

    def __post_init__(self) -> None:
        if self.noise_psd.grid != self.channel_psd.grid:
            raise ValueError("noise and channel PSDs must share a grid")
        if np.any(self.noise_psd.values <= 0):
            raise ValueError("noise PSD must be strictly positive")
        finite_positive("energy", self.energy)
        finite_nonnegative("target_variance", self.target_variance)

    @property
    def grid(self) -> FrequencyGrid:
        return self.noise_psd.grid

    def with_energy(self, energy: float) -> "Scenario":
        """Same scene with a different transmit energy budget."""
        return Scenario(
            self.noise_psd, self.channel_psd, self.target_variance, energy
        )


# ---------------------------------------------------------------------------
# Parametric PSD families
#
# The qualitative shapes (broad noise valley about DC, oscillatory clutter
# with a DC peak, flat clutter with a DC notch) are reproduced with small
# documented parameter sets; 'custom_table' interpolates a user table.
# ---------------------------------------------------------------------------

def _flat(f: np.ndarray, W: float, level: float = 1.0) -> np.ndarray:
    return np.full_like(f, float(finite_nonnegative("level", level)))


def _noise_valley(
    f: np.ndarray, W: float, n_min: float = 0.01, n_max: float = 1.0
) -> np.ndarray:
    # raised-cosine valley: n_min at DC, n_max at the band edges
    finite_positive("n_min", n_min)
    finite_positive("n_max", n_max)
    return n_min + (n_max - n_min) * 0.5 * (1.0 - np.cos(2.0 * np.pi * f / W))


def _clutter_peak(
    f: np.ndarray,
    W: float,
    floor: float = 0.05,
    peak_height: float = 1.0,
    peak_width: float = 1.5,
    osc_height: float = 0.3,
    osc_cycles: float = 4.0,
) -> np.ndarray:
    finite_nonnegative("floor", floor)
    finite_nonnegative("peak_height", peak_height)
    finite_nonnegative("osc_height", osc_height)
    finite_positive("peak_width", peak_width)
    finite_real("osc_cycles", osc_cycles)
    # Gaussian peak at DC plus a cos^2 ripple across the band
    gauss = peak_height * np.exp(-(f**2) / (2.0 * peak_width**2))
    ripple = osc_height * np.cos(2.0 * np.pi * f * osc_cycles / W) ** 2
    return floor + gauss + ripple


def _clutter_notch(
    f: np.ndarray,
    W: float,
    level: float = 0.5,
    notch_depth: float = 0.98,
    notch_width: float = 1.5,
) -> np.ndarray:
    if not 0 <= finite_real("notch_depth", notch_depth) <= 1:
        raise ValueError("notch_depth must lie in [0, 1]")
    finite_nonnegative("level", level)
    finite_positive("notch_width", notch_width)
    return level * (1.0 - notch_depth * np.exp(-(f**2) / (2.0 * notch_width**2)))


def _custom_table(f: np.ndarray, W: float, freqs=None, values=None) -> np.ndarray:
    if freqs is None or values is None:
        raise ValueError("custom_table requires 'freqs' and 'values'")
    freqs = np.array([float(finite_real("freqs", x)) for x in freqs])
    values = np.array([float(finite_nonnegative("values", v)) for v in values])
    if freqs.size != values.size:
        raise ValueError("freqs and values must be 1-D arrays of equal length")
    if np.any(np.diff(freqs) <= 0):
        raise ValueError("table frequencies must be strictly increasing")
    return np.interp(f, freqs, values)


PSD_KINDS = {
    "flat": _flat,
    "noise_valley": _noise_valley,
    "clutter_peak": _clutter_peak,
    "clutter_notch": _clutter_notch,
    "custom_table": _custom_table,
}


def build_parametric_psd(
    kind: str, params: dict | None, grid: FrequencyGrid
) -> SpectralDensity:
    """Sample a named parametric PSD family on a grid.

    ``kind`` is one of ``flat``, ``noise_valley``, ``clutter_peak``,
    ``clutter_notch`` or ``custom_table``; ``params`` are keyword
    arguments of the family (see the builder functions in this module).
    Parameters the family does not take, or of the wrong type, raise
    ValueError.
    """
    try:
        builder = PSD_KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown PSD kind {kind!r}") from None
    try:
        values = builder(grid.bin_freqs, grid.band_width, **(params or {}))
    except TypeError as exc:
        raise ValueError(f"bad parameters for PSD kind {kind!r}: {exc}") from None
    return SpectralDensity(grid, values)
