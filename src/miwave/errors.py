"""Toolkit-specific error types."""


class UnboundedAllocationError(ValueError):
    """A zero-channel bin would receive unbounded waveform energy."""


class InfeasibleError(ValueError):
    """A requested design target cannot be met within its constraints."""
