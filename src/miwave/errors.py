"""Toolkit-specific error types."""


class UnboundedAllocationError(ValueError):
    """A zero-channel bin would receive unbounded waveform energy."""
