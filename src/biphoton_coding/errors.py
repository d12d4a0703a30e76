"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class BiphotonCodingError(Exception):
    """Base class for all toolkit errors."""


class UnderResolvedGrid(BiphotonCodingError):
    """A frequency grid is too coarse or too short for the requested operation."""


class GridTooLarge(BiphotonCodingError):
    """An array (a signal x idler grid, the ODE's dense output, the g2
    FFTs, a code matrix) would exceed the memory budget."""


class BinOverlap(BiphotonCodingError):
    """Frequency coding bins overlap; decode weights would be ambiguous."""


class NotPowerOfTwo(BiphotonCodingError):
    """Recursive code construction requires the order to be a power of two."""


class ChannelShapeMismatch(BiphotonCodingError):
    """Per-channel codeword arrays disagree with the channel layout shape."""


class DegenerateMatrix(BiphotonCodingError):
    """All correlation entries are equal; contrast ratios are undefined."""


class OddM(BiphotonCodingError):
    """Channel designs require an even number of pairs per channel."""


class CycleDetected(BiphotonCodingError):
    """Pair placement graph contains a cycle; decode weights cannot factorize."""

    def __init__(self, message: str, cycle: list | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class InfeasibleDecode(BiphotonCodingError):
    """Requested per-pair decode values admit no bin-wise factorization."""


class CodeSpaceOverflow(BiphotonCodingError):
    """Codeword-space dimension M**R exceeds the representable range."""


class StepFailure(BiphotonCodingError):
    """The ODE integrator failed to advance the state."""


class NotConverged(BiphotonCodingError):
    """Emission amplitudes were still changing at the final integration time."""


class ConfigError(BiphotonCodingError):
    """A run configuration file is malformed or fails schema validation."""


class DegenerateSpectrum(UserWarning):
    """Adjacent Schmidt weights are numerically degenerate; mode phases are arbitrary."""


class ValidityWarning(UserWarning):
    """A physical validity condition (weak drive, bin spacing) is not comfortably met."""
