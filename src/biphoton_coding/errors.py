"""Exception and warning types shared across the toolkit.

A class exists only where a caller handles it apart from ValueError: the
CLI names a config key for UnderResolvedGrid, GridTooLarge, BinOverlap and
CodeSpaceOverflow, reports CycleDetected's cycle, and exits 2 on
NotConverged and DegenerateMatrix.  Other bad arguments raise ValueError.
"""

from __future__ import annotations


class BiphotonCodingError(Exception):
    """Base class for all toolkit errors."""


class UnderResolvedGrid(BiphotonCodingError):
    """A frequency grid is too coarse or too short for the requested operation."""


class GridTooLarge(BiphotonCodingError):
    """An array (a signal x idler grid, the cascade's quadrature nodes,
    the g2 FFTs, a code matrix) would exceed the memory budget."""


class BinOverlap(BiphotonCodingError):
    """Frequency coding bins overlap; decode weights would be ambiguous."""


class DegenerateMatrix(BiphotonCodingError):
    """All correlation entries are equal; contrast ratios are undefined."""


class CycleDetected(BiphotonCodingError):
    """Pair placement graph contains a cycle; decode weights cannot factorize."""

    def __init__(self, message: str, cycle: list | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class CodeSpaceOverflow(BiphotonCodingError):
    """Codeword-space dimension M**R exceeds the representable range."""


class NotConverged(BiphotonCodingError):
    """Emission amplitudes were still changing at the final integration time."""


class ConfigError(BiphotonCodingError):
    """A run configuration file is malformed or fails schema validation."""


class DegenerateSpectrum(UserWarning):
    """Adjacent Schmidt weights are numerically degenerate; mode phases are arbitrary."""


class ValidityWarning(UserWarning):
    """A physical validity condition (weak drive, bin spacing) is not comfortably met."""
