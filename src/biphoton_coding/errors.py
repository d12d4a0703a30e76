"""Exception and warning types shared across the toolkit.

A class exists only where a caller handles it apart from ValueError: the
CLI names the grids for UnderResolvedGrid and GridTooLarge, apart from a
ValueError of the same call, reports CycleDetected's cycle, and exits 2 on
NotConverged and DegenerateMatrix.  Other rejections, overlapping coding
bins and code spaces too large to enumerate among them, raise ValueError.
"""

from __future__ import annotations


class BiphotonCodingError(Exception):
    """Base class for all toolkit errors."""


class UnderResolvedGrid(BiphotonCodingError):
    """A frequency grid is too coarse or too short for the requested operation."""


class GridTooLarge(BiphotonCodingError):
    """An array (a signal x idler grid, the cascade's quadrature nodes,
    the g2 FFTs, a code matrix) would exceed the memory budget."""


class DegenerateMatrix(BiphotonCodingError):
    """All correlation entries are equal; contrast ratios are undefined."""


class CycleDetected(BiphotonCodingError):
    """Pair placement graph contains a cycle; decode weights cannot factorize."""

    def __init__(self, message: str, cycle: list | None = None):
        super().__init__(message)
        self.cycle = cycle or []


class NotConverged(BiphotonCodingError):
    """Emission amplitudes were still changing at the final integration time."""


class ConfigError(BiphotonCodingError):
    """A run configuration file is malformed or fails schema validation."""


class DegenerateSpectrum(UserWarning):
    """Adjacent leading Schmidt weights are numerically degenerate."""


class ValidityWarning(UserWarning):
    """A physical validity condition (weak drive, bin spacing) is not comfortably met."""
