"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class CalibrationError(Exception):
    """Base class for all toolkit-specific errors."""


class NonPositiveDepth(CalibrationError):
    """A 3D point lies on or behind the camera plane (z <= 1e-9 m)."""


class DimensionMismatch(CalibrationError):
    """A joint vector length does not match the chain's actuated joints."""


class JointLimitWarning(UserWarning):
    """Advisory warning for out-of-limit joint readings in logged data."""


class EmptyInput(CalibrationError):
    """An operation received an empty point or frame set."""


class DegenerateConfiguration(CalibrationError):
    """The 3D point arrangement does not support a well-posed PnP solve."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class NumericalFailure(CalibrationError):
    """A linear-algebra step failed to produce a usable result."""


class DivergedBehindCamera(CalibrationError):
    """Refinement started from, or reached, a pose placing points behind the camera."""


class TooFewPairs(CalibrationError):
    """Fewer usable 2D-3D pairs than the requested minimum."""

    def __init__(self, n_usable: int, min_pairs: int, dropped=()):
        self.n_usable = n_usable
        self.min_pairs = min_pairs
        self.dropped = tuple(dropped)
        super().__init__(
            f"only {n_usable} usable frame pairs, need at least {min_pairs}; "
            "record more motion or relax the selection options"
        )


class InsufficientMotion(CalibrationError):
    """Motion pairs lack the rotational diversity needed to solve AX=XB."""


class UnreachableView(CalibrationError):
    """No camera placement kept the reference point visible."""


class ParseError(CalibrationError):
    """A file violates its format; carries location when known."""

    def __init__(self, message: str, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        where = ""
        if path is not None:
            where += f"{path}"
        if line is not None:
            where += f":{line}"
        if column is not None:
            where += f":{column}"
        super().__init__(f"{where}: {message}" if where else message)


class NonMonotoneFrames(ParseError):
    """Frame indices in a log or track file repeat or decrease."""


class SchemaMismatch(CalibrationError):
    """Two inputs disagree on structure (e.g. joint counts)."""
