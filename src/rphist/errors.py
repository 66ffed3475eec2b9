"""Exception types raised by rphist operations."""


class RphistError(Exception):
    """Base class for all rphist errors."""


class NotBisectable(RphistError):
    """The widest coordinate of a box cannot be split at its midpoint in
    machine arithmetic (zero width, or midpoint not strictly interior),
    or a root box's volume is zero or not finite."""


class DimensionMismatch(RphistError):
    """A point or box has the wrong number of coordinates."""


class EmptyInput(RphistError):
    """An operation that needs at least one point received none."""


class RootHasNoParent(RphistError):
    """parent() was called on the root label 1."""


class NotALeaf(RphistError):
    """split() targeted a node that is not a leaf of the tree."""


class PointOutsideRootBox(RphistError):
    """Strict ingest found a data point outside the root box."""


class EmptySample(RphistError):
    """A histogram or likelihood was requested for an SRP with n = 0."""


class InsufficientData(RphistError):
    """Cross-validation needs at least two data points."""


class InvalidTau(RphistError):
    """The smoothing parameter tau must be positive."""


class EmptyCandidateSet(RphistError):
    """MAP selection received no candidate states."""


class UnknownReference(RphistError):
    """An evaluation reference density name was not recognized."""


class ParseError(RphistError, ValueError):
    """A data file could not be parsed (a malformed value, so also a ValueError)."""
