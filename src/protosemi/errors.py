"""Exception types shared across the package."""


class ProtoSemiError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ProtoSemiError, ValueError):
    """An argument violates an operation's contract."""


class FormatError(ProtoSemiError, ValueError):
    """A file is malformed; the message names the offending record."""


class DegenerateClassError(ProtoSemiError):
    """A class has no confident samples, so its prototype is undefined."""


class DegenerateGeometryError(ProtoSemiError):
    """A zero vector makes cosine similarity undefined."""
