"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single type at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GeometryError(ReproError):
    """Invalid geometric input (degenerate polygon, negative radius, ...)."""


class SpaceError(ReproError):
    """Inconsistent indoor-space model (unknown partition, bad door, ...)."""


class TopologyError(SpaceError):
    """A topology event could not be applied (e.g. splitting along a line
    that does not intersect the partition)."""


class IndexError_(ReproError):
    """Composite-index invariant violation or misuse.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class QueryError(ReproError):
    """Invalid query parameters (negative range, k < 1, point outside the
    building, ...)."""


class WireError(ReproError):
    """Malformed or unsupported wire-protocol data (bad JSON line,
    unknown record type, unsupported wire version, non-finite float)."""


class FramingError(WireError):
    """Corrupt network frame (bad header, oversized frame, or a
    sequence-number violation — a duplicated, dropped or reordered
    frame on a connection)."""


class PersistError(ReproError):
    """Durable-state failure: a torn or digest-mismatched checkpoint,
    an unreadable manifest, an unknown checkpoint/WAL schema version,
    or a recovery directory with nothing recoverable in it."""


class NetError(ReproError):
    """Network serving failure surfaced to the caller (negotiation
    refused, peer error record, dead connection past the reconnect
    budget, barrier timeout)."""


class UnreachableError(QueryError):
    """The query point cannot reach the requested entity through any path
    in the doors graph (e.g. isolated partition or one-way dead end)."""
