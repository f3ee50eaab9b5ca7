"""Declarative query specifications — the value objects of `repro.api`.

A *spec* describes **what** to ask, independent of **how** it is
evaluated: :class:`RangeSpec` is the paper's iRQ (Definition 3),
:class:`KNNSpec` the ikNNQ (Definition 4) and :class:`ProbRangeSpec`
the probabilistic-threshold extension (:func:`repro.queries.iPRQ`).
Every evaluation surface — one-shot execution, standing registration on
a monitor, async subscription — takes the same spec, so a new
capability is plumbed through exactly one registration path instead of
three near-duplicate ``register_irq``/``register_iknn`` trios.

Specs are frozen, validated at construction (same
:class:`~repro.errors.QueryError`\\ s the legacy entry points raised),
and **versioned**: :meth:`QuerySpec.to_dict` emits a plain dict stamped
with :data:`SPEC_SCHEMA_VERSION` and :func:`spec_from_dict` rebuilds the
spec from it, refusing unknown versions or kinds.  Numeric fields are
canonicalised (``r`` to float, ``k`` to int) so that encoding a decoded
dict is byte-identical under the canonical JSON encoding of
:mod:`repro.api.wire` — the round-trip property
``tests/api/test_wire.py`` enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.errors import QueryError
from repro.geometry.point import Point

#: Version stamped into every serialized spec.  Bump on any change to
#: the spec dict layout; ``spec_from_dict`` rejects versions it does
#: not know how to read (see the "API" section of ROADMAP.md).
SPEC_SCHEMA_VERSION = 1

#: kind string -> spec class, fed by ``_spec_kind`` below.
_SPEC_KINDS: dict[str, type["QuerySpec"]] = {}


def _spec_kind(cls: type["QuerySpec"]) -> type["QuerySpec"]:
    _SPEC_KINDS[cls.kind] = cls
    return cls


def _point_to_wire(q: Point) -> list[float]:
    """Canonical wire form of a query point: ``[x, y, floor]`` with the
    planar coordinates coerced to float (so re-encoding a decoded point
    is byte-identical even when the caller used ints)."""
    return [float(q.x), float(q.y), int(q.floor)]


def _point_from_wire(value: Any) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise QueryError(f"malformed query point {value!r}")
    x, y, floor = value
    return Point(
        _as_float(x, "query point x"),
        _as_float(y, "query point y"),
        _as_int(floor, "query point floor"),
    )


def _as_float(value: Any, what: str) -> float:
    if isinstance(value, bool):  # bool is an int subclass: not a number
        raise QueryError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise QueryError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(out):  # no wire line can carry it
        raise QueryError(f"{what} must be finite, got {value!r}")
    return out


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise QueryError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise QueryError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class QuerySpec:
    """Base class of the declarative query specs.

    Subclasses set ``kind`` (the wire discriminator, doubling as the
    standing-query id prefix) and ``watchable`` (whether the continuous
    monitor has a registered maintainer for the kind — all three
    built-in kinds do, see :mod:`repro.queries.maintainers`).
    """

    kind: ClassVar[str] = ""
    watchable: ClassVar[bool] = False

    def to_dict(self) -> dict[str, Any]:
        """Versioned plain-dict form, ``spec_from_dict``'s inverse."""
        out: dict[str, Any] = {
            "v": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "q": _point_to_wire(self.q),  # type: ignore[attr-defined]
        }
        out.update(self._params())
        return out

    def _params(self) -> dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    @staticmethod
    def from_dict(data: Any) -> "QuerySpec":
        """Rebuild any spec kind from its versioned dict form."""
        return spec_from_dict(data)


@_spec_kind
@dataclass(frozen=True)
class RangeSpec(QuerySpec):
    """Indoor range query: objects within expected indoor distance
    ``r`` of ``q`` (Definition 3, Algorithm 1)."""

    q: Point
    r: float

    kind: ClassVar[str] = "irq"
    watchable: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _as_float(self.r, "query range"))
        if not self.r >= 0:
            raise QueryError(f"negative query range {self.r}")

    def _params(self) -> dict[str, Any]:
        return {"r": self.r}

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "RangeSpec":
        return cls(_point_from_wire(data.get("q")), data.get("r"))


@_spec_kind
@dataclass(frozen=True)
class KNNSpec(QuerySpec):
    """Indoor k-nearest-neighbour query: the ``k`` objects with the
    smallest expected indoor distances from ``q`` (Definition 4,
    Algorithm 2)."""

    q: Point
    k: int

    kind: ClassVar[str] = "iknn"
    watchable: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _as_int(self.k, "k"))
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")

    def _params(self) -> dict[str, Any]:
        return {"k": self.k}

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "KNNSpec":
        return cls(_point_from_wire(data.get("q")), data.get("k"))


@_spec_kind
@dataclass(frozen=True)
class ProbRangeSpec(QuerySpec):
    """Probabilistic-threshold range query: objects whose probability
    of lying within indoor distance ``r`` of ``q`` is at least
    ``p_min`` (the iPRQ extension).  Watchable: the standing variant is
    maintained incrementally by
    :class:`~repro.queries.maintainers.ProbRangeMaintainer`."""

    q: Point
    r: float
    p_min: float

    kind: ClassVar[str] = "iprq"
    watchable: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _as_float(self.r, "query range"))
        object.__setattr__(
            self, "p_min", _as_float(self.p_min, "p_min")
        )
        if not self.r >= 0:
            raise QueryError(f"negative query range {self.r}")
        if not 0.0 < self.p_min <= 1.0:
            raise QueryError(f"p_min must be in (0, 1], got {self.p_min}")

    def _params(self) -> dict[str, Any]:
        return {"r": self.r, "p_min": self.p_min}

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "ProbRangeSpec":
        return cls(
            _point_from_wire(data.get("q")),
            data.get("r"),
            data.get("p_min"),
        )


@_spec_kind
@dataclass(frozen=True)
class CountSpec(QuerySpec):
    """Aggregate count watch: alert when the number of objects within
    expected indoor distance ``r`` of ``q`` reaches ``threshold``.

    Watch-only (``QueryService.run`` refuses it — a one-shot count is
    just ``len(run(RangeSpec(q, r)))``): the standing variant,
    maintained by :class:`~repro.queries.maintainers.CountMaintainer`,
    publishes a single synthetic ``"count"`` member annotated with the
    current count while the threshold is met, and an empty result while
    it is not — so delta subscribers see *entered* when occupancy
    crosses up, *distance_changed* re-annotations while it varies above
    the threshold, and *left* when it crosses back down."""

    q: Point
    r: float
    threshold: int

    kind: ClassVar[str] = "icount"
    watchable: ClassVar[bool] = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _as_float(self.r, "query range"))
        object.__setattr__(
            self, "threshold", _as_int(self.threshold, "threshold")
        )
        if not self.r >= 0:
            raise QueryError(f"negative query range {self.r}")
        if self.threshold < 1:
            raise QueryError(
                f"threshold must be >= 1, got {self.threshold}"
            )

    def _params(self) -> dict[str, Any]:
        return {"r": self.r, "threshold": self.threshold}

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "CountSpec":
        return cls(
            _point_from_wire(data.get("q")),
            data.get("r"),
            data.get("threshold"),
        )


@_spec_kind
@dataclass(frozen=True)
class OccupancySpec(QuerySpec):
    """Per-partition occupancy watch: alert while the number of objects
    located inside partition ``partition_id`` is at least ``threshold``.

    The only *anchored* spec kind: it names a partition instead of
    carrying a query point (the maintainer derives its spatial anchor
    from the partition's footprint at registration time).  Watch-only,
    like :class:`CountSpec`: the standing variant, maintained by
    :class:`~repro.queries.maintainers.OccupancyMaintainer`, publishes a
    single synthetic ``"occupancy"`` member annotated with the current
    population while the threshold is met — the natural evacuation /
    crowd-crush alarm (*entered* when a room fills past ``threshold``,
    re-annotations while it varies above, *left* when it drains back
    down)."""

    partition_id: str
    threshold: int

    kind: ClassVar[str] = "iocc"
    watchable: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if (
            not isinstance(self.partition_id, str)
            or not self.partition_id
        ):
            raise QueryError(
                f"partition_id must be a non-empty string, got "
                f"{self.partition_id!r}"
            )
        object.__setattr__(
            self, "threshold", _as_int(self.threshold, "threshold")
        )
        if self.threshold < 1:
            raise QueryError(
                f"threshold must be >= 1, got {self.threshold}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Anchored specs have no query point, so the base ``q`` field
        is replaced by the partition name."""
        return {
            "v": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "partition": self.partition_id,
            "threshold": self.threshold,
        }

    def _params(self) -> dict[str, Any]:  # pragma: no cover - unused
        raise AssertionError("unreachable: to_dict is overridden")

    @classmethod
    def _from_dict(cls, data: dict[str, Any]) -> "OccupancySpec":
        return cls(data.get("partition"), data.get("threshold"))


def spec_from_dict(data: Any) -> QuerySpec:
    """Rebuild a spec from its :meth:`QuerySpec.to_dict` form.

    Raises :class:`~repro.errors.QueryError` on malformed input, an
    unsupported schema version, or an unknown kind — a clear failure
    beats silently guessing at a wire peer's newer schema.
    """
    if not isinstance(data, dict):
        raise QueryError(f"spec must be a dict, got {type(data).__name__}")
    version = data.get("v")
    if version != SPEC_SCHEMA_VERSION:
        raise QueryError(
            f"unsupported spec schema version {version!r} "
            f"(this build reads version {SPEC_SCHEMA_VERSION})"
        )
    kind = data.get("kind")
    cls = _SPEC_KINDS.get(kind)
    if cls is None:
        raise QueryError(f"unknown query spec kind {kind!r}")
    return cls._from_dict(data)  # type: ignore[attr-defined]


def standing_spec(spec: QuerySpec) -> QuerySpec:
    """Validate that ``spec`` can be registered as a standing query;
    the single gate every ``register(spec)`` path shares."""
    if not isinstance(spec, QuerySpec):
        raise QueryError(
            f"expected a QuerySpec, got {type(spec).__name__}"
        )
    if not spec.watchable:
        raise QueryError(
            f"{type(spec).__name__} ({spec.kind}) is one-shot only and "
            "cannot be registered as a standing query"
        )
    return spec  # type: ignore[return-value]
