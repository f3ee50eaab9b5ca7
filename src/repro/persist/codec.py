"""JSON codecs for the durable-state subsystem's payloads.

Checkpoints and WAL records both need plain-dict forms of the mutable
world: uncertain objects, position moves, and topology events.  These
are *persistence* codecs, distinct from the delta wire protocol of
:mod:`repro.api.wire`: the wire ships result changes to subscribers,
these ship the inputs that produced them.

An object location is written **packed**::

    {"center":[x,y,floor],"radius":r,"xy":"<base64>","probs":"<base64>"}

``xy`` is the base64 of the instance coordinates as little-endian
float64 bytes (``x0 y0 x1 y1 …``) and ``probs`` the same for the
instance probabilities.  ``probs`` is omitted when it is bit for bit
``np.full(n, 1.0 / n)`` — the paper's equal-probability samples, which
every generated workload uses.  Raw bytes round-trip every bit pattern
exactly, in about half the decimal form's bytes and a third of its
encode time.

Older files (WAL version 1, checkpoint versions 1 and 2) carry the
**list** form, ``"xy":[[x,y],…],"probs":[p,…]`` with ``repr`` floats;
the decoders take ``packed=False`` to read it.  Nothing writes it.

Every decoder fails closed: a malformed, non-finite or inconsistent
payload raises :class:`~repro.errors.PersistError`, never another
exception type, so the WAL reader's torn-tail rule and recovery's
fallback see every bad record.
"""

from __future__ import annotations

import base64
import binascii
import functools
import math
from typing import Any

import numpy as np

from repro.errors import PersistError, ReproError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.objects.instances import InstanceSet
from repro.objects.population import ObjectMove
from repro.objects.uncertain import UncertainObject
from repro.space.door import DoorDirection
from repro.space.events import (
    CloseDoor,
    MergePartitions,
    OpenDoor,
    SetDoorDirection,
    SplitPartition,
    TopologyEvent,
)


def _pack(values: np.ndarray, what: str) -> str:
    """Base64 of ``values`` as little-endian float64 bytes."""
    raw = np.ascontiguousarray(values, dtype="<f8")
    if not np.isfinite(raw).all():
        raise PersistError(f"unencodable non-finite instance {what}")
    return base64.b64encode(raw.tobytes()).decode("ascii")


def _unpack(text: Any, width: int, what: str) -> np.ndarray:
    """Inverse of :func:`_pack`: a flat, read-only, finite float64
    copy whose length is a multiple of ``width`` (an
    :class:`InstanceSet` shares it, and its reshapes, uncopied)."""
    if not isinstance(text, str):
        raise PersistError(f"packed {what} must be a string")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise PersistError(f"packed {what} is not base64: {exc}") from None
    if len(raw) % (8 * width):
        raise PersistError(
            f"packed {what} is {len(raw)} bytes, not a multiple of "
            f"{8 * width}"
        )
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.isfinite(values).all():
        raise PersistError(f"packed {what} holds a non-finite value")
    values.flags.writeable = False
    return values


@functools.lru_cache(maxsize=64)
def _uniform_bytes(n: int) -> bytes:
    """``np.full(n, 1.0 / n)``'s bytes: the probabilities a location
    omits, compared and restored bit for bit."""
    return np.full(n, 1.0 / n).tobytes()


def _location_to_dict(
    region: Circle, instances: InstanceSet
) -> dict[str, Any]:
    out = {
        "center": [
            float(region.center.x),
            float(region.center.y),
            int(region.center.floor),
        ],
        "radius": float(region.radius),
        "xy": _pack(instances.xy, "coordinates"),
    }
    probs = instances.probs
    if probs.tobytes() != _uniform_bytes(len(probs)):
        out["probs"] = _pack(probs, "probabilities")
    return out


def _packed_arrays(data: dict[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    xy = _unpack(data.get("xy"), 2, "xy").reshape(-1, 2)
    n = len(xy)
    if not n:
        raise PersistError("an object location needs an instance")
    if "probs" not in data:
        probs = np.frombuffer(_uniform_bytes(n), dtype=np.float64).copy()
        probs.flags.writeable = False
        return xy, probs
    probs = _unpack(data["probs"], 1, "probs")
    if len(probs) != n:
        raise PersistError(
            f"{len(probs)} packed probabilities for {n} instances"
        )
    return xy, probs


def _list_arrays(data: dict[str, Any]) -> tuple[np.ndarray, np.ndarray]:
    try:
        xy = np.array(data["xy"], dtype=float)
        probs = np.array(data["probs"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistError(f"malformed object location: {exc}") from None
    if not (np.isfinite(xy).all() and np.isfinite(probs).all()):
        raise PersistError("non-finite instance coordinate or probability")
    # Fresh copies: frozen, an InstanceSet shares them.
    xy.flags.writeable = probs.flags.writeable = False
    return xy, probs


def _location_from_dict(
    data: Any, packed: bool
) -> tuple[Circle, InstanceSet]:
    if not isinstance(data, dict):
        raise PersistError(f"object location must be an object: {data!r}")
    xy, probs = _packed_arrays(data) if packed else _list_arrays(data)
    try:
        x, y, floor = data["center"]
        center = (float(x), float(y), float(data["radius"]))
        if not all(map(math.isfinite, center)):
            raise ValueError(f"non-finite center or radius {center}")
        region = Circle(Point(center[0], center[1], int(floor)), center[2])
        instances = InstanceSet(xy, int(floor), probs)
    except (KeyError, TypeError, ValueError, OverflowError, ReproError) as exc:
        # ReproError: a negative radius, a bad mass or shape.
        raise PersistError(f"malformed object location: {exc}") from None
    return region, instances


def _located(
    data: Any, packed: bool
) -> tuple[str, Circle, InstanceSet]:
    """``(id, region, instances)`` of an object or move record."""
    region, instances = _location_from_dict(data, packed)
    if "id" not in data:
        raise PersistError(f"object record without an id: {data!r}")
    return str(data["id"]), region, instances


def object_to_dict(obj: UncertainObject) -> dict[str, Any]:
    """Plain-dict form of an uncertain object (id + region + samples)."""
    out = {"id": obj.object_id}
    out.update(_location_to_dict(obj.region, obj.instances))
    return out


def object_from_dict(data: Any, packed: bool = True) -> UncertainObject:
    """Inverse of :func:`object_to_dict` (``packed=False`` reads the
    list form of older files); raises ``PersistError``."""
    return UncertainObject(*_located(data, packed))


def move_to_dict(move: ObjectMove) -> dict[str, Any]:
    """Plain-dict form of a position move (id + new location)."""
    out = {"id": move.object_id}
    out.update(_location_to_dict(move.new_region, move.new_instances))
    return out


def move_from_dict(data: Any, packed: bool = True) -> ObjectMove:
    """Inverse of :func:`move_to_dict` (``packed=False`` reads the list
    form of older files); raises ``PersistError``."""
    return ObjectMove(*_located(data, packed))


# -- topology events ----------------------------------------------------

_EVENT_KINDS = ("split", "merge", "close_door", "open_door", "set_direction")


def event_to_dict(event: TopologyEvent) -> dict[str, Any]:
    """Plain-dict form of a topology event, discriminated by ``event``."""
    if isinstance(event, SplitPartition):
        return {
            "event": "split",
            "partition_id": event.partition_id,
            "axis": event.axis,
            "coord": float(event.coord),
            "new_ids": list(event.new_ids) if event.new_ids else None,
            "connecting_door": bool(event.connecting_door),
            "connecting_door_id": event.connecting_door_id,
        }
    if isinstance(event, MergePartitions):
        return {
            "event": "merge",
            "partition_ids": list(event.partition_ids),
            "new_id": event.new_id,
        }
    if isinstance(event, CloseDoor):
        return {"event": "close_door", "door_id": event.door_id}
    if isinstance(event, OpenDoor):
        return {"event": "open_door", "door_id": event.door_id}
    if isinstance(event, SetDoorDirection):
        return {
            "event": "set_direction",
            "door_id": event.door_id,
            "direction": event.direction.value,
            "from_partition": event.from_partition,
        }
    raise PersistError(
        f"cannot serialize topology event {type(event).__name__}"
    )


def _optional_str(value: Any) -> str | None:
    return None if value is None else str(value)


def event_from_dict(data: Any) -> TopologyEvent:
    """Inverse of :func:`event_to_dict`; raises ``PersistError``."""
    if not isinstance(data, dict):
        raise PersistError(f"topology event must be an object: {data!r}")
    kind = data.get("event")
    try:
        if kind == "split":
            coord = float(data["coord"])
            if not math.isfinite(coord):
                raise ValueError(f"non-finite split coordinate {coord}")
            new_ids = data.get("new_ids")
            if new_ids is not None and (
                not isinstance(new_ids, list) or len(new_ids) != 2
            ):
                raise ValueError(f"new_ids must name two, got {new_ids!r}")
            return SplitPartition(
                str(data["partition_id"]),
                str(data["axis"]),
                coord,
                new_ids=tuple(map(str, new_ids)) if new_ids else None,
                connecting_door=bool(data.get("connecting_door", False)),
                connecting_door_id=_optional_str(
                    data.get("connecting_door_id")
                ),
            )
        if kind == "merge":
            ida, idb = data["partition_ids"]
            return MergePartitions(
                (str(ida), str(idb)),
                new_id=_optional_str(data.get("new_id")),
            )
        if kind == "close_door":
            return CloseDoor(str(data["door_id"]))
        if kind == "open_door":
            return OpenDoor(str(data["door_id"]))
        if kind == "set_direction":
            return SetDoorDirection(
                str(data["door_id"]),
                DoorDirection(data["direction"]),
                from_partition=_optional_str(data.get("from_partition")),
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistError(
            f"malformed topology event record: {exc}"
        ) from None
    raise PersistError(f"unknown topology event kind {kind!r}")
