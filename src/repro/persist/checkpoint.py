"""Versioned, digest-sealed checkpoint files.

A checkpoint is one JSONL file capturing everything a
:class:`~repro.api.service.QueryService` needs to come back
bit-identical: the engine config, the indoor space (plus its
``topology_version``), the full object table **in insertion order**,
every standing query's spec and its maintainer's
:meth:`~repro.queries.maintainers.StandingQuery.snapshot` state **in
registration order** (both orders matter — dict iteration order is
delta *emission* order, so preserving them is part of bit-identity),
and the service's auto-id counter.

Layout (one JSON object per line, canonical encoding)::

    {"config":{...},"extra":{...},"n_objects":120,"n_queries":4,
     "next_auto_id":5,"space":{...},"spec_schema":1,
     "topology_version":3,"type":"checkpoint","v":3}
    {"center":[4.0,5.0,0],"id":"o1","radius":1.5,
     "type":"object","xy":"AAAAAAAAEEAAAAAAAAAUQA=="}  # xN, in order
    {"query_id":"irq-1","spec":{...},"state":{...},"type":"query"}
    {"algo":"sha256","hex":"...","records":125,"type":"digest"}

An object record's location is packed (base64 little-endian float64
``xy``, and ``probs`` unless uniform — see :mod:`repro.persist.codec`).
The reader accepts versions 1 to :data:`CHECKPOINT_VERSION`:

* **3** — packed object locations;
* **2** — ``"xy":[[x,y],…],"probs":[p,…]`` float lists;
* **1** — as 2, plus the shard router's ``reach_epoch`` in the header
  and shard-engine names in the config, which are read past.

A config's ``maxlen`` (the removed default subscription bound) is read
past too.

:attr:`CheckpointState.version` records which one a state was read
from, and :meth:`CheckpointState.uncertain_objects` decodes its object
records with that version's decoder.

The digest line seals every preceding byte: a torn write (no digest
line), a truncated body, or any flipped bit raises
:class:`~repro.errors.PersistError` on read — recovery then falls back
to the previous manifest entry (see :mod:`repro.persist.store`) rather
than restoring silently-wrong state.  Writes are atomic
(tmp + fsync + ``os.replace``), so a crash mid-checkpoint leaves the
previous checkpoint intact and never a half-file under the final name.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.api.specs import SPEC_SCHEMA_VERSION
from repro.errors import PersistError
from repro.objects.uncertain import UncertainObject
from repro.persist.codec import object_from_dict, object_to_dict

#: Version stamped into every checkpoint header; readers reject
#: versions they do not know how to restore.  Version 1 also carried
#: the shard router's cache counters, which a version-2 file omits;
#: version 3 packs object locations.
CHECKPOINT_VERSION = 3

#: Versions :func:`read_checkpoint` accepts.
_READABLE_VERSIONS = (1, 2, CHECKPOINT_VERSION)

#: The first version whose object records are packed.
_PACKED_SINCE = 3

#: Header fields and the JSON type each must have.
_HEADER_FIELDS = (
    ("config", dict),
    ("space", dict),
    ("topology_version", int),
    ("next_auto_id", int),
    ("extra", dict),
)


def _dumps(payload: dict[str, Any]) -> str:
    try:
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise PersistError(f"unencodable checkpoint record: {exc}") from None


def _record(line: str) -> dict[str, Any]:
    """One checkpoint line as a JSON object, or ``PersistError``."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # or too many digits
        raise PersistError(f"malformed checkpoint line: {exc}") from None
    if not isinstance(record, dict):
        raise PersistError(f"checkpoint line is not an object: {record!r}")
    return record


@dataclass
class CheckpointState:
    """The deserialized content of one checkpoint file — the value
    :meth:`repro.api.service.QueryService.checkpoint` captures and
    :meth:`~repro.api.service.QueryService.restore` rebuilds from."""

    config: dict[str, Any]
    space: dict[str, Any]
    topology_version: int
    next_auto_id: int
    #: ``object_to_dict`` payloads, population insertion order.
    objects: list[dict[str, Any]] = field(default_factory=list)
    #: ``{"query_id", "spec", "state"}`` payloads, registration order.
    queries: list[dict[str, Any]] = field(default_factory=list)
    #: Opaque caller payload carried through the round trip (the net
    #: layer stores its resume-session table here).
    extra: dict[str, Any] = field(default_factory=dict)
    #: The format version of ``objects``: the file's, for a state read
    #: from disk; the current one for a freshly captured state.
    version: int = CHECKPOINT_VERSION

    def uncertain_objects(self) -> Iterator[UncertainObject]:
        """The object records decoded, in order; ``PersistError`` on
        the first malformed one."""
        packed = self.version >= _PACKED_SINCE
        for payload in self.objects:
            yield object_from_dict(payload, packed)


def write_checkpoint(path: str | Path, state: CheckpointState) -> int:
    """Write ``state`` atomically to ``path``; returns bytes written.

    The file appears under its final name only complete and sealed:
    content goes to a same-directory tmp file, is fsynced, then
    ``os.replace``\\ d into place.  A state read from an older file
    is written in the current format: its objects are re-encoded.
    """
    path = Path(path)
    objects = state.objects
    if state.version < _PACKED_SINCE:
        objects = [object_to_dict(o) for o in state.uncertain_objects()]
    header = {
        "type": "checkpoint",
        "v": CHECKPOINT_VERSION,
        "spec_schema": SPEC_SCHEMA_VERSION,
        "config": state.config,
        "space": state.space,
        "topology_version": state.topology_version,
        "next_auto_id": state.next_auto_id,
        "n_objects": len(objects),
        "n_queries": len(state.queries),
        "extra": state.extra,
    }
    lines = [_dumps(header)]
    for obj in objects:
        lines.append(_dumps({"type": "object", **obj}))
    for query in state.queries:
        lines.append(_dumps({"type": "query", **query}))
    body = "".join(line + "\n" for line in lines).encode()
    digest = {
        "type": "digest",
        "algo": "sha256",
        "hex": hashlib.sha256(body).hexdigest(),
        "records": len(lines),
    }
    blob = body + (_dumps(digest) + "\n").encode()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fp:
        fp.write(blob)
        fp.flush()
        os.fsync(fp.fileno())
    os.replace(tmp, path)
    return len(blob)


def read_checkpoint(path: str | Path) -> CheckpointState:
    """Read and verify a checkpoint; :class:`PersistError` on a
    missing/torn/corrupt/unknown-version file (recovery treats any of
    these as "this entry is unusable, fall back")."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise PersistError(f"unreadable checkpoint {path}: {exc}") from None
    lines = raw.decode(errors="replace").splitlines()
    if not lines:
        raise PersistError(f"empty checkpoint {path}")
    try:
        tail = _record(lines[-1])
    except PersistError:
        raise PersistError(
            f"torn checkpoint {path}: no digest line"
        ) from None
    if tail.get("type") != "digest":
        raise PersistError(f"torn checkpoint {path}: no digest line")
    body = "".join(line + "\n" for line in lines[:-1]).encode()
    if tail.get("algo") != "sha256":
        raise PersistError(
            f"checkpoint {path}: unknown digest algo {tail.get('algo')!r}"
        )
    if hashlib.sha256(body).hexdigest() != tail.get("hex"):
        raise PersistError(f"checkpoint {path}: content digest mismatch")
    if tail.get("records") != len(lines) - 1:
        raise PersistError(f"checkpoint {path}: record count mismatch")
    header = _record(lines[0])
    if header.get("type") != "checkpoint":
        raise PersistError(f"checkpoint {path}: missing header record")
    version = header.get("v")
    if version not in _READABLE_VERSIONS:
        raise PersistError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads versions {_READABLE_VERSIONS})"
        )
    if header.get("spec_schema") != SPEC_SCHEMA_VERSION:
        raise PersistError(
            f"unsupported spec schema {header.get('spec_schema')!r} "
            f"in checkpoint {path}"
        )
    objects: list[dict[str, Any]] = []
    queries: list[dict[str, Any]] = []
    for line in lines[1:-1]:
        record = _record(line)
        rtype = record.get("type")
        if rtype == "object":
            objects.append(record)
        elif rtype == "query":
            queries.append(record)
        else:
            raise PersistError(
                f"checkpoint {path}: unknown record type {rtype!r}"
            )
    if len(objects) != header.get("n_objects") or len(queries) != header.get(
        "n_queries"
    ):
        raise PersistError(f"checkpoint {path}: body/header count mismatch")
    header.setdefault("extra", {})
    for name, kind in _HEADER_FIELDS:
        value = header.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise PersistError(
                f"checkpoint {path}: header field {name} is {value!r}"
            )
    # A version-1 header's "reach_epoch" is read past, not restored.
    return CheckpointState(
        config=header["config"],
        space=header["space"],
        topology_version=header["topology_version"],
        next_auto_id=header["next_auto_id"],
        objects=objects,
        queries=queries,
        extra=header["extra"],
        version=version,
    )
