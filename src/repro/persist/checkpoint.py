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

    {"type":"checkpoint","v":2,"spec_schema":1,"config":{...},
     "space":{...},"topology_version":3,
     "next_auto_id":5,"n_objects":120,"n_queries":4,"extra":{...}}
    {"type":"object","id":"o1","center":[x,y,f],"radius":2.0,
     "xy":[[..]],"probs":[..]}                      # xN, in order
    {"type":"query","query_id":"irq-1","spec":{...},"state":{...}}
    {"type":"digest","algo":"sha256","hex":"...","records":125}

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
from typing import Any

from repro.api.specs import SPEC_SCHEMA_VERSION
from repro.errors import PersistError

#: Version stamped into every checkpoint header; readers reject
#: versions they do not know how to restore.  Version 1 also carried
#: the shard router's cache counters, which a version-2 file omits.
CHECKPOINT_VERSION = 2


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


def write_checkpoint(path: str | Path, state: CheckpointState) -> int:
    """Write ``state`` atomically to ``path``; returns bytes written.

    The file appears under its final name only complete and sealed:
    content goes to a same-directory tmp file, is fsynced, then
    ``os.replace``\\ d into place.
    """
    path = Path(path)
    header = {
        "type": "checkpoint",
        "v": CHECKPOINT_VERSION,
        "spec_schema": SPEC_SCHEMA_VERSION,
        "config": state.config,
        "space": state.space,
        "topology_version": state.topology_version,
        "next_auto_id": state.next_auto_id,
        "n_objects": len(state.objects),
        "n_queries": len(state.queries),
        "extra": state.extra,
    }
    lines = [_dumps(header)]
    for obj in state.objects:
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
        tail = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise PersistError(
            f"torn checkpoint {path}: no digest line"
        ) from None
    if not isinstance(tail, dict) or tail.get("type") != "digest":
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
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise PersistError(f"checkpoint {path}: bad header: {exc}") from None
    if header.get("type") != "checkpoint":
        raise PersistError(f"checkpoint {path}: missing header record")
    if header.get("v") not in (1, CHECKPOINT_VERSION):
        raise PersistError(
            f"unsupported checkpoint version {header.get('v')!r} "
            f"(this build reads versions 1 to {CHECKPOINT_VERSION})"
        )
    if header.get("spec_schema") != SPEC_SCHEMA_VERSION:
        raise PersistError(
            f"unsupported spec schema {header.get('spec_schema')!r} "
            f"in checkpoint {path}"
        )
    objects: list[dict[str, Any]] = []
    queries: list[dict[str, Any]] = []
    for line in lines[1:-1]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:  # pragma: no cover - sealed
            raise PersistError(
                f"checkpoint {path}: bad record: {exc}"
            ) from None
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
    # A version-1 header's "reach_epoch" is read past, not restored.
    return CheckpointState(
        config=header["config"],
        space=header["space"],
        topology_version=int(header["topology_version"]),
        next_auto_id=int(header["next_auto_id"]),
        objects=objects,
        queries=queries,
        extra=header.get("extra", {}),
    )
