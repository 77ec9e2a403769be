"""Matcher snapshots: persist and restore whole subscription sets.

Subscriptions outlive matcher processes — an exchange restarting must not
lose its advertisers.  A snapshot is a JSON-Lines file:

* line 1 — a header: wire-format version, the matcher's algorithm name,
  its proration flag, and the attribute schema (so a restored matcher
  indexes every attribute the same way — the paper's consistency
  requirement from section 4.2);
* one line per subscription, in the :mod:`repro.core.codec` wire format.

Runtime budget *state* (amount spent, window begin times) is deliberately
not persisted: Definition 4 anchors each window to the moment the
subscription is added, and a restore is a re-add — restarting mid-window
with stale spend would misprice the remaining window.  The paper gives no
recovery semantics; this choice is documented rather than hidden.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Set, TextIO, Union

from repro.core.attributes import AttributeKind, Schema
from repro.core.codec import CodecError, subscription_from_dict, subscription_to_dict
from repro.core.interfaces import TopKMatcher
from repro.core.subscriptions import Subscription

__all__ = ["SnapshotError", "save_matcher", "load_matcher", "restore_into"]

SnapshotError = CodecError  # same failure domain: malformed persisted data

_HEADER_KIND = "repro-matcher-snapshot"


def _schema_to_dict(schema: Schema) -> Dict[str, str]:
    return {attribute: kind.value for attribute, kind in schema.items()}


def _schema_from_dict(raw: Dict[str, str]) -> Schema:
    kinds = {}
    for attribute, kind_name in raw.items():
        try:
            kinds[attribute] = AttributeKind(kind_name)
        except ValueError:
            raise SnapshotError(f"unknown attribute kind {kind_name!r}") from None
    return Schema(kinds)


def save_matcher(matcher: TopKMatcher, path: Union[str, os.PathLike]) -> int:
    """Write the matcher's subscriptions to ``path``; returns the count.

    The write is atomic: content goes to ``<path>.tmp`` first and is
    renamed into place, so a crash mid-save never truncates an existing
    snapshot.
    """
    temp_path = f"{os.fspath(path)}.tmp"
    count = 0
    with open(temp_path, "w", encoding="utf-8") as handle:
        header = {
            "kind": _HEADER_KIND,
            "v": 1,
            "algorithm": matcher.name,
            "prorate": matcher.prorate,
            "schema": _schema_to_dict(matcher.schema),
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for subscription in matcher.subscriptions.values():
            handle.write(json.dumps(subscription_to_dict(subscription), sort_keys=True) + "\n")
            count += 1
    os.replace(temp_path, path)
    return count


def restore_into(matcher: TopKMatcher, path: Union[str, os.PathLike]) -> int:
    """Load a snapshot's subscriptions into an existing matcher, all or nothing.

    Returns the number of subscriptions added.  Every line is parsed and
    validated before the matcher is touched: a malformed line, or a sid
    that repeats within the file or is already in ``matcher``, raises
    :class:`SnapshotError` and changes nothing.  Should an add still fail
    (a header kind that conflicts with the matcher's schema, say), the
    subscriptions already added are cancelled and the schema's kinds
    restored, as :meth:`~repro.core.matcher.FXTMMatcher.bulk_load` does,
    and the error propagates.
    """
    subscriptions: List[Subscription] = []
    seen: Set[Any] = set()
    with open(path, "r", encoding="utf-8") as handle:
        header = _read_header(handle, path)
        declared = _schema_from_dict(header.get("schema", {}))
        for line_number, line in enumerate(handle, start=2):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                subscription = subscription_from_dict(json.loads(stripped))
            except json.JSONDecodeError as error:
                raise SnapshotError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            except CodecError as error:
                raise SnapshotError(f"{path}:{line_number}: {error}") from None
            sid = subscription.sid
            if sid in seen:
                raise SnapshotError(f"{path}:{line_number}: duplicate sid {sid!r}")
            if sid in matcher:
                raise SnapshotError(
                    f"{path}:{line_number}: sid {sid!r} is already in the matcher"
                )
            seen.add(sid)
            subscriptions.append(subscription)
    kinds_before = matcher.schema.snapshot_kinds()
    added: List[Any] = []
    try:
        for attribute, kind in declared.items():
            matcher.schema.declare(attribute, kind)
        for subscription in subscriptions:
            matcher.add_subscription(subscription)
            added.append(subscription.sid)
    except Exception:
        for sid in reversed(added):
            matcher.cancel_subscription(sid)
        matcher.schema.restore_kinds(kinds_before)
        raise
    return len(added)


def load_matcher(
    path: Union[str, os.PathLike],
    factory: Optional[Callable[..., TopKMatcher]] = None,
) -> TopKMatcher:
    """Build a fresh matcher from a snapshot.

    Without ``factory``, the header's algorithm name is looked up in the
    bench registry (fx-tm, be-star, fagin, fagin-augmented, naive) and
    the matcher is constructed with the snapshot's proration flag and
    schema.  Pass ``factory(schema=..., prorate=...)`` to override.
    """
    with open(path, "r", encoding="utf-8") as handle:
        header = _read_header(handle, path)
    schema = _schema_from_dict(header.get("schema", {}))
    prorate = bool(header.get("prorate", False))
    if factory is None:
        from repro.bench.harness import ALGORITHMS

        algorithm = header.get("algorithm", "fx-tm")
        constructor = ALGORITHMS.get(algorithm)
        if constructor is None:
            raise SnapshotError(
                f"snapshot names unknown algorithm {algorithm!r}; pass a factory"
            )
        matcher = constructor(schema=schema, prorate=prorate)
    else:
        matcher = factory(schema=schema, prorate=prorate)
    restore_into(matcher, path)
    return matcher


def _read_header(handle: TextIO, path: Union[str, os.PathLike]) -> Dict[str, Any]:
    first = handle.readline()
    if not first:
        raise SnapshotError(f"{path}: empty snapshot file")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as error:
        raise SnapshotError(f"{path}:1: invalid JSON header: {error}") from None
    if not isinstance(header, dict) or header.get("kind") != _HEADER_KIND:
        raise SnapshotError(f"{path}: not a matcher snapshot")
    if header.get("v") != 1:
        raise SnapshotError(f"{path}: unsupported snapshot version {header.get('v')!r}")
    return header
