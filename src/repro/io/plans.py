"""Persistence for the serving layer's plan cache.

A plan-cache file is a single JSON document::

    {
      "format": "fupermod-plan-cache",
      "version": 1,
      "fingerprint_version": "fp1",
      "entries": [ {"key": ..., "models_fp": ..., "result": {...}}, ... ]
    }

Entries are stored oldest-first (LRU order), so a round trip preserves
eviction priority.  The fingerprint version is recorded because keys are
only meaningful under the encoding that produced them: a file written
under a different :data:`~repro.serve.fingerprint.FINGERPRINT_VERSION`
is loaded as *empty* (with a count of 0) rather than polluting the cache
with entries that can never match -- and could falsely match if the
canonical encodings collided.

A snapshot is one half of the durability story: between snapshots,
:class:`repro.serve.wal.DurablePlanCache` journals every mutation to a
write-ahead log and recovers from ``snapshot + WAL replay``, so the
whole-file save here only needs to run at compaction points (and
shutdown), not on every insert.

TTL note: entry ages are **not** persisted.  The cache timestamps with a
monotonic clock (immune to wall-clock jumps), and monotonic readings do
not survive a restart, so loaded entries start a fresh TTL window.  This
is documented as part of the cache contract in ``docs/API.md``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.errors import PersistenceError
from repro.serve.cache import PlanCache, payload_entry
from repro.serve.fingerprint import FINGERPRINT_VERSION
from repro.serve.journal import fsync_dir

_FORMAT = "fupermod-plan-cache"
_VERSION = 1

PathLike = Union[str, Path]


def save_plan_cache(path: PathLike, cache: PlanCache) -> int:
    """Atomically write the cache's live entries to ``path``; returns the count.

    The document lands via temp-file + ``os.replace`` (the
    ``SweepCheckpoint.compact`` idiom), fsynced before the rename and
    with the parent directory fsynced after it (so the rename itself
    survives a power cut), so a
    crash mid-save leaves either the old snapshot or the new one --
    never a torn file.  The entries are captured in one locked call
    (:meth:`PlanCache.payload_items`), so saving while serving threads
    insert concurrently snapshots a consistent LRU state.
    """
    items = cache.payload_items()
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            _write_document(handle, items)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        fsync_dir(target.parent)
    except OSError as exc:
        raise PersistenceError(f"cannot save plan cache to {path}: {exc}") from exc
    return len(items)


def _write_document(handle, items) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"``, rendering one entry at a time.

    The byte layout is that of the whole document dumped at once; only
    one entry's dict and text are alive at a time, so a compaction of
    large plans costs no memory spike.
    """
    handle.write("{\n")
    for name, value in (("format", _FORMAT), ("version", _VERSION),
                        ("fingerprint_version", FINGERPRINT_VERSION)):
        handle.write(f"  {json.dumps(name)}: {json.dumps(value)},\n")
    if not items:
        handle.write('  "entries": []\n}\n')
        return
    handle.write('  "entries": [\n')
    for i, item in enumerate(items):
        text = json.dumps(payload_entry(*item), indent=2)
        handle.write("    " + text.replace("\n", "\n    "))
        handle.write(",\n" if i + 1 < len(items) else "\n")
    handle.write("  ]\n}\n")


def load_plan_cache(path: PathLike, cache: PlanCache) -> int:
    """Load persisted entries into ``cache``; returns how many loaded.

    A file written under a different fingerprint version loads zero
    entries (see module docstring).  A structurally invalid file raises
    :class:`~repro.errors.PersistenceError`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PersistenceError(
            f"cannot read {path}: not a UTF-8 text file ({exc})"
        ) from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise PersistenceError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise PersistenceError(f"{path}: not a fupermod plan-cache file")
    if doc.get("version") != _VERSION:
        raise PersistenceError(
            f"{path}: unsupported plan-cache version {doc.get('version')!r}"
        )
    if doc.get("fingerprint_version") != FINGERPRINT_VERSION:
        return 0
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise PersistenceError(f"{path}: 'entries' must be a list")
    try:
        return cache.load_payload(entries)
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"{path}: malformed cache entry: {exc}") from exc
