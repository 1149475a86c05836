"""One append-only journal discipline for every durable log.

Four journals grew the same idiom independently -- the plan WAL
(:mod:`repro.serve.wal`), the lineage WAL (:mod:`repro.serve.lineage`),
the hint log (:mod:`repro.serve.replicate`) and the sweep checkpoint
(:mod:`repro.io.checkpoint`): one fsynced JSON line per committed
record, a torn final line (SIGKILL mid-append) forgiven on replay,
interior corruption refused.  :class:`AppendJournal` is that idiom
extracted once, so all four share a single recovery contract and --
the point of the extraction -- a single place to inject storage faults:

* **append-is-commit** -- :meth:`_write_line` opens lazily, appends one
  ``json.dumps(..., sort_keys=True)`` line, flushes and fsyncs; once it
  returns the record is durable;
* **the fsyncgate rule** -- when a write *or an fsync* fails, the file
  handle is discarded before the error propagates.  A later fsync on
  the same handle may report success without covering the failed pages
  (the PostgreSQL fsyncgate lesson), so the only safe continuation is
  a fresh ``open()`` -- and before the next append uses it, any torn
  partial record the failure left at the tail is truncated away
  (*taint repair*), so appending after a short write can never weld a
  fragment onto the next record;
* **torn-tail replay** -- :meth:`replay_lines` returns the validated
  records, the byte length of the well-formed prefix (for truncation)
  and whether a torn tail was dropped; damage anywhere except the final
  line raises :class:`~repro.errors.PersistenceError`;
* **an injectable opener** -- every file touch (append, replay,
  truncate, reset) goes through ``self.opener``, so a single
  constructor argument splices :func:`repro.faults.disk.faulty_open`
  into any journal without that journal knowing faults exist.

Directory durability: creating the journal file and truncating or
resetting it are followed by a best-effort :func:`fsync_dir` of the
parent directory -- a crash between the metadata change and the
directory flush can otherwise lose the file itself.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.errors import PersistenceError

PathLike = Union[str, Path]

#: Anything that can stand in for the built-in ``open`` (the storage
#: fault seam; see :func:`repro.faults.disk.faulty_open`).
Opener = Callable[..., Any]


def fsync_dir(path: PathLike) -> None:
    """Flush a directory so a just-created/renamed file survives a crash.

    ``os.replace`` and file creation update the parent directory; until
    that directory inode is fsynced, a power cut can forget the rename
    while keeping the data blocks.  Best-effort: platforms that cannot
    open directories (or refuse to fsync them) are silently skipped --
    the file data itself was already fsynced by the caller.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class JournalFormatError(PersistenceError):
    """A line that is not even the right *kind* of record.

    Raised for magic/version mismatches, as opposed to a record of the
    right kind with damaged contents.  The distinction matters only at
    the tail: a torn final line of our own journal is forgivable, but
    :class:`~repro.io.checkpoint.SweepCheckpoint` refuses a *foreign*
    final line (a complete record of some other file format means the
    path points at the wrong file, not at a crashed append).
    """


class AppendJournal:
    """Append-only, fsynced JSON-lines journal (the shared discipline).

    Subclasses set the class attributes below and implement
    :meth:`_validate` for their record vocabulary; the base owns the
    append path, the torn-tail replay loop and the lifecycle.

    Args:
        path: the journal file; created (with its parent directory) on
            the first append.
        fsync: fsync every appended record (the durability guarantee;
            disable only in benchmarks that measure the no-sync floor).
        opener: ``open``-compatible callable used for every file access
            -- the storage fault injection seam.  A returned object with
            an ``fsync()`` method is synced through it instead of
            ``os.fsync`` (so a wrapping :class:`repro.faults.disk.FaultyFile`
            can fail the sync, not just the write).

    Appends are not internally locked -- owners serialise them so
    journal order always matches apply order.
    """

    #: First-field sentinel every record must carry.
    magic: str = "fupermod-journal"
    #: Record format version (mismatches are refused on replay).
    version: int = 1
    #: Noun used in corruption messages: "not a <record_name> record".
    record_name: str = "journal"
    #: Noun used in version messages: "unsupported <log_name> version".
    log_name: str = "journal"
    #: Noun used in op messages: "unknown <op_name> operation".
    op_name: str = "journal"
    #: Allowed values of the ``op`` field (empty = records carry no op).
    ops: Tuple[str, ...] = ()
    #: Keep the append handle open across writes; per-write open/close
    #: when False (the sweep checkpoint's historical behaviour, which
    #: survives its own ``compact``'s ``os.replace`` and ``clear``).
    keep_handle: bool = True

    def __init__(
        self,
        path: PathLike,
        fsync: bool = True,
        opener: Optional[Opener] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.opener: Opener = opener if opener is not None else open
        self._handle: Any = None
        # A failed append may have left a torn partial record at the
        # tail (a short write persists a prefix); appending after it
        # would weld the fragment onto the next record and turn a
        # forgivable torn tail into fatal interior corruption.  The
        # flag makes the next append repair the tail first.
        self._tainted = False
        #: Records appended (or replayed) since the last reset; owners
        #: with compaction thresholds count against this.
        self.records = 0
        #: Appends that failed with an OSError (storage fault visibility).
        self.append_errors = 0

    @property
    def exists(self) -> bool:
        """Whether a journal file is present on disk."""
        return self.path.exists()

    # -- appending ---------------------------------------------------------

    def _stamp(self, **fields: Any) -> dict:
        """A record dict carrying the journal's magic and version."""
        return {"magic": self.magic, "v": self.version, **fields}

    def _sync(self, handle: Any) -> None:
        """fsync through the handle's own method when it has one.

        A plain file syncs via ``os.fsync``; an injected
        :class:`~repro.faults.disk.FaultyFile` exposes ``fsync()`` so
        the fault plan can fail the sync itself.
        """
        sync = getattr(handle, "fsync", None)
        if callable(sync):
            sync()
        else:
            os.fsync(handle.fileno())

    def _write_line(self, record: dict) -> None:
        """Durably append one record; committed once this returns."""
        line = json.dumps(record, sort_keys=True)
        try:
            if self._handle is None:
                if self._tainted:
                    self._repair_tail()
                created = not self.path.exists()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.opener(self.path, "a", encoding="utf-8")
                if created and self.fsync:
                    fsync_dir(self.path.parent)
            self._handle.write(line + "\n")
            self._handle.flush()
            if self.fsync:
                self._sync(self._handle)
        except OSError as exc:
            self.append_errors += 1
            self._tainted = True
            # The fsyncgate rule: a handle whose write or fsync failed
            # may silently never cover this data, even if a later fsync
            # on it reports success.  Drop it; the next append reopens.
            self._discard_handle()
            raise PersistenceError(
                f"cannot journal to {self.path}: {exc}"
            ) from exc
        if not self.keep_handle:
            self._discard_handle()
        self.records += 1

    def _repair_tail(self) -> None:
        """Truncate a torn partial record a failed short write left behind.

        Records are single lines with no interior newline (``json.dumps``
        escapes control characters), so cutting back to the last newline
        removes exactly the fragment -- complete records, including ones
        whose *fsync* failed after the write landed, are untouched.
        """
        if not self.path.exists():
            self._tainted = False
            return
        with self.opener(self.path, "r+b") as handle:
            data = handle.read()
            cut = data.rfind(b"\n") + 1
            if cut != len(data):
                handle.truncate(cut)
                handle.flush()
                self._sync(handle)
        self._tainted = False

    # -- replay ------------------------------------------------------------

    def replay_lines(self) -> Tuple[List[Any], int, bool]:
        """Read the journal back: ``(entries, valid_bytes, dropped_tail)``.

        ``entries`` holds whatever :meth:`_validate` returned for each
        well-formed line, *including* ``None`` placeholders for records
        it chose to skip (e.g. foreign fingerprint versions) -- callers
        filter, so they can still count skipped-but-valid lines.
        ``valid_bytes`` is the length of the well-formed prefix; a
        recovering owner truncates there so the torn tail of an
        interrupted commit cannot corrupt later appends.  A missing
        journal is empty; a torn *final* line is dropped
        (``dropped_tail``); corruption anywhere else raises
        :class:`~repro.errors.PersistenceError`.
        """
        if not self.path.exists():
            return [], 0, False
        try:
            # Bytes, not text: universal-newline decoding would turn a
            # lone b"\r" in a torn tail into a line break and hide it.
            with self.opener(self.path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise PersistenceError(f"cannot read {self.path}: {exc}") from exc
        entries: List[Any] = []
        valid_bytes = 0
        dropped = False
        lines = data.split(b"\n")
        # A well-formed journal ends with a newline, so the final split
        # element is empty; anything else is a torn tail.
        body, tail = lines[:-1], lines[-1]
        if tail:
            dropped = True
        for lineno, raw in enumerate(body, start=1):
            if not raw.strip():
                valid_bytes += len(raw) + 1
                continue
            try:
                entry = self._parse(raw, lineno)
            except PersistenceError as exc:
                if lineno == len(body) and not tail \
                        and self._tail_forgivable(exc):
                    # Torn final line: the crash interrupted this
                    # commit; everything before it is intact.
                    dropped = True
                    break
                raise
            entries.append(entry)
            valid_bytes += len(raw) + 1
        return entries, valid_bytes, dropped

    def _parse(self, raw: bytes, lineno: int) -> Any:
        """Decode and frame-check one line, then delegate to the subclass.

        Undecodable UTF-8 is damage exactly like malformed JSON.
        """
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PersistenceError(f"{self.path}:{lineno}: {exc}") from None
        if not isinstance(record, dict) or record.get("magic") != self.magic:
            raise JournalFormatError(
                f"{self.path}:{lineno}: not a {self.record_name} record"
            )
        if record.get("v") != self.version:
            raise JournalFormatError(
                f"{self.path}:{lineno}: unsupported {self.log_name} version "
                f"{record.get('v')!r}"
            )
        return self._validate(record, lineno)

    def _check_op(self, record: dict, lineno: int) -> str:
        """The record's op, or raise when outside the journal's vocabulary."""
        op = record.get("op")
        if op not in self.ops:
            raise JournalFormatError(
                f"{self.path}:{lineno}: unknown {self.op_name} "
                f"operation {op!r}"
            )
        return str(op)

    def _validate(self, record: dict, lineno: int) -> Any:
        """Subclass hook: check record contents, return the replay entry.

        Return ``None`` to skip the record while still counting the
        line as well-formed.  Raise :class:`PersistenceError` for
        damaged contents (forgiven only as a torn tail).
        """
        return record

    def _tail_forgivable(self, exc: PersistenceError) -> bool:
        """Whether a damaged *final* line may be dropped as a torn tail.

        The default forgives everything (a crash can tear a line into
        any shape).  Subclasses that must refuse complete-but-foreign
        records even at the tail override this to inspect ``exc``.
        """
        return True

    # -- lifecycle ---------------------------------------------------------

    def truncate(self, valid_bytes: int) -> None:
        """Cut the journal back to its well-formed prefix."""
        if not self.path.exists():
            return
        self._discard_handle()
        try:
            with self.opener(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                self._sync(handle)
        except OSError as exc:
            raise PersistenceError(
                f"cannot truncate {self.path}: {exc}"
            ) from exc
        fsync_dir(self.path.parent)
        self._tainted = False

    def reset(self) -> None:
        """Empty the journal (after its contents reached a snapshot)."""
        self._discard_handle()
        try:
            with self.opener(self.path, "w", encoding="utf-8") as handle:
                handle.flush()
                self._sync(handle)
        except OSError as exc:
            raise PersistenceError(f"cannot reset {self.path}: {exc}") from exc
        fsync_dir(self.path.parent)
        self._tainted = False
        self.records = 0

    def _discard_handle(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - close-on-error path
                pass

    def close(self) -> None:
        """Close the append handle (the journal file stays on disk)."""
        self._discard_handle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({str(self.path)!r}, "
            f"records={self.records})"
        )
