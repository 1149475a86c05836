"""Property suite: every journal recovers exactly its committed prefix.

Hypothesis drives the four :class:`~repro.serve.journal.AppendJournal`
subclasses -- the plan WAL, the lineage WAL, the hint log and the sweep
checkpoint -- through the failure shapes a real disk produces:

* **truncation** at an arbitrary byte (the SIGKILL-mid-append family):
  replay returns exactly the records whose full line survived, flags
  the torn tail, and never raises;
* **garbage tails** (a crash mid-write of any byte salad): dropped,
  never parsed into a record;
* **seeded fault schedules** (:class:`~repro.faults.disk.DiskFaultPlan`
  write/fsync/short-write storms): every append that *returned* is
  recoverable afterwards, in commit order -- append-is-commit survives
  arbitrary interleavings of failures, including short writes followed
  by successful appends (the taint-repair path);
* **read corruption**: a damaged journal is refused loudly or loses
  only its tail -- replay never silently yields an altered record.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.point import MeasurementPoint
from repro.errors import DiskFaultError, PersistenceError
from repro.faults import DiskFaultPlan, DiskFaults, faulty_open
from repro.io.checkpoint import SweepCheckpoint
from repro.serve import PlanResult
from repro.serve.lineage import LineageWAL
from repro.serve.replicate import HintLog
from repro.serve.wal import PlanWAL

pytestmark = [pytest.mark.faults, pytest.mark.disk]

COMMON = dict(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _result(i: int) -> PlanResult:
    return PlanResult(
        key=f"key-{i}", total=1000 + i, sizes=(600 + i, 400),
        times=(0.6, 0.4), algorithm="geometric",
    )


# Journal harnesses: (constructor, per-index appender).  Appenders emit
# records that differ per index, so recovered entries identify exactly
# which commits survived.
JOURNALS = {
    "plan-wal": (
        lambda path, opener: PlanWAL(path, opener=opener),
        lambda j, i: j.append_put(f"k{i}", "fp", _result(i)),
    ),
    "lineage-wal": (
        lambda path, opener: LineageWAL(path, opener=opener),
        lambda j, i: j.append_rollback(i, f"parent-{i}", f"reason-{i}"),
    ),
    "hint-log": (
        lambda path, opener: HintLog(path, opener=opener),
        lambda j, i: j.append_hint(i, f"shard{i % 3}", {
            "key": f"k{i}", "models_fp": "fp",
            "result": _result(i).to_dict(),
        }),
    ),
    "sweep-checkpoint": (
        lambda path, opener: SweepCheckpoint(path, opener=opener),
        lambda j, i: j.commit(i % 4, MeasurementPoint(
            d=10 + i, t=0.25 + i, reps=1, ci=0.0,
        )),
    ),
}

journal_kinds = pytest.mark.parametrize("kind", sorted(JOURNALS))


def canonical(journal):
    """Replayed entries in a comparable form (JSON-stable)."""
    entries, valid_bytes, dropped = journal.replay_lines()
    out = []
    for entry in entries:
        if entry is None:
            continue
        if isinstance(entry, tuple):  # sweep checkpoint: (rank, point)
            rank, point = entry
            out.append((rank, point.d, point.t, point.reps, point.ci))
        else:
            out.append(json.dumps(entry, sort_keys=True))
    return out, valid_bytes, dropped


def committed_journal(tmp_path, kind, count):
    """A journal with ``count`` clean commits; returns it + its entries."""
    make, append = JOURNALS[kind]
    journal = make(tmp_path / f"{kind}.log", None)
    for i in range(count):
        append(journal, i)
    journal.close()
    entries, _bytes, dropped = canonical(journal)
    assert not dropped and len(entries) == count
    return journal, entries


class TestTruncation:
    @journal_kinds
    @given(count=st.integers(1, 8), data=st.data())
    @settings(**COMMON)
    def test_any_truncation_recovers_the_exact_committed_prefix(
        self, tmp_path_factory, kind, count, data
    ):
        tmp_path = tmp_path_factory.mktemp("trunc")
        journal, entries = committed_journal(tmp_path, kind, count)
        raw = journal.path.read_bytes()
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        journal.path.write_bytes(raw[:cut])

        survived, valid_bytes, dropped = canonical(journal)
        complete_lines = raw[:cut].count(b"\n")
        assert survived == entries[:complete_lines], (
            f"cut at byte {cut}: recovered records are not the exact "
            f"prefix of the committed sequence"
        )
        assert dropped == (cut > 0 and raw[cut - 1:cut] != b"\n")
        assert valid_bytes <= cut

    @journal_kinds
    @given(count=st.integers(1, 6),
           garbage=st.binary(min_size=1, max_size=40).map(
               lambda b: b.replace(b"\n", b"x")))
    # A lone carriage return is garbage too, not a line break.
    @example(count=1, garbage=b"\r")
    @settings(**COMMON)
    def test_garbage_tail_is_dropped_not_parsed(
        self, tmp_path_factory, kind, count, garbage
    ):
        tmp_path = tmp_path_factory.mktemp("garbage")
        journal, entries = committed_journal(tmp_path, kind, count)
        with open(journal.path, "ab") as handle:
            handle.write(garbage)

        try:
            survived, _valid, dropped = canonical(journal)
        except PersistenceError:
            return  # refusing the damage loudly is always acceptable
        assert survived == entries
        assert dropped is True


class TestFaultSchedules:
    @journal_kinds
    @given(
        seed=st.integers(0, 2**16),
        write_rate=st.floats(0.0, 0.6),
        fsync_rate=st.floats(0.0, 0.6),
        short_rate=st.floats(0.0, 0.6),
        attempts=st.integers(1, 12),
    )
    @settings(**COMMON)
    def test_every_acked_append_survives_the_storm(
        self, tmp_path_factory, kind, seed, write_rate, fsync_rate,
        short_rate, attempts
    ):
        tmp_path = tmp_path_factory.mktemp("storm")
        plan = DiskFaultPlan({"*.log": DiskFaults(
            write_error_rate=write_rate,
            fsync_error_rate=fsync_rate,
            short_write_rate=short_rate,
        )}, seed=seed)
        make, append = JOURNALS[kind]
        journal = make(tmp_path / f"{kind}.log", faulty_open(plan))
        committed = []
        for i in range(attempts):
            try:
                append(journal, i)
            except PersistenceError:
                continue
            committed.append(i)
        journal.close()

        # Recover with a *clean* opener: what does the disk really hold?
        clean = make(journal.path, None)
        survived, _valid, _dropped = canonical(clean)
        # Committed appends must all be present, in commit order.  An
        # append that *failed* after its bytes landed (fsync fault) may
        # legitimately also appear; it must never displace or reorder
        # the acked ones.
        expected = expected_entries(tmp_path, kind, committed)
        positions = []
        cursor = 0
        for entry in expected:
            try:
                cursor = survived.index(entry, cursor) + 1
            except ValueError:
                pytest.fail(
                    f"acked append missing after the storm: {entry!r}"
                )
            positions.append(cursor)
        assert positions == sorted(positions)

    @journal_kinds
    @given(count=st.integers(1, 6), seed=st.integers(0, 2**16))
    @settings(**COMMON)
    def test_read_corruption_never_silently_alters_a_record(
        self, tmp_path_factory, kind, count, seed
    ):
        tmp_path = tmp_path_factory.mktemp("corrupt")
        journal, entries = committed_journal(tmp_path, kind, count)
        plan = DiskFaultPlan(
            {"*.log": DiskFaults(read_corrupt_rate=1.0)}, seed=seed,
        )
        make, _append = JOURNALS[kind]
        corrupted = make(journal.path, faulty_open(plan))
        try:
            survived, _valid, _dropped = canonical(corrupted)
        except PersistenceError:
            return  # detected and refused: the safe outcome
        # Tail damage may be forgiven, but whatever is returned must be
        # a prefix of what was really committed -- never altered data.
        assert survived == entries[:len(survived)]


class TestShortWriteWeld:
    @journal_kinds
    def test_append_after_short_write_stays_recoverable(
        self, tmp_path, kind
    ):
        """The taint-repair regression: short write, then a clean append.

        Without tail repair the fragment welds onto the next record and
        recovery dies on interior corruption -- the worst failure mode a
        journal can have (one torn byte poisons the whole log).
        """
        plan = DiskFaultPlan({"*.log": DiskFaults(
            short_write_rate=1.0, heal_after=1,
        )})
        make, append = JOURNALS[kind]
        journal = make(tmp_path / f"{kind}.log", faulty_open(plan))
        with pytest.raises(PersistenceError) as excinfo:
            append(journal, 0)  # torn: a prefix reached the disk
        assert isinstance(excinfo.value.__cause__, DiskFaultError)
        append(journal, 1)      # healed: must repair, then commit
        append(journal, 2)
        journal.close()

        clean = make(journal.path, None)
        survived, _valid, dropped = canonical(clean)
        expected = expected_entries(tmp_path, kind, [1, 2])
        assert survived == expected
        assert not dropped


def expected_entries(tmp_path, kind, indices):
    """Canonical entries a clean journal yields for the given commits."""
    make, append = JOURNALS[kind]
    ref = make(tmp_path / f"ref-{kind}-{'-'.join(map(str, indices))}.log",
               None)
    for i in indices:
        append(ref, i)
    ref.close()
    entries, _valid, _dropped = canonical(ref)
    return entries
