"""Crash-safe service state: checkpoints, trip journal, chaos harness.

The paper's Fig. 3 backend is a long-running stateful server — Algorithm
2's opened stations, rescaled opening costs, KS live window and RNG
stream accumulate for days.  This subsystem makes that tier survive
crashes with **bit-identical recovery**:

* :class:`SnapshotStore` — versioned, checksummed, atomically-written
  snapshots of the live mutable state, sized by live state rather than
  by history (torn files are detected and skipped to the previous good
  snapshot);
* :class:`TripJournal` — a write-ahead log of every trip, so
  ``restore(snapshot) + replay(journal tail)`` reproduces the exact
  state an uninterrupted run would have reached, and the replay's
  responses complete its outcome stream;
* :class:`CheckpointingService` — the crash-safe wrapper gluing the two
  around a :class:`~repro.core.streaming.PlacementService`;
* :class:`FaultInjector` — chaos tooling that injects crashes,
  duplicated/reordered/dropped trips and torn checkpoint writes, for the
  recovery tests and the CI fault-injection smoke job;
* :class:`FaultFS` — deterministic *storage*-level fault injection on
  the :mod:`repro.ioutil` write/fsync seam (ENOSPC, torn writes, fsync
  failure, payload-keyed poison markers, at-rest bit-rot);
* :func:`scrub_tree` — the background integrity scrubber: verifies
  every snapshot and WAL checksum, demotes corrupt snapshots to the
  previous good version, rebuilds torn journal tails and sweeps orphan
  tmp files, over one checkpoint directory or a whole sharded fleet.
"""

from ..errors import (
    InjectedCrash,
    JournalCorruptError,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    StateDriftError,
)
from .chaos import ChaosConfig, FaultInjector, simulate_period_crash
from .faultfs import FaultFS, FaultFSConfig
from .journal import JournalEntry, TripJournal
from .scrub import (
    ScrubFinding,
    ScrubReport,
    repair_journal_tail,
    scrub_checkpoint_dir,
    scrub_journal,
    scrub_snapshots,
    scrub_tree,
)
from .service import (
    CheckpointingService,
    RecoveryInfo,
    constant_cost_spec,
    facility_cost_from_spec,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "ChaosConfig",
    "CheckpointingService",
    "FaultFS",
    "FaultFSConfig",
    "FaultInjector",
    "ScrubFinding",
    "ScrubReport",
    "repair_journal_tail",
    "scrub_checkpoint_dir",
    "scrub_journal",
    "scrub_snapshots",
    "scrub_tree",
    "InjectedCrash",
    "JournalCorruptError",
    "JournalEntry",
    "RecoveryInfo",
    "Snapshot",
    "SnapshotCorruptError",
    "SnapshotError",
    "SnapshotStore",
    "SnapshotVersionError",
    "StateDriftError",
    "TripJournal",
    "constant_cost_spec",
    "decode_snapshot",
    "encode_snapshot",
    "facility_cost_from_spec",
    "simulate_period_crash",
]
