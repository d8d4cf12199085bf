"""The benchmark's workloads: seeded inputs, runtime builders and
the closed loops that drive the public serving API.

Every workload is a closed loop: one caller hands over the next batch
only after the previous call returned.  Admission control runs in event
time (its token bucket reads trip timestamps), so wall-clock speed never
changes what is served, deferred or shed, and every run's outputs are a
pure function of the seed.

* ``serve-long`` — one :class:`GuardedRuntime`, durable journal,
  checkpoint every 500 trips, no admission control, 128-row blocks, a
  gravity-OD baseline stream long enough for two dozen checkpoints.
* ``fleet-soak`` — a 2-shard :class:`ShardedRuntime` served in many
  equal epochs (recover, serve, checkpoint per shard per epoch) over a
  chaos-mutated stream: duplicates, swaps, late rows and clock skew, but
  no garbage rows, which would divert whole chunks to the per-trip path.
* ``fleet-surge`` — the same fleet with admission control in every
  shard, 64-row blocks, and the ``stadium`` scenario at four times the
  baseline: the admission path as the fleet runs it, every shard back
  at rung 0 each epoch.
* ``surge`` — one :class:`GuardedRuntime` with admission control sized to
  the baseline rate, 64-row blocks, and the ``stadium`` scenario offered
  at four times the baseline, so most rows are deferred.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.costs import constant_facility_cost
from repro.core.esharing import EsharingConfig, EsharingPlanner
from repro.core.streaming import PlacementService, ServiceResponse
from repro.datasets.trips import TripRecord
from repro.energy.fleet import Fleet
from repro.geo.points import BoundingBox, Point
from repro.guard.overload import OverloadConfig
from repro.guard.runtime import GuardConfig, GuardedRuntime
from repro.guard.validation import ValidationConfig
from repro.loadgen import ODConfig, ODMatrix, TripStream, make_scenario
from repro.resilience.chaos import ChaosConfig, FaultInjector
from repro.resilience.service import CheckpointingService, constant_cost_spec
from repro.resilience.snapshot import SnapshotStore
from repro.shard import ShardPlan, ShardedRuntime
from repro.shard.runtime import build_shard_runtime

from . import hostspeed

PLANE = 2000.0
MARGIN = 100.0
COST_VALUE = 8000.0
BASE_TRIPS_PER_HOUR = 2400.0
N_BIKES = 120
CHECKPOINT_EVERY = 500
LATENESS_S = 600.0
#: The seed whose generated streams are fingerprinted in fingerprints.json.
DEFAULT_SEED = 0
#: Seeds the city: OD matrix, historical demand sample, and the planner,
#: fleet and shard RNGs.  ``--seed`` draws only the traffic (and its
#: chaos), so seeds vary the inputs without changing the city they run in.
CITY_SEED = 0


class CheckFailed(Exception):
    """An output check failed: the run is reported as failed."""


@dataclass
class Inputs:
    """One workload's generated inputs: everything the program receives."""

    seed: int
    historical: np.ndarray
    batches: List[List[TripRecord]]

    @property
    def offered(self) -> int:
        return sum(len(b) for b in self.batches)


@dataclass
class Repeat:
    """What one serve of a whole workload stream measured and produced."""

    setup_s: float
    batch_trips: List[int]
    batch_s: List[float]
    wall_s: float
    offered: int
    served: int
    duplicates: int
    disk_bytes: int
    outcome_digest: str
    journal_digest: str
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Host speed around each batch, and the skew of the after-batch
    #: probes over the before-batch ones (see :mod:`perfbench.hostspeed`);
    #: no factors means 1 for every batch.
    batch_factors: List[float] = field(default_factory=list)
    probe_skew: float = 1.0

    @property
    def factors(self) -> List[float]:
        return self.batch_factors or [1.0] * len(self.batch_s)


def fingerprint(inputs: Inputs) -> str:
    """SHA-256 of a stream's canonical text (every field, batch cuts)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(inputs.historical, dtype=float).tobytes())
    for batch in inputs.batches:
        h.update(f"batch {len(batch)}\n".encode())
        for t in batch:
            h.update(
                (
                    f"{int(t.order_id)}|{int(t.user_id)}|{int(t.bike_id)}|"
                    f"{int(t.bike_type)}|{t.start_time.isoformat()}|"
                    f"{float(t.start.x)!r}|{float(t.start.y)!r}|"
                    f"{float(t.end.x)!r}|{float(t.end.y)!r}|"
                    f"{_opt_float(t.geodesic_m)}|{_opt_float(t.battery)}\n"
                ).encode()
            )
    return h.hexdigest()


def _opt_float(value: Optional[float]) -> str:
    return "-" if value is None else repr(float(value))


def _bounds() -> BoundingBox:
    return BoundingBox(0.0, 0.0, PLANE, PLANE)


def _anchors() -> List[Point]:
    return [
        Point(float(x), float(y))
        for x in (0, 667, 1333, 2000)
        for y in (0, 667, 1333, 2000)
    ]


def _historical() -> np.ndarray:
    return np.random.default_rng(CITY_SEED).uniform(0.0, PLANE, size=(300, 2))


def _od_trips(scenario: str, multiplier: float, duration_s: float, seed: int):
    od = ODConfig(
        bounds=_bounds(), trips_per_hour=BASE_TRIPS_PER_HOUR * multiplier
    )
    schedule = make_scenario(scenario, od.bounds, duration_s)
    stream = TripStream(od, schedule, seed=seed)
    stream.matrix = ODMatrix(od, seed=CITY_SEED)  # the city stays fixed
    return stream.records(duration_s)


def _baseline_trips(n: int, seed: int) -> List[TripRecord]:
    """The first ``n`` trips of the seeded gravity-OD baseline stream."""
    duration_s = 1.5 * 3600.0 * n / BASE_TRIPS_PER_HOUR
    trips = _od_trips("baseline", 1.0, duration_s, seed)
    if len(trips) < n:
        raise RuntimeError(f"baseline stream gave {len(trips)} < {n} trips")
    return trips[:n]


def _cut(trips: List[TripRecord], size: int) -> List[List[TripRecord]]:
    return [trips[lo : lo + size] for lo in range(0, len(trips), size)]


def _guard_config(block_size: int, overload: Optional[OverloadConfig] = None):
    return GuardConfig(
        validation=ValidationConfig(
            bounds=BoundingBox(-MARGIN, -MARGIN, PLANE + MARGIN, PLANE + MARGIN),
            max_backwards_s=3600.0,
        ),
        lateness_s=LATENESS_S,
        block_size=block_size,
        overload=overload,
    )


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _sha(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _canon(state: Dict[str, Any]) -> str:
    """A state dict as canonical JSON (the snapshot format's own types)."""
    return json.dumps(state, sort_keys=True)


def _logical(state: Dict[str, Any]) -> str:
    """Planner state minus wall-clock KS timing, present or not."""
    state = dict(state)
    state.pop("ks_seconds", None)
    return _canon(state)


def _served_ok(outcomes) -> int:
    """Rows the planner answered with a bike (not deferred, degraded,
    refused for want of a bike, or screened as a duplicate)."""
    return sum(
        1 for o in outcomes if isinstance(o, ServiceResponse) and o.served
    )


def no_root(label: str):
    """The untraced stand-in for :meth:`Tracer.root`."""
    return nullcontext()


# ----------------------------------------------------------------------
class Workload:
    """One named traffic mix: inputs from a seed, a runtime, a loop."""

    name = ""
    #: Timed repeats per untraced run, at the least; ``batch_ms_tail``
    #: pools the batches of exactly these first repeats.
    min_repeats = 3

    def generate(self, seed: int) -> Inputs:
        raise NotImplementedError

    def build(self, inputs: Inputs, directory: Path):
        """Build the runtime(s); the timed part of ``setup_s``."""
        raise NotImplementedError

    def keep_genesis(self, directory: Path) -> None:
        """Copy what the recovery oracle needs of a freshly built runtime
        (untimed, before the drive).  Nothing by default."""

    def close(self, runtime) -> None:
        raise NotImplementedError

    def drive(
        self,
        runtime,
        inputs: Inputs,
        directory: Path,
        root: Callable[[str], Any] = no_root,
        in_process: bool = False,
    ) -> "Drive":
        """Hand over every batch in a closed loop: the timed section.

        ``root(label)`` opens the trace's root span around each batch;
        ``in_process`` serves fleet shards without the pool.
        """
        raise NotImplementedError

    def check(
        self, runtime, inputs: Inputs, directory: Path, drive: "Drive", setup_s: float
    ) -> Repeat:
        """Check the outputs of one drive (untimed) and summarise it.

        Raises:
            CheckFailed: when an output check fails.
        """
        raise NotImplementedError


@dataclass
class Drive:
    """The timed section's raw result, and the host-speed probes taken
    before and after each of its batches."""

    batch_trips: List[int]
    batch_s: List[float]
    wall_s: float
    outcomes: List[Any]
    probe_before: List[float] = field(default_factory=list)
    probe_after: List[float] = field(default_factory=list)

    def host_speed(self) -> Tuple[List[float], float]:
        """``(per-batch host factors, probe skew)``."""
        return hostspeed.factors(self.probe_before, self.probe_after)


def closed_loop(
    batches: List[List[TripRecord]],
    serve: Callable[[List[TripRecord]], Any],
    root: Callable[[str], Any],
) -> Drive:
    """Hand each batch to ``serve`` once the previous call returned,
    timing each call, with a host-speed probe right before and right
    after it (outside the timing)."""
    drive = Drive([], [], 0.0, [])
    clock = time.perf_counter
    for batch in batches:
        drive.probe_before.append(hostspeed.probe())
        with root("batch"):
            t0 = clock()
            out = serve(batch)
            drive.batch_s.append(clock() - t0)
        drive.probe_after.append(hostspeed.probe())
        drive.outcomes.append(out)
        drive.batch_trips.append(len(batch))
    drive.wall_s = sum(drive.batch_s)
    return drive


# ----------------------------------------------------------------------
class _SingleRuntime(Workload):
    """A single :class:`GuardedRuntime` fed one block per call."""

    block_size = 256

    def overload(self) -> Optional[OverloadConfig]:
        return None

    def config(self) -> GuardConfig:
        return _guard_config(self.block_size, self.overload())

    def build(self, inputs: Inputs, directory: Path) -> GuardedRuntime:
        planner = EsharingPlanner(
            _anchors(),
            constant_facility_cost(COST_VALUE),
            inputs.historical,
            np.random.default_rng(CITY_SEED + 1),
            EsharingConfig(beta=2.0, history_window=200),
        )
        fleet = Fleet(
            planner.stations, n_bikes=N_BIKES, rng=np.random.default_rng(CITY_SEED + 2)
        )
        inner = CheckpointingService(
            PlacementService(planner, fleet),
            directory,
            checkpoint_every=CHECKPOINT_EVERY,
            durable=True,
            facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        return GuardedRuntime(inner, self.config())

    def close(self, runtime: GuardedRuntime) -> None:
        runtime.close()

    def drive(self, runtime, inputs, directory, root=no_root, in_process=False):
        drive = closed_loop(inputs.batches, runtime.ingest_many, root)
        drive.outcomes = [o for batch in drive.outcomes for o in batch]
        with root("drain"):
            t0 = time.perf_counter()
            drive.outcomes.extend(runtime.finish())
            runtime.flush_logs(directory / "logs")
            drive.wall_s += time.perf_counter() - t0
        return drive

    def check(self, runtime, inputs, directory, drive, setup_s):
        disk_bytes = _tree_bytes(directory)
        self._check_accounting(runtime, inputs, drive.outcomes)
        self._check_recovery(runtime, directory)
        journal = directory / "journal.jsonl"
        batch_factors, probe_skew = drive.host_speed()
        return Repeat(
            setup_s=setup_s,
            batch_trips=drive.batch_trips,
            batch_s=drive.batch_s,
            wall_s=drive.wall_s,
            offered=inputs.offered,
            served=_served_ok(drive.outcomes),
            duplicates=runtime.duplicates,
            disk_bytes=disk_bytes,
            outcome_digest=hashlib.sha256(
                "\n".join(map(repr, drive.outcomes)).encode()
            ).hexdigest(),
            journal_digest=_sha([journal]),
            extra={"journal_bytes": journal.stat().st_size, **self._extra(runtime)},
            batch_factors=batch_factors,
            probe_skew=probe_skew,
        )

    def _extra(self, runtime: GuardedRuntime) -> Dict[str, Any]:
        return {}

    @staticmethod
    def _check_accounting(runtime: GuardedRuntime, inputs: Inputs, outcomes) -> None:
        runtime.consistency_check()
        offered = runtime.validator.offered
        answered = (
            runtime.served
            + runtime.duplicates
            + len(runtime.deferred_decisions)
            + len(runtime.degraded_decisions)
        )
        accounted = answered + runtime.sink.total
        if offered != inputs.offered or accounted != offered:
            raise CheckFailed(
                f"accounting: {inputs.offered} rows handed over, {offered} "
                f"offered, {accounted} accounted (served + duplicates + "
                "dead-lettered + deferred + degraded)"
            )
        if len(outcomes) != answered:
            raise CheckFailed(
                f"{len(outcomes)} outcomes returned for {answered} answered rows"
            )

    def _check_recovery(self, runtime: GuardedRuntime, directory: Path) -> None:
        recovered = GuardedRuntime.recover(
            directory,
            config=self.config(),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        try:
            recovered.consistency_check()
            live = runtime.inner.service
            back = recovered.inner.service
            if recovered.inner.applied_seq != runtime.inner.applied_seq:
                raise CheckFailed(
                    f"recovered through seq {recovered.inner.applied_seq}, "
                    f"live is at {runtime.inner.applied_seq}"
                )
            if _logical(back.planner.state_dict()) != _logical(
                live.planner.state_dict()
            ):
                raise CheckFailed("recovered planner state differs from live")
            if _canon(back.fleet.state_dict()) != _canon(live.fleet.state_dict()):
                raise CheckFailed("recovered fleet state differs from live")
        finally:
            recovered.close()


class ServeLong(_SingleRuntime):
    name = "serve-long"
    n_trips = 12_000
    # Not the 256-row serve default: with a checkpoint every 500 trips,
    # 256-row blocks put a checkpoint into 51% of batches, and the median
    # batch time then sits on the edge between the two clusters (the
    # slowest batch without a checkpoint) and swings with any one batch.
    # At 128 rows a quarter of the batches checkpoint and the median lies
    # inside the other cluster.
    block_size = 128

    def generate(self, seed: int) -> Inputs:
        trips = _baseline_trips(self.n_trips, seed)
        return Inputs(seed, _historical(), _cut(trips, self.block_size))


class Surge(_SingleRuntime):
    name = "surge"
    block_size = 64
    multiplier = 4.0
    duration_s = 7200.0

    def overload(self) -> OverloadConfig:
        # Sized to the baseline rate, as a deployment would be.
        rate = 1.6 * BASE_TRIPS_PER_HOUR / 3600.0
        return OverloadConfig(
            rate_per_s=rate,
            burst=max(32, int(round(rate * 180.0))),
            queue_limit=400,
        )

    def generate(self, seed: int) -> Inputs:
        trips = _od_trips("stadium", self.multiplier, self.duration_s, seed)
        return Inputs(seed, _historical(), _cut(trips, self.block_size))

    def _extra(self, runtime: GuardedRuntime) -> Dict[str, Any]:
        ctrl = runtime.overload
        return {
            "deferred": ctrl.deferred,
            "shed": ctrl.shed,
            "ladder_transitions": len(ctrl.transitions),
        }


# ----------------------------------------------------------------------
class FleetSoak(Workload):
    """Recovery is checked twice per shard against the state the shard
    wrote at its last epoch end: recovered from that newest snapshot,
    and replayed from a copy of its genesis snapshot plus its whole
    journal (the oracle that catches a checkpoint disagreeing with what
    the shard served)."""

    name = "fleet-soak"
    n_shards = 2
    workers = 2
    epochs = 30
    n_trips = 7_200
    block_size = 256
    #: Whether genesis + whole-journal replay must reproduce the final
    #: state (see :class:`FleetSurge` for why it cannot under overload).
    replay_from_genesis = True

    def overload(self) -> Optional[OverloadConfig]:
        return None

    def chaos(self, seed: int) -> ChaosConfig:
        # Skew stays inside the reorder lateness, so skewed rows exercise
        # the heap path instead of being dead-lettered wholesale.
        return ChaosConfig(
            seed=seed,
            p_duplicate=0.03,
            p_swap=0.05,
            p_late=0.02,
            late_max_positions=8,
            p_clock_skew=0.02,
            skew_max_s=300.0,
        )

    def trips(self, seed: int) -> List[TripRecord]:
        return FaultInjector(self.chaos(seed)).mutate_trips(
            _baseline_trips(self.n_trips, seed)
        )

    def generate(self, seed: int) -> Inputs:
        trips = self.trips(seed)
        n, e = len(trips), self.epochs
        batches = [trips[i * n // e : (i + 1) * n // e] for i in range(e)]
        return Inputs(seed, _historical(), batches)

    def build(self, inputs: Inputs, directory: Path) -> ShardedRuntime:
        city = ShardedRuntime(
            ShardPlan.from_bounds(_bounds(), self.n_shards),
            directory,
            _anchors(),
            inputs.historical,
            seed=CITY_SEED,
            n_bikes=N_BIKES,
            cost_value=COST_VALUE,
            guard=_guard_config(self.block_size, self.overload()),
            checkpoint_every=CHECKPOINT_EVERY,
            durable=True,
        )
        # Genesis snapshots now, so every epoch is the same
        # recover -> serve -> checkpoint cycle.
        for sid in range(self.n_shards):
            city.open_shard(sid).close()
        return city

    @staticmethod
    def _genesis(directory: Path) -> Path:
        return directory.with_name(directory.name + "-genesis")

    def keep_genesis(self, directory: Path) -> None:
        if not self.replay_from_genesis:
            return
        genesis = self._genesis(directory)
        shutil.rmtree(genesis, ignore_errors=True)
        genesis.mkdir(parents=True)
        for shard in directory.glob("shard-*"):
            shutil.copytree(shard, genesis / shard.name)

    def close(self, runtime: ShardedRuntime) -> None:
        shutil.rmtree(self._genesis(runtime.directory), ignore_errors=True)

    def drive(self, runtime, inputs, directory, root=no_root, in_process=False):
        workers = 1 if in_process else self.workers
        return closed_loop(
            inputs.batches, lambda batch: runtime.serve(batch, workers=workers), root
        )

    def check(self, runtime, inputs, directory, drive, setup_s):
        epochs = drive.outcomes
        disk_bytes = _tree_bytes(directory)
        self._check_accounting(inputs, epochs)
        self._check_recovery(runtime, epochs)
        journals = sorted(directory.glob("shard-*/journal.jsonl"))
        batch_factors, probe_skew = drive.host_speed()
        return Repeat(
            setup_s=setup_s,
            batch_trips=drive.batch_trips,
            batch_s=drive.batch_s,
            wall_s=drive.wall_s,
            offered=inputs.offered,
            served=sum(
                _served_ok(r.outcomes) for out in epochs for r in out.reports
            ),
            duplicates=sum(out.duplicates for out in epochs),
            disk_bytes=disk_bytes,
            outcome_digest=hashlib.sha256(
                "\n".join(
                    repr((r, out.referrals)) for out in epochs for r in out.reports
                ).encode()
            ).hexdigest(),
            journal_digest=_sha(journals),
            extra={
                "journal_bytes": sum(p.stat().st_size for p in journals),
                "referrals": sum(len(out.referrals) for out in epochs),
                "deferred": sum(out.deferred for out in epochs),
                "shed": sum(out.shed for out in epochs),
            },
            batch_factors=batch_factors,
            probe_skew=probe_skew,
        )

    @staticmethod
    def _check_accounting(inputs: Inputs, epochs) -> None:
        for i, (batch, out) in enumerate(zip(inputs.batches, epochs)):
            offered = sum(r.offered for r in out.reports)
            if offered != len(batch):
                raise CheckFailed(
                    f"epoch {i}: {len(batch)} rows handed over, shards "
                    f"were offered {offered}"
                )
            for r in out.reports:
                accounted = (
                    r.served + r.duplicates + r.deadlettered + r.deferred + r.degraded
                )
                if accounted != r.offered:
                    raise CheckFailed(
                        f"epoch {i} shard {r.shard_id}: {r.offered} offered, "
                        f"{accounted} accounted"
                    )
                answered = r.served + r.duplicates + r.deferred + r.degraded
                if len(r.outcomes) != answered:
                    raise CheckFailed(
                        f"epoch {i} shard {r.shard_id}: {len(r.outcomes)} "
                        f"outcomes for {answered} answered rows"
                    )

    def _check_recovery(self, city: ShardedRuntime, epochs) -> None:
        """Each shard, recovered from its newest snapshot and (when
        :attr:`replay_from_genesis`) replayed from genesis through its
        whole journal, must reach the state it wrote at its final
        epoch-end checkpoint (taken after that epoch's serve, before
        close), at the live sequence number and station roster the
        worker reported."""
        last: Dict[int, Any] = {}
        for out in epochs:
            for r in out.reports:
                last[r.shard_id] = r
        genesis = self._genesis(city.directory)
        for sid, report in sorted(last.items()):
            live = city.directory / f"shard-{sid:03d}"
            written = SnapshotStore(live).load_latest().payload["service"]
            self._compare(sid, "newest snapshot", city.open_shard(sid), report, written)
            if self.replay_from_genesis:
                oracle = genesis / live.name
                shutil.copyfile(live / "journal.jsonl", oracle / "journal.jsonl")
                replayed = build_shard_runtime(city.spec(sid), oracle)
                self._compare(sid, "genesis + journal", replayed, report, written)

    @staticmethod
    def _compare(sid: int, source: str, recovered: GuardedRuntime, report, written):
        try:
            recovered.consistency_check()
            inner = recovered.inner
            if inner.applied_seq != report.applied_seq:
                raise CheckFailed(
                    f"shard {sid} recovered from {source} through seq "
                    f"{inner.applied_seq}, live was at {report.applied_seq}"
                )
            store = inner.service.planner.station_set
            roster = tuple(
                (int(s), float(store.location(s).x), float(store.location(s).y))
                for s in store.ids()
            )
            if roster != report.stations:
                raise CheckFailed(
                    f"shard {sid} recovered a different roster from {source}"
                )
            if _logical(inner.service.planner.state_dict()) != _logical(
                written["planner"]
            ):
                raise CheckFailed(
                    f"shard {sid} planner recovered from {source} differs"
                )
            if _canon(inner.service.fleet.state_dict()) != _canon(written["fleet"]):
                raise CheckFailed(f"shard {sid} fleet recovered from {source} differs")
        finally:
            recovered.close()


class FleetSurge(FleetSoak):
    """The fleet with admission control, offered the stadium surge.

    Each epoch recovers every shard from the snapshot its previous epoch
    ended with, so every shard starts each epoch at rung 0 with a full
    token bucket, exactly as the production path does.  Replaying the
    whole journal from genesis is not an oracle here: recovery restores
    neither the ladder rung nor the KS breaker it suspended, so a replay
    runs KS tests the live epochs skipped.  The newest-snapshot recovery,
    the reported roster and sequence, exact accounting and identical
    outputs across repeats are still checked."""

    name = "fleet-surge"
    epochs = 12
    # Twelve epochs a repeat: pooling three repeats put the tail at the
    # 26th of 36 epoch times, inside the spread-out cluster of late
    # epochs, where it swung by 0.18 from run to run.
    min_repeats = 6
    block_size = 64
    multiplier = 4.0
    duration_s = 1800.0
    replay_from_genesis = False

    def overload(self) -> OverloadConfig:
        # The city's baseline rate with the single runtime's headroom,
        # split over the shards.  The bucket holds one minute of that
        # (the floor of 32 rows): every epoch starts with a full bucket,
        # and one holding three minutes swallowed the whole surge (not
        # one row deferred).
        return OverloadConfig(
            rate_per_s=1.6 * BASE_TRIPS_PER_HOUR / 3600.0 / self.n_shards,
            burst=32,
            queue_limit=400,
        )

    def trips(self, seed: int) -> List[TripRecord]:
        return _od_trips("stadium", self.multiplier, self.duration_s, seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ServeLong(), FleetSoak(), FleetSurge(), Surge())
}


def build_timed(workload: Workload, inputs: Inputs, directory: Path):
    """Build a runtime in a fresh directory; returns (runtime, seconds)."""
    if directory.exists():
        shutil.rmtree(directory)
    t0 = time.perf_counter()
    runtime = workload.build(inputs, directory)
    return runtime, time.perf_counter() - t0
