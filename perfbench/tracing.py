"""Span tracing from outside the program, and the per-layer metrics.

:func:`install` wraps the public calls of every layer (the
:data:`TARGETS` table) with span recorders.  Install it *before* any
runtime is built: ``GuardedRuntime`` captures ``inner.checkpoint`` at
construction, and ``encode_snapshot`` / ``build_shard_runtime`` are
looked up as module globals, so later patches would be missed.

A span records its name, start, end, parent span and the id of the batch
it ran in.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the part of that interval its
child spans cover.  Counts are taken in the same wrappers.

A wrapped function that no longer exists is recorded as absent, and every
metric that needs it is reported with value ``None`` — never a crash.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pickle
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.batches: List[int] = []
        self.counts: Dict[str, float] = {}
        self.snapshot_sizes: List[Tuple[int, int]] = []
        #: Last seen (offered, shed, deferred, transitions) per controller,
        #: keyed by the controller itself: a fleet builds new ones every
        #: epoch, and an ``id()`` key could be reused by a later one.
        self.controllers: Dict[Any, Tuple[int, int, int, int]] = {}
        self.batch = -1
        self._batches = 0
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.batches.append(self.batch)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def root(self, label: str) -> Iterator[None]:
        """A batch's root span; every span inside shares its batch id,
        which is unique within the tracer."""
        self.batch = self._batches
        self._batches += 1
        idx = self.open(label)
        try:
            yield
        finally:
            self.close(idx)
            self.batch = -1

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def write(self, path: Path) -> Path:
        """Write every span as gzipped CSV (name,start_ns,end_ns,parent,batch)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start_ns,end_ns,parent,batch\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.batches):
                f.write("%s,%d,%d,%d,%d\n" % row)
        return path


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the parent), so overlapping children count once."""
    children: Dict[int, List[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s), min(ends[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


@dataclass
class Agg:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0


def aggregate(tracer: Tracer) -> Dict[str, Agg]:
    """Per span name: calls, inclusive and self time — batch spans only
    (set-up spans carry batch id -1 and are left out)."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    out: Dict[str, Agg] = {}
    for name, s, e, b, own in zip(
        tracer.names, tracer.starts, tracer.ends, tracer.batches, selfs
    ):
        if b < 0:
            continue
        agg = out.setdefault(name, Agg())
        agg.calls += 1
        agg.incl_ns += e - s
        agg.self_ns += own
    return out


# ----------------------------------------------------------------------
# Counts taken at the wrapped boundaries, inside batches only (like the
# spans that count).  ``pre`` hooks run before the call inside a
# ``trace.measure`` span; ``post`` hooks see the result.
def _admit_block(tr, args, kwargs, result) -> None:
    mask = np.asarray(result)
    tr.add("validation.rows", mask.size)
    tr.add("validation.rejected", mask.size - int(np.count_nonzero(mask)))


def _overload(tr, args, kwargs, result) -> None:
    ctrl = args[0]
    tr.peak("overload.depth_max", ctrl.depth)
    tr.controllers[ctrl] = (
        ctrl.offered, ctrl.shed, ctrl.deferred, len(ctrl.transitions)
    )


def _push_block(tr, args, kwargs, result) -> None:
    tr.peak("reorder.pending_max", len(args[0]))


def _replay(tr, args, kwargs, result) -> None:
    tr.add("journal.replayed", len(result))


def _encode(tr, args, kwargs, result) -> None:
    tr.counts["snapshot.last_bytes"] = len(result)


def _save(tr, args, kwargs, result) -> None:
    seq = args[2] if len(args) > 2 else kwargs["seq"]
    tr.snapshot_sizes.append((int(seq), int(tr.counts.get("snapshot.last_bytes", 0))))


def _offer(tr, args, kwargs, result) -> None:
    if getattr(result, "opened", False):
        tr.add("planner.opened")


def _task_bytes(tr, args, kwargs) -> None:
    tr.add("pool.task_bytes", len(pickle.dumps(list(args[1]))))


@dataclass(frozen=True)
class Target:
    module: str
    qualname: str
    span: str
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("repro.core.tripblock", "TripBlock.from_trips", "tripblock.from_trips"),
    Target("repro.core.tripblock", "TripBlock.to_trips", "tripblock.to_trips"),
    Target("repro.guard.validation", "TripValidator.admit_block",
           "validation.admit_block", post=_admit_block),
    Target("repro.guard.overload", "OverloadController.offer", "overload.offer",
           post=_overload),
    Target("repro.guard.overload", "OverloadController.drain", "overload.drain",
           post=_overload),
    Target("repro.guard.reorder", "WatermarkBuffer.push_block", "reorder.push_block",
           post=_push_block),
    Target("repro.guard.reorder", "WatermarkBuffer.flush", "reorder.flush"),
    Target("repro.guard.runtime", "GuardedRuntime.ingest_block", "runtime.ingest_block"),
    Target("repro.guard.runtime", "GuardedRuntime.finish", "runtime.finish"),
    Target("repro.guard.runtime", "GuardedRuntime.flush_logs", "runtime.flush_logs"),
    Target("repro.resilience.service", "CheckpointingService.handle_block",
           "service.handle_block"),
    Target("repro.resilience.service", "CheckpointingService.checkpoint",
           "service.checkpoint"),
    Target("repro.resilience.service", "CheckpointingService.recover",
           "service.recover"),
    Target("repro.resilience.journal", "TripJournal.append_block",
           "journal.append_block"),
    Target("repro.resilience.journal", "TripJournal.replay", "journal.replay",
           post=_replay),
    Target("repro.resilience.snapshot", "SnapshotStore.save", "snapshot.save",
           post=_save),
    Target("repro.resilience.snapshot", "SnapshotStore.load_latest",
           "snapshot.load_latest"),
    Target("repro.resilience.snapshot", "encode_snapshot", "snapshot.encode",
           post=_encode),
    Target("repro.core.streaming", "PlacementService.handle_trip",
           "placement.handle_trip"),
    Target("repro.core.streaming", "PlacementService.degraded_assign",
           "placement.degraded_assign"),
    Target("repro.core.streaming", "PlacementService.state_dict",
           "placement.state_dict"),
    Target("repro.energy.fleet", "Fleet.pick_bike", "fleet.pick_bike"),
    Target("repro.energy.fleet", "Fleet.bikes_at", "fleet.bikes_at"),
    Target("repro.energy.fleet", "Fleet.state_dict", "fleet.state_dict"),
    Target("repro.core.esharing", "EsharingPlanner.offer", "planner.offer",
           post=_offer),
    Target("repro.core.esharing", "EsharingPlanner.remove_station",
           "planner.remove_station"),
    Target("repro.core.esharing", "EsharingPlanner.state_dict", "planner.state_dict"),
    Target("repro.guard.breakers", "GuardedKS2D.test", "ks.test"),
    Target("repro.core.station_set", "StationSet.nearest_where",
           "stations.nearest_where"),
    Target("repro.shard.router", "ShardRouter.split_trips", "router.split_trips"),
    Target("repro.shard.runtime", "build_shard_runtime", "shard.build"),
    Target("repro.parallel.pool", "ParallelRunner.run", "pool.run", pre=_task_bytes),
)


def _wrap(fn: Callable, target: Target, tracer: Tracer) -> Callable:
    name, pre, post = target.span, target.pre, target.post

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counted = tracer.batch >= 0
        if pre is not None and counted:
            m = tracer.open("trace.measure")
            try:
                pre(tracer, args, kwargs)
            finally:
                tracer.close(m)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if post is not None and counted:
            post(tracer, args, kwargs, result)
        return result

    return wrapper


class Installation:
    """The wrappers in place; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self.absent: Dict[str, str] = {}
        self._undo: List[Callable[[], None]] = []

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer, targets: Optional[Sequence[Target]] = None) -> Installation:
    """Wrap every target (default :data:`TARGETS`) that exists; record
    the others as absent."""
    inst = Installation()
    for target in TARGETS if targets is None else targets:
        try:
            module = importlib.import_module(target.module)
        except ImportError as exc:
            inst.absent[target.span] = f"module {target.module}: {exc}"
            continue
        owner_name, _, attr = target.qualname.rpartition(".")
        if not owner_name:
            fn = getattr(module, attr, None)
            if not callable(fn):
                inst.absent[target.span] = f"{target.module}.{attr} is gone"
                continue
            _patch_global(inst, fn, _wrap(fn, target, tracer), attr)
            continue
        owner = getattr(module, owner_name, None)
        raw = None if owner is None else inspect.getattr_static(owner, attr, None)
        if raw is None:
            inst.absent[target.span] = f"{target.module}.{target.qualname} is gone"
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(_wrap(raw.__func__, target, tracer))
        elif callable(raw):
            new = _wrap(raw, target, tracer)
        else:
            inst.absent[target.span] = f"{target.module}.{target.qualname} is not callable"
            continue
        own = attr in vars(owner)
        setattr(owner, attr, new)
        inst._undo.append(_restorer(owner, attr, raw, own))
    return inst


def _restorer(owner, attr: str, raw, own: bool) -> Callable[[], None]:
    def undo() -> None:
        if own:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)
    return undo


def _patch_global(inst: Installation, fn, new, attr: str) -> None:
    """Rebind a module-level function in every loaded module of the
    package that holds it under that name (callers look it up there)."""
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "repro" or mod_name.startswith("repro.")) and getattr(
            mod, attr, None
        ) is fn:
            setattr(mod, attr, new)
            inst._undo.append(functools.partial(setattr, mod, attr, fn))


# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, spans needed, definition).
@dataclass
class LayerRun:
    """What the per-layer metrics are normalised by."""

    agg: Dict[str, Agg]
    counts: Dict[str, float]
    controllers: Dict[Any, Tuple[int, int, int, int]]
    snapshot_sizes: List[Tuple[int, int]]
    trips: int
    epochs: int
    journal_bytes: int
    referrals: int
    traced_s: float
    untraced_s: float

    def _a(self, span: str) -> Agg:
        return self.agg.get(span, Agg())

    def ms_per_call(self, span: str, own: bool = False) -> float:
        a = self._a(span)
        return _div((a.self_ns if own else a.incl_ns) / 1e6, a.calls)

    def us_per_call(self, span: str, own: bool = False) -> float:
        return 1e3 * self.ms_per_call(span, own)

    def us_per_trip(self, span: str, own: bool = False) -> float:
        a = self._a(span)
        return _div((a.self_ns if own else a.incl_ns) / 1e3, self.trips)

    def ms_per_epoch(self, span: str) -> float:
        return _div(self._a(span).incl_ns / 1e6, self.epochs)

    def calls(self, span: str) -> float:
        return float(self._a(span).calls)

    def calls_per_trip(self, span: str) -> float:
        return _div(self._a(span).calls, self.trips)

    def per_ktrip(self, count: float) -> float:
        return _div(1000.0 * count, self.trips)

    def count(self, key: str) -> float:
        return float(self.counts.get(key, 0))

    def overload_totals(self) -> Tuple[int, ...]:
        """(offered, shed, deferred, transitions) summed over controllers."""
        rows = list(self.controllers.values())
        return tuple(sum(r[i] for r in rows) for i in range(4))

    def snapshot_growth(self) -> float:
        """Least-squares slope of snapshot bytes over journal seq, x1000."""
        if len(self.snapshot_sizes) < 2:
            return 0.0
        seq = np.array([s for s, _ in self.snapshot_sizes], dtype=float)
        size = np.array([b for _, b in self.snapshot_sizes], dtype=float)
        if np.ptp(seq) == 0:
            return 0.0
        return 1000.0 * float(np.polyfit(seq, size, 1)[0])

    def unattributed_share(self) -> float:
        roots = [self._a("batch"), self._a("drain")]
        return _div(sum(a.self_ns for a in roots), sum(a.incl_ns for a in roots))


def _div(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def _share(i: int):
    def f(r: LayerRun) -> float:
        totals = r.overload_totals()
        return _div(totals[i], totals[0])
    return f


PER_LAYER: Tuple[Tuple[str, str, str, Tuple[str, ...], Callable[[LayerRun], float]], ...] = (
    # checkpoint / snapshot / state_dict
    ("snapshot.encode.ms_per_call", "ms", "lower", ("snapshot.encode",),
     lambda r: r.ms_per_call("snapshot.encode")),
    ("snapshot.save.self_ms_per_call", "ms", "lower", ("snapshot.save",),
     lambda r: r.ms_per_call("snapshot.save", own=True)),
    ("snapshot.bytes_last", "B", "lower", ("snapshot.encode",),
     lambda r: r.count("snapshot.last_bytes")),
    ("snapshot.bytes_per_ktrip_growth", "B/ktrip", "lower",
     ("snapshot.encode", "snapshot.save"), lambda r: r.snapshot_growth()),
    ("service.checkpoint.self_ms_per_call", "ms", "lower", ("service.checkpoint",),
     lambda r: r.ms_per_call("service.checkpoint", own=True)),
    ("service.checkpoints", "count", "lower", ("service.checkpoint",),
     lambda r: r.calls("service.checkpoint")),
    ("placement.state_dict.ms_per_call", "ms", "lower", ("placement.state_dict",),
     lambda r: r.ms_per_call("placement.state_dict")),
    ("fleet.state_dict.ms_per_call", "ms", "lower", ("fleet.state_dict",),
     lambda r: r.ms_per_call("fleet.state_dict")),
    ("planner.state_dict.ms_per_call", "ms", "lower", ("planner.state_dict",),
     lambda r: r.ms_per_call("planner.state_dict")),
    # pickup and apply
    ("fleet.pick_bike.calls_per_trip", "calls/trip", "lower", ("fleet.pick_bike",),
     lambda r: r.calls_per_trip("fleet.pick_bike")),
    ("fleet.pick_bike.us_per_trip", "us/trip", "lower", ("fleet.pick_bike",),
     lambda r: r.us_per_trip("fleet.pick_bike")),
    ("fleet.bikes_at.calls_per_trip", "calls/trip", "lower", ("fleet.bikes_at",),
     lambda r: r.calls_per_trip("fleet.bikes_at")),
    ("stations.nearest_where.self_us_per_call", "us", "lower",
     ("stations.nearest_where",),
     lambda r: r.us_per_call("stations.nearest_where", own=True)),
    ("placement.handle_trip.self_us_per_trip", "us/trip", "lower",
     ("placement.handle_trip",),
     lambda r: r.us_per_trip("placement.handle_trip", own=True)),
    # planner and KS
    ("planner.offer.self_us_per_trip", "us/trip", "lower", ("planner.offer",),
     lambda r: r.us_per_trip("planner.offer", own=True)),
    ("planner.stations_opened", "count", "lower", ("planner.offer",),
     lambda r: r.count("planner.opened")),
    ("planner.stations_retired", "count", "lower", ("planner.remove_station",),
     lambda r: r.calls("planner.remove_station")),
    ("ks.test.ms_per_call", "ms", "lower", ("ks.test",),
     lambda r: r.ms_per_call("ks.test")),
    ("ks.tests_per_ktrip", "count/ktrip", "lower", ("ks.test",),
     lambda r: r.per_ktrip(r.calls("ks.test"))),
    # journal and group commit
    ("journal.append_block.us_per_trip", "us/trip", "lower", ("journal.append_block",),
     lambda r: r.us_per_trip("journal.append_block")),
    ("journal.commits_per_ktrip", "count/ktrip", "lower", ("journal.append_block",),
     lambda r: r.per_ktrip(r.calls("journal.append_block"))),
    ("journal.bytes_per_trip", "B/trip", "lower", (),
     lambda r: _div(r.journal_bytes, r.trips)),
    ("service.handle_block.self_us_per_trip", "us/trip", "lower",
     ("service.handle_block",),
     lambda r: r.us_per_trip("service.handle_block", own=True)),
    # ingest front
    ("tripblock.from_trips.us_per_trip", "us/trip", "lower", ("tripblock.from_trips",),
     lambda r: r.us_per_trip("tripblock.from_trips")),
    ("tripblock.to_trips.us_per_trip", "us/trip", "lower", ("tripblock.to_trips",),
     lambda r: r.us_per_trip("tripblock.to_trips")),
    ("validation.admit_block.us_per_trip", "us/trip", "lower",
     ("validation.admit_block",),
     lambda r: r.us_per_trip("validation.admit_block")),
    ("validation.rejected_share", "ratio", "lower", ("validation.admit_block",),
     lambda r: _div(r.count("validation.rejected"), r.count("validation.rows"))),
    ("reorder.push_block.us_per_trip", "us/trip", "lower", ("reorder.push_block",),
     lambda r: r.us_per_trip("reorder.push_block")),
    ("reorder.pending_max", "count", "lower", ("reorder.push_block",),
     lambda r: r.count("reorder.pending_max")),
    ("runtime.ingest_block.self_us_per_trip", "us/trip", "lower",
     ("runtime.ingest_block",),
     lambda r: r.us_per_trip("runtime.ingest_block", own=True)),
    ("runtime.flush_logs.ms_per_call", "ms", "lower", ("runtime.flush_logs",),
     lambda r: r.ms_per_call("runtime.flush_logs")),
    # admission control and deferred serving
    ("overload.offer.us_per_trip", "us/trip", "lower", ("overload.offer",),
     lambda r: r.us_per_trip("overload.offer")),
    ("overload.deferred_share", "ratio", "lower", ("overload.offer",), _share(2)),
    ("overload.shed_share", "ratio", "lower", ("overload.offer",), _share(1)),
    ("overload.depth_max", "count", "lower", ("overload.offer",),
     lambda r: r.count("overload.depth_max")),
    ("overload.rung_transitions", "count", "lower", ("overload.offer",),
     lambda r: float(r.overload_totals()[3])),
    ("placement.degraded_assign.us_per_call", "us", "lower",
     ("placement.degraded_assign",),
     lambda r: r.us_per_call("placement.degraded_assign")),
    # fleet: routing, rebuild, fan-out
    ("router.split_trips.us_per_trip", "us/trip", "lower", ("router.split_trips",),
     lambda r: r.us_per_trip("router.split_trips")),
    ("shard.build.ms_per_epoch", "ms/epoch", "lower", ("shard.build",),
     lambda r: r.ms_per_epoch("shard.build")),
    ("service.recover.ms_per_call", "ms", "lower", ("service.recover",),
     lambda r: r.ms_per_call("service.recover")),
    ("snapshot.load_latest.ms_per_call", "ms", "lower", ("snapshot.load_latest",),
     lambda r: r.ms_per_call("snapshot.load_latest")),
    ("journal.replay.ms_per_call", "ms", "lower", ("journal.replay",),
     lambda r: r.ms_per_call("journal.replay")),
    ("journal.replayed_trips_per_epoch", "trips/epoch", "lower", ("journal.replay",),
     lambda r: _div(r.count("journal.replayed"), r.epochs)),
    ("shard.referrals_per_ktrip", "count/ktrip", "lower", (),
     lambda r: r.per_ktrip(r.referrals)),
    ("pool.run.ms_per_epoch", "ms/epoch", "lower", ("pool.run",),
     lambda r: r.ms_per_epoch("pool.run")),
    ("pool.task_bytes_per_trip", "B/trip", "lower", ("pool.run",),
     lambda r: _div(r.count("pool.task_bytes"), r.trips)),
    # the trace itself
    ("trace.unattributed_share", "ratio", "lower", (),
     lambda r: r.unattributed_share()),
    ("trace.overhead", "ratio", "lower", (),
     lambda r: _div(r.traced_s, r.untraced_s) - 1.0),
)


def layer_metrics(run: LayerRun, absent: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric; ``None`` where a needed span is absent."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, unit, _better, needs, fn in PER_LAYER:
        missing = [s for s in needs if s in absent]
        value = None if missing else fn(run)
        out[name] = {"value": value, "unit": unit}
    return out
