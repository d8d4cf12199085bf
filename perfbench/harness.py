"""One benchmark run: generate, repeat the workload, check, summarise.

With ``trace=False`` the workload is served once to warm up and then
repeated until ``seconds`` of timed serving have passed (at least
``Workload.min_repeats`` times), and the end-to-end metrics are reported.
With ``trace=True`` each repeat is a pair, an untraced in-process serve
and a traced one, and the per-layer metrics come from the traced ones.  Every repeat's outputs are checked
outside the timed section; a failed check reports no numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import metrics, tracing
from .workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    CheckFailed,
    Inputs,
    Repeat,
    Workload,
    build_timed,
    fingerprint,
    no_root,
)

#: Throw-away builds before each timed repeat, on top of the repeat's
#: own: ``setup_s`` is the median of samples spread over the whole run.
SETUPS_PER_REPEAT = 6
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

#: End-to-end metrics: (name, unit, better).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("trips_per_s", "trips/s", "higher"),
    ("batch_ms_p50", "ms", "lower"),
    ("batch_ms_tail", "ms", "lower"),
    ("retention", "ratio", "higher"),
    ("disk_bytes_per_trip", "B/trip", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("served_share", "ratio", "higher"),
)


def host() -> Dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        usable = os.cpu_count() or 1
    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process, or of its largest reaped child if higher."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def check_fingerprint(workload: Workload, inputs: Inputs) -> str:
    """Hash the default-seed stream and compare it with the recorded one.

    Raises:
        CheckFailed: when the generator no longer yields the recorded
            traffic (or none is recorded).
    """
    default = inputs if inputs.seed == DEFAULT_SEED else workload.generate(DEFAULT_SEED)
    got = fingerprint(default)
    recorded = json.loads(FINGERPRINTS.read_text())["workloads"].get(workload.name)
    if got != recorded:
        raise CheckFailed(
            f"input fingerprint of {workload.name} (seed {DEFAULT_SEED}) is "
            f"{got}, recorded {recorded}: the generated traffic changed"
        )
    return got


def record_fingerprints() -> Path:
    """Rewrite the recorded default-seed fingerprints (after a deliberate
    change of the generated traffic)."""
    hashes = {
        name: fingerprint(w.generate(DEFAULT_SEED)) for name, w in sorted(WORKLOADS.items())
    }
    FINGERPRINTS.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": hashes}, indent=2, sort_keys=True)
        + "\n"
    )
    return FINGERPRINTS


def end_to_end(
    repeats: List[Repeat], setups: List[float], tail_repeats: int
) -> Tuple[Dict, Dict]:
    """The end-to-end metrics of the untraced repeats, plus detail: the
    tail's percentile and sample count, the raw wall-clock timings and
    the per-repeat values.

    Each batch time is divided by its host factor, and the drain that
    ends a repeat by the last batch's (see :mod:`perfbench.hostspeed`);
    the rates and ``retention`` follow from those times.  ``setup_s`` is
    bound by fsync and stays raw.  The tail pools the batches of the first
    ``tail_repeats`` repeats only, so its sample count, and with it the
    percentile, is the same in every run of a workload.
    """
    rates = [r.offered / r.wall_s for r in repeats]
    norm_batches = [[t / f for t, f in zip(r.batch_s, r.factors)] for r in repeats]
    norm_rates = [
        r.offered / (sum(nb) + (r.wall_s - sum(r.batch_s)) / r.factors[-1])
        for r, nb in zip(repeats, norm_batches)
    ]
    tail_s, pct, n = metrics.tail(metrics.pooled(norm_batches[:tail_repeats]))
    windows = [(r.batch_trips, nb) for r, nb in zip(repeats, norm_batches)]
    values = {
        "trips_per_s": metrics.median(norm_rates),
        "batch_ms_p50": 1e3 * metrics.median(metrics.pooled(norm_batches)),
        "batch_ms_tail": 1e3 * tail_s,
        "retention": metrics.retention(windows),
        "disk_bytes_per_trip": metrics.median([r.disk_bytes / r.offered for r in repeats]),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": metrics.median(setups),
        "served_share": sum(r.served for r in repeats)
        / sum(r.offered - r.duplicates for r in repeats),
    }
    out = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    raw_batches = metrics.pooled([r.batch_s for r in repeats])
    detail = {
        "batch_ms_tail": {"percentile": pct, "samples": n},
        "raw": {
            "trips_per_s": metrics.median(rates),
            "batch_ms_p50": 1e3 * metrics.median(raw_batches),
            "batch_ms_tail": 1e3
            * metrics.tail(metrics.pooled([r.batch_s for r in repeats[:tail_repeats]]))[0],
            "retention": metrics.retention([(r.batch_trips, r.batch_s) for r in repeats]),
        },
        "per_repeat": {
            "host_factor": [metrics.median(r.factors) for r in repeats],
            "probe_skew": [r.probe_skew for r in repeats],
            "trips_per_s": rates,
            "retention": [metrics.retention([w]) for w in windows],
        },
        "setup_s_range": [min(setups), max(setups)],
    }
    return out, detail


class Run:
    """The repeats of one workload in one scratch directory."""

    def __init__(self, workload: Workload, inputs: Inputs, workdir: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.repeats: List[Repeat] = []
        self.started = 0
        self.absent: Dict[str, str] = {}

    def repeat(
        self, tracer: Optional[tracing.Tracer] = None, in_process: bool = False
    ) -> Repeat:
        """Build, drive (traced when a tracer is given), check, clean up.

        Raises:
            CheckFailed: when this repeat's outputs fail a check or
                differ from the first repeat's.
        """
        wl = self.workload
        directory = self.workdir / f"repeat-{self.started}"
        self.started += 1
        runtime = None
        try:
            inst = tracing.install(tracer) if tracer is not None else None
            try:
                runtime, setup_s = build_timed(wl, self.inputs, directory)
                wl.keep_genesis(directory)
                drive = wl.drive(
                    runtime,
                    self.inputs,
                    directory,
                    root=no_root if tracer is None else tracer.root,
                    in_process=in_process,
                )
            finally:
                if inst is not None:
                    inst.uninstall()
                    self.absent = inst.absent
            rep = wl.check(runtime, self.inputs, directory, drive, setup_s)
        finally:
            if runtime is not None:
                wl.close(runtime)
            shutil.rmtree(directory, ignore_errors=True)
        first = self.repeats[0] if self.repeats else rep
        if rep.outcome_digest != first.outcome_digest:
            raise CheckFailed(f"repeat {len(self.repeats)} outcome digest differs")
        if rep.journal_digest != first.journal_digest:
            raise CheckFailed(f"repeat {len(self.repeats)} journal bytes differ")
        self.repeats.append(rep)
        return rep

    def setup_samples(self, n: int) -> List[float]:
        out = []
        for k in range(n):
            directory = self.workdir / f"setup-{k}"
            runtime, seconds = build_timed(self.workload, self.inputs, directory)
            self.workload.close(runtime)
            shutil.rmtree(directory, ignore_errors=True)
            out.append(seconds)
        return out

    def untraced(self, seconds: float) -> Tuple[Dict, Dict]:
        """A warm-up repeat (checked, not timed: the first serve in a
        process pays heap growth and first-touch costs a long-running
        server does not), then timed repeats until ``seconds`` of serving."""
        self.repeat()
        timed: List[Repeat] = []
        setups: List[float] = []
        least = self.workload.min_repeats
        while len(timed) < least or sum(r.wall_s for r in timed) < seconds:
            setups += self.setup_samples(SETUPS_PER_REPEAT)
            timed.append(self.repeat())
            setups.append(timed[-1].setup_s)
        out, detail = end_to_end(timed, setups, least)
        detail["setup_samples"] = len(setups)
        return out, detail

    def traced(self, seconds: float, spans_out: Optional[Path]) -> Tuple[Dict, Dict]:
        tracer = tracing.Tracer()
        plain_s = traced_s = 0.0
        traced: List[Repeat] = []
        while not traced or plain_s + traced_s < seconds:
            plain_s += self.repeat(in_process=True).wall_s
            rep = self.repeat(tracer=tracer, in_process=True)
            traced_s += rep.wall_s
            traced.append(rep)
        run = tracing.LayerRun(
            agg=tracing.aggregate(tracer),
            counts=tracer.counts,
            controllers=tracer.controllers,
            snapshot_sizes=tracer.snapshot_sizes,
            trips=sum(r.offered for r in traced),
            epochs=sum(len(r.batch_trips) for r in traced),
            journal_bytes=sum(r.extra["journal_bytes"] for r in traced),
            referrals=sum(r.extra.get("referrals", 0) for r in traced),
            traced_s=traced_s,
            untraced_s=plain_s,
        )
        detail: Dict[str, Any] = {"spans": len(tracer.names), "absent": self.absent}
        if spans_out is not None:
            detail["spans_file"] = str(tracer.write(spans_out))
        return tracing.layer_metrics(run, self.absent), detail


def execute(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    spans_out: Optional[Path] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one benchmark; returns ``(result, detail)``.

    ``result`` is the final JSON line.  On a failed check (or an error
    from the program) ``correct`` is false, ``failed`` counts the rows of
    the repeat whose outputs are untrusted, and ``metrics`` is empty.
    """
    detail: Dict[str, Any] = {"workload": workload.name, "seed": seed, "host": host()}
    inputs = workload.generate(seed)
    run = Run(workload, inputs, workdir)
    try:
        detail["fingerprint"] = check_fingerprint(workload, inputs)
        # The generated stream is the harness's, not the program's: keep
        # the collector from re-scanning it in every full collection the
        # program triggers.
        gc.collect()
        gc.freeze()
        if trace:
            values, more = run.traced(seconds, spans_out)
        else:
            values, more = run.untraced(seconds)
    except Exception as exc:  # noqa: BLE001 — the run's boundary: report it
        if not isinstance(exc, CheckFailed):
            traceback.print_exc()
        detail["failure"] = f"{type(exc).__name__}: {exc}"
        attempted = max(1, run.started) * inputs.offered
        return (
            {"correct": False, "attempted": attempted, "failed": inputs.offered, "metrics": {}},
            detail,
        )
    finally:
        gc.unfreeze()
    detail.update(more)
    first = run.repeats[0]
    detail["repeats"] = len(run.repeats)
    detail["outputs"] = {
        "offered": first.offered,
        "served": first.served,
        "duplicates": first.duplicates,
        **first.extra,
    }
    attempted = sum(r.offered for r in run.repeats)
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": values}, detail


def main(argv: Optional[List[str]], root: Path) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")

    workload = WORKLOADS[args.workload]
    workdir = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    spans_out = root / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    try:
        result, detail = execute(
            workload, args.seed, args.seconds, bool(args.trace), workdir, spans_out
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}, sort_keys=True))
    if not result["correct"]:
        print(f"perfbench: run failed: {detail['failure']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
