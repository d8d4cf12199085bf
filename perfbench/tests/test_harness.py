import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import harness, tracing
from perfbench.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    FleetSoak,
    FleetSurge,
    ServeLong,
    Surge,
    fingerprint,
)
from repro.core.streaming import ServiceResponse
from repro.resilience.snapshot import SnapshotStore

ROOT = Path(__file__).resolve().parents[2]


class TinyServe(ServeLong):
    name = "tiny-serve"
    n_trips = 1600
    block_size = 64


class TinyFleet(FleetSoak):
    name = "tiny-fleet"
    n_trips = 600
    epochs = 12


class TinySurge(Surge):
    name = "tiny-surge"
    duration_s = 1800.0


class TinyFleetSurge(FleetSurge):
    name = "tiny-fleet-surge"
    duration_s = 900.0
    epochs = 6


class DivergingOutcome(TinyServe):
    """The second serve returns one response that differs."""

    def __init__(self):
        self.drives = 0

    def drive(self, runtime, inputs, directory, **kwargs):
        drive = super().drive(runtime, inputs, directory, **kwargs)
        self.drives += 1
        if self.drives == 2:
            i = max(
                k for k, o in enumerate(drive.outcomes) if isinstance(o, ServiceResponse)
            )
            o = drive.outcomes[i]
            drive.outcomes[i] = dataclasses.replace(o, walking_m=o.walking_m + 1.0)
        return drive


class DriftingState(TinyServe):
    """The live fleet drifts after serving: recovery cannot match it."""

    def drive(self, runtime, inputs, directory, **kwargs):
        drive = super().drive(runtime, inputs, directory, **kwargs)
        runtime.inner.service.fleet.threshold += 0.01
        return drive


class CheckpointDisagrees(TinyFleet):
    """Each shard's final checkpoint disagrees with what the shard served:
    recovery from it reproduces it, only a replay from genesis cannot."""

    def drive(self, runtime, inputs, directory, **kwargs):
        drive = super().drive(runtime, inputs, directory, **kwargs)
        for shard in sorted(directory.glob("shard-*")):
            store = SnapshotStore(shard)
            latest = store.load_latest()
            latest.payload["service"]["fleet"]["threshold"] += 0.01
            store.save(latest.payload, latest.seq)
        return drive


@pytest.fixture
def fingerprints(tmp_path, monkeypatch):
    """Record the tiny workloads' default-seed fingerprints."""
    path = tmp_path / "fingerprints.json"
    hashes = {
        w.name: fingerprint(w.generate(DEFAULT_SEED))
        for w in (TinyServe(), TinyFleet(), TinySurge(), TinyFleetSurge())
    }
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": hashes}))
    monkeypatch.setattr(harness, "FINGERPRINTS", path)
    return path


def _execute(workload, tmp_path, trace=False):
    return harness.execute(workload, 1, 0.01, trace, tmp_path / "work")


def test_untraced_run_reports_every_end_to_end_metric(fingerprints, tmp_path):
    result, detail = _execute(TinyServe(), tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (1 + TinyServe.min_repeats) * 1600  # warm-up too
    names = [name for name, _, _ in harness.END_TO_END]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["batch_ms_tail"]["samples"] == TinyServe.min_repeats * 25
    assert detail["host"]["nproc"] >= 1


@pytest.mark.parametrize(
    "workload", [TinyServe(), TinyFleet(), TinyFleetSurge()], ids=lambda w: w.name
)
def test_traced_run_reports_every_per_layer_metric(fingerprints, tmp_path, workload):
    result, detail = _execute(workload, tmp_path, trace=True)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m[0] for m in tracing.PER_LAYER]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert None not in values.values()
    assert detail["absent"] == {}
    assert 0 < values["trace.unattributed_share"] < 1
    admission = ("overload.offer.us_per_trip", "overload.deferred_share",
                 "overload.depth_max", "overload.rung_transitions",
                 "placement.degraded_assign.us_per_call")
    if isinstance(workload, FleetSurge):
        for name in admission:
            assert values[name] > 0, name
        assert values["overload.deferred_share"] < 1
    else:
        for name in admission:
            assert values[name] == 0, name
    if isinstance(workload, FleetSoak):
        for name in ("shard.build.ms_per_epoch", "pool.run.ms_per_epoch",
                     "pool.task_bytes_per_trip", "service.recover.ms_per_call",
                     "router.split_trips.us_per_trip"):
            assert values[name] > 0, name
    else:
        assert values["service.checkpoints"] >= 3
        assert values["fleet.pick_bike.calls_per_trip"] > 1
        assert values["shard.build.ms_per_epoch"] == 0


def test_fleet_surge_defers_part_of_the_surge_and_accounts_for_all(
    fingerprints, tmp_path
):
    result, detail = _execute(TinyFleetSurge(), tmp_path)
    assert result["correct"], detail.get("failure")
    out = detail["outputs"]
    assert out["deferred"] > 0
    assert out["served"] + out["deferred"] + out["shed"] <= out["offered"]
    assert result["metrics"]["served_share"]["value"] < 1


@pytest.mark.xfail(
    strict=True,
    reason="GuardedRuntime.recover restarts the overload ladder at rung 0 with "
    "the KS breaker un-suspended, so the replayed journal tail runs KS checks "
    "the live run skipped; surge joins BENCHMARK.json once this passes",
)
def test_surge_recovers_to_its_live_state(fingerprints, tmp_path):
    result, detail = _execute(TinySurge(), tmp_path)
    assert result["correct"], detail.get("failure")


def test_planted_outcome_divergence_fails_the_run(fingerprints, tmp_path):
    workload = DivergingOutcome()
    result, detail = _execute(workload, tmp_path)
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert result["failed"] > 0
    assert "outcome digest" in detail["failure"]


def test_recovered_state_that_differs_from_live_fails_the_run(fingerprints, tmp_path):
    result, detail = _execute(DriftingState(), tmp_path)
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert "recovered fleet state differs" in detail["failure"]


def test_fleet_checkpoint_that_disagrees_with_its_journal_fails_the_run(
    fingerprints, tmp_path
):
    result, detail = _execute(CheckpointDisagrees(), tmp_path)
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert "fleet recovered from genesis + journal differs" in detail["failure"]


def test_changed_traffic_is_refused(fingerprints, tmp_path):
    data = json.loads(fingerprints.read_text())
    data["workloads"]["tiny-serve"] = "0" * 64
    fingerprints.write_text(json.dumps(data))
    result, detail = _execute(TinyServe(), tmp_path)
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert "fingerprint" in detail["failure"]


def test_a_missing_layer_function_is_reported_absent(fingerprints, tmp_path, monkeypatch):
    targets = tuple(
        dataclasses.replace(t, qualname="Fleet.pick_bike_removed")
        if t.span == "fleet.pick_bike" else t
        for t in tracing.TARGETS
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    result, detail = _execute(TinyServe(), tmp_path, trace=True)
    assert result["correct"] is True
    assert set(detail["absent"]) == {"fleet.pick_bike"}
    assert result["metrics"]["fleet.pick_bike.calls_per_trip"]["value"] is None
    assert result["metrics"]["fleet.bikes_at.calls_per_trip"]["value"] > 0


def test_default_seed_fingerprints_are_stable_and_recorded():
    recorded = json.loads(harness.FINGERPRINTS.read_text())
    assert recorded["seed"] == DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        first = fingerprint(workload.generate(DEFAULT_SEED))
        assert fingerprint(workload.generate(DEFAULT_SEED)) == first
        assert recorded["workloads"][name] == first
    serve = WORKLOADS["serve-long"]
    assert fingerprint(serve.generate(DEFAULT_SEED + 1)) != recorded["workloads"]["serve-long"]


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.PER_LAYER
    ]
