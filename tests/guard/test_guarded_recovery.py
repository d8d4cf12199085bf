"""Crash recovery *through the guard layer*, on a chaos-mutated stream.

Two guarantees beyond ``tests/resilience/test_recovery.py``:

* kill-at-every-trip parity holds when the stream itself is hostile
  (duplicates, drops, bounded reorder, clock skew) and every event rides
  through the validator → watermark buffer → planner pipeline — because
  the guard layer's state is rebuilt by re-feeding the stream, not
  checkpointed, a recovered runtime must converge on the exact run an
  uninterrupted twin produced;
* a full fault scenario — stream chaos plus injected KS and incentive
  exceptions plus a forced planner outage — is bit-identical across
  reruns: responses, incidents, breaker transitions, and the degraded
  ledger all replay exactly.
"""

from repro.guard import BreakerConfig, GuardedRuntime
from repro.incentives.charging_cost import ChargingCostParams
from repro.incentives.mechanism import IncentiveMechanism
from repro.resilience import CheckpointingService, constant_cost_spec
from repro.resilience.chaos import ChaosConfig, FaultInjector

import numpy as np

from ..oracles.outcomes import recovered_outcomes, responses_of
from .conftest import COST_VALUE, build_service, guard_config, make_trips, scrub

CHECKPOINT_EVERY = 15


def wrap(directory, seed=21, config=None, **kwargs):
    inner = CheckpointingService(
        build_service(seed=seed),
        directory,
        checkpoint_every=CHECKPOINT_EVERY,
        durable=False,
        facility_cost_spec=constant_cost_spec(COST_VALUE),
    )
    return GuardedRuntime(inner, config or guard_config(), **kwargs)


def hostile_stream(n=45, seed=21, **rates):
    """Chaos-mutated arrivals: stream faults only, baked into the list
    so every run (and every recovery) sees the identical sequence."""
    config = ChaosConfig(
        seed=seed,
        p_duplicate=0.06, p_drop=0.05, p_swap=0.08,
        p_clock_skew=0.04, skew_max_s=300.0,
        **rates,
    )
    return FaultInjector(config).mutate_trips(make_trips(n, seed=seed))


class TestKillAtEveryTrip:
    def test_bit_identical_recovery_from_every_kill_point(self, tmp_path):
        hostile = hostile_stream()
        reference = wrap(tmp_path / "ref")
        expected = responses_of(reference.serve(hostile))
        reference.consistency_check()
        assert reference.duplicates > 0, "chaos produced no duplicates"

        for k in range(1, len(hostile) + 1):
            victim = wrap(tmp_path / f"kill-{k}")
            before = []
            for trip in hostile[:k]:
                before.extend(victim.ingest(trip))
            victim.close()  # the crash: buffered arrivals are lost

            resumed = GuardedRuntime.recover(
                tmp_path / f"kill-{k}", config=guard_config(),
                checkpoint_every=CHECKPOINT_EVERY, durable=False,
            )
            # At-least-once upstream: the whole stream is redelivered.
            # The guard layer re-derives its state from the sequence and
            # the journal-backed duplicate screen drops what the dead
            # run already served.
            after = resumed.serve(hostile)
            resumed.consistency_check()
            assert recovered_outcomes(before, resumed.inner) + responses_of(
                after
            ) == expected, f"responses diverged after crash at arrival {k}"
            assert scrub(resumed.inner.service.state_dict()) == scrub(
                reference.inner.service.state_dict()
            ), f"state diverged after crash at arrival {k}"
            resumed.close()
        reference.close()


class TestScenarioDeterminism:
    def run_scenario(self, directory, seed=31):
        """One full hostile run: stream chaos, injected KS and incentive
        faults, and a forced planner outage mid-stream."""
        injector = FaultInjector(ChaosConfig(
            seed=seed,
            p_duplicate=0.05, p_drop=0.04, p_swap=0.06,
            p_clock_skew=0.03, skew_max_s=600.0,
            p_garbage=0.04,
            p_late=0.03, late_max_positions=6,
            p_subsystem_error=0.15,
        ))
        hostile = injector.mutate_trips(make_trips(60, seed=seed))

        inner = CheckpointingService(
            build_service(seed=seed), directory,
            checkpoint_every=CHECKPOINT_EVERY, durable=False,
            facility_cost_spec=constant_cost_spec(COST_VALUE),
        )
        mechanism = IncentiveMechanism(
            inner.service.fleet, ChargingCostParams(),
            rng=np.random.default_rng(seed + 3),
            stations=inner.service.planner.station_set,
        )
        mechanism.offer_ride = injector.failing(
            mechanism.offer_ride, "incentive"
        )
        config = guard_config(
            breaker=BreakerConfig(failure_threshold=2, jitter_events=2)
        )
        runtime = GuardedRuntime(inner, config, incentives=mechanism)
        # the KS check only fires every beta*k arrivals (~5 times in this
        # stream), so its fault rate needs a heavier thumb on the scale
        runtime.guarded_ks.inner.test = injector.failing(
            runtime.guarded_ks.inner.test, "ks", rate=0.6
        )

        outcomes = []
        for trip in hostile[:35]:
            outcomes.extend(runtime.ingest(trip))
        # a deterministic planner outage: two forced failures trip the
        # breaker open, so the next emissions serve degraded
        runtime.breakers["planner"].failure()
        runtime.breakers["planner"].failure()
        for trip in hostile[35:]:
            outcomes.extend(runtime.ingest(trip))
        outcomes.extend(runtime.finish())
        runtime.consistency_check()

        fingerprint = (
            outcomes,
            scrub(runtime.inner.service.state_dict()),
            list(runtime.incidents.rows),
            {name: b.transitions for name, b in runtime.breakers.items()},
            list(runtime.degraded_decisions),
            dict(runtime.sink.by_rule),
            dict(runtime.validator.counters),
            injector.summary(),
        )
        runtime.close()
        return fingerprint

    def test_full_fault_scenario_replays_bit_identically(self, tmp_path):
        first = self.run_scenario(tmp_path / "a")
        second = self.run_scenario(tmp_path / "b")
        assert first == second
        # the scenario must actually have exercised the interesting paths
        responses, _, incidents, transitions, degraded, by_rule, _, summary = first
        assert responses, "nothing was served"
        assert degraded, "the forced outage produced no degraded decisions"
        assert transitions["planner"], "the planner breaker never moved"
        assert summary.subsystem_errors["ks"] > 0
        assert summary.subsystem_errors["incentive"] > 0
        assert by_rule, "stream chaos never dead-lettered anything"
