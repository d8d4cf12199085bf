import pytest

from perfbench import tracing


def test_self_time_subtracts_nested_children():
    # root [0,100] > a [10,60] > b [20,30]; self(a) = 50 - 10.
    starts, ends, parents = [0, 10, 20], [100, 60, 30], [-1, 0, 1]
    assert tracing.self_times(starts, ends, parents) == [50, 40, 10]


def test_self_time_sums_disjoint_siblings():
    # root [0,100] with children [10,20], [30,50], [60,61].
    starts, ends, parents = [0, 10, 30, 60], [100, 20, 50, 61], [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents) == [100 - 31, 10, 20, 1]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # Overlapping children [10,40] and [30,50] cover [10,50]; a child
    # running past its parent's end only counts inside the parent.
    starts, ends, parents = [0, 10, 30, 90], [100, 40, 50, 120], [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 100 - 40 - 10


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_tracer_records_parents_batches_and_self_time():
    tracer = tracing.Tracer(clock=_fake_clock([0, 5, 7, 9, 12, 20, 25, 26, 30, 34]))
    setup = tracer.open("setup")  # outside any batch
    tracer.close(setup)
    with tracer.root("batch"):
        a = tracer.open("a")
        b = tracer.open("b")
        tracer.close(b)
        tracer.close(a)
    with tracer.root("batch"):
        pass
    assert tracer.names == ["setup", "batch", "a", "b", "batch"]
    assert tracer.parents == [-1, -1, 1, 2, -1]
    assert tracer.batches == [-1, 0, 0, 0, 1]
    agg = tracing.aggregate(tracer)
    assert "setup" not in agg  # set-up spans are not batch work
    # batch 0 runs [7, 26] around a [9, 25]; batch 1 runs [30, 34].
    assert (agg["batch"].calls, agg["batch"].incl_ns, agg["batch"].self_ns) == (2, 23, 7)
    assert (agg["a"].incl_ns, agg["a"].self_ns) == (16, 8)
    assert (agg["b"].incl_ns, agg["b"].self_ns) == (8, 8)


class _Toy:
    def work(self, n):
        return list(range(n))

    @classmethod
    def make(cls, n):
        return n * 2


def test_install_wraps_and_restores_methods_and_reports_absent_targets():
    original_work = _Toy.__dict__["work"]
    original_make = _Toy.__dict__["make"]
    targets = (
        tracing.Target(__name__, "_Toy.work", "toy.work"),
        tracing.Target(__name__, "_Toy.make", "toy.make"),
        tracing.Target(__name__, "_Toy.gone", "toy.gone"),
        tracing.Target(__name__, "_Missing.work", "missing.work"),
        tracing.Target("perfbench.no_such_module", "f", "nomod.f"),
    )
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, targets)
    try:
        with tracer.root("batch"):
            assert _Toy().work(3) == [0, 1, 2]
            assert _Toy.make(4) == 8
    finally:
        inst.uninstall()
    assert set(inst.absent) == {"toy.gone", "missing.work", "nomod.f"}
    assert _Toy.__dict__["work"] is original_work
    assert _Toy.__dict__["make"] is original_make
    agg = tracing.aggregate(tracer)
    assert agg["toy.work"].calls == 1 and agg["toy.make"].calls == 1


def test_every_traced_target_exists_in_the_program():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    inst.uninstall()
    assert inst.absent == {}


def _run(**overrides):
    fields = dict(
        agg={}, counts={}, controllers={}, snapshot_sizes=[], trips=100, epochs=0,
        journal_bytes=1000, referrals=0, traced_s=1.5, untraced_s=1.0,
    )
    fields.update(overrides)
    return tracing.LayerRun(**fields)


def test_layer_metric_of_an_absent_span_is_none_never_an_error():
    out = tracing.layer_metrics(_run(), {"fleet.pick_bike": "gone"})
    assert out["fleet.pick_bike.calls_per_trip"]["value"] is None
    assert out["fleet.pick_bike.us_per_trip"]["value"] is None
    assert out["journal.bytes_per_trip"]["value"] == 10.0
    assert out["trace.overhead"]["value"] == pytest.approx(0.5)
    assert [k for k, v in out.items() if v["value"] is None] == [
        "fleet.pick_bike.calls_per_trip",
        "fleet.pick_bike.us_per_trip",
    ]


def test_snapshot_growth_is_the_bytes_per_ktrip_slope():
    run = _run(snapshot_sizes=[(0, 1000), (500, 1500), (1000, 2000)])
    assert run.snapshot_growth() == pytest.approx(1000.0)
