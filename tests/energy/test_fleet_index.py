"""The fleet's per-station bike index against a brute-force scan.

``Fleet.bikes_at`` and ``Fleet.pick_bike`` answer from a station ->
bikes index; every way a bike can change station (a ride, a truck move,
a direct ``bike.station`` assignment) and every way the fleet can
change shape (a new rack, a state round trip) must leave them equal to
the O(fleet) scan in ``tests/oracles/fleet_scan.py``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import Fleet
from repro.geo import Point

from ..oracles import fleet_scan

N_BIKES = 12
LEVELS = (0.02, 0.1, 0.1, 0.5, 0.9, 0.9)  # repeats force level ties

index = st.integers(min_value=0, max_value=10_000)
ops = st.one_of(
    st.tuples(st.just("ride"), index, index, st.floats(0.0, 5000.0)),
    st.tuples(st.just("move"), index, index),
    st.tuples(st.just("assign"), index, index),
    st.tuples(st.just("level"), index, st.sampled_from(LEVELS)),
    st.tuples(st.just("recharge"), index),
    st.tuples(st.just("add_station"), st.floats(0.0, 5000.0), st.floats(0.0, 5000.0)),
    st.tuples(st.just("roundtrip")),
)


def build(seed):
    stations = [Point(1000.0 * i, 0.0) for i in range(3)]
    return Fleet(stations, n_bikes=N_BIKES, rng=np.random.default_rng(seed))


def apply(fleet, op):
    kind, args = op[0], op[1:]
    n_stations = len(fleet.stations)
    if kind == "ride":
        fleet.ride(args[0] % N_BIKES, args[1] % n_stations, args[2])
    elif kind == "move":
        fleet.move(args[0] % N_BIKES, args[1] % n_stations)
    elif kind == "assign":
        fleet.bikes[args[0] % N_BIKES].station = args[1] % n_stations
    elif kind == "level":
        fleet.bikes[args[0] % N_BIKES].battery.level = args[1]
    elif kind == "recharge":
        fleet.recharge_station(args[0] % n_stations)
    elif kind == "add_station":
        fleet.add_station(Point(args[0], args[1]))
    elif kind == "roundtrip":
        state = json.loads(json.dumps(fleet.state_dict()))
        fleet = Fleet.from_state(state)
    return fleet


def assert_matches_scan(fleet):
    for s in range(len(fleet.stations)):
        indexed = fleet.bikes_at(s)
        scanned = fleet_scan.bikes_at(fleet, s)
        assert [id(b) for b in indexed] == [id(b) for b in scanned]
        for prefer_low in (False, True):
            assert fleet.pick_bike(s, prefer_low=prefer_low) is fleet_scan.pick_bike(
                fleet, s, prefer_low=prefer_low
            )
    assert sum(len(fleet.bikes_at(s)) for s in range(len(fleet.stations))) == N_BIKES


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), sequence=st.lists(ops, max_size=40))
def test_index_equals_scan_under_any_sequence(seed, sequence):
    fleet = build(seed)
    assert_matches_scan(fleet)
    for op in sequence:
        fleet = apply(fleet, op)
        assert_matches_scan(fleet)


class TestMove:
    def test_move_relocates_without_draining(self):
        fleet = build(0)
        bike = fleet.bikes[4]
        level = bike.battery.level
        fleet.move(4, 2)
        assert bike.station == 2
        assert bike.battery.level == level
        assert bike in fleet.bikes_at(2)
        assert bike not in fleet.bikes_at(1)

    def test_invalid_target_leaves_the_index_alone(self):
        fleet = build(0)
        with pytest.raises(ValueError):
            fleet.move(4, 99)
        with pytest.raises(ValueError):
            fleet.bikes[4].station = -1
        assert fleet.bikes[4].station == 1
        assert_matches_scan(fleet)

    def test_unknown_bike_rejected(self):
        with pytest.raises(KeyError):
            build(0).move(N_BIKES, 0)


class TestDirectListEdits:
    def test_cleared_bike_list_empties_every_station(self):
        fleet = build(0)
        fleet.bikes.clear()
        assert all(fleet.bikes_at(s) == [] for s in range(3))
        assert fleet.pick_bike(0) is None

    def test_malformed_state_ids_rejected(self):
        state = build(0).state_dict()
        state["bikes"][0]["bike_id"] = 7
        with pytest.raises(ValueError, match="bike ids"):
            Fleet.from_state(state)
