"""Tests for repro.core.streaming (the Fig. 3 service + footnote 2)."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core import (
    EsharingConfig,
    EsharingPlanner,
    PlacementService,
    constant_facility_cost,
)
from repro.datasets import TripRecord
from repro.energy import Fleet
from repro.geo import Point


def make_trip(i, start, end):
    return TripRecord(
        order_id=i, user_id=i, bike_id=0, bike_type=1,
        start_time=datetime(2017, 5, 10, 8) + timedelta(minutes=i),
        start=start, end=end,
    )


@pytest.fixture
def service():
    anchors = [Point(0, 0), Point(1000, 0), Point(2000, 0)]
    rng = np.random.default_rng(0)
    historical = np.concatenate(
        [np.asarray([(a.x, a.y) for a in anchors])] * 40
    ) + rng.normal(0, 50, size=(120, 2))
    planner = EsharingPlanner(
        anchors, constant_facility_cost(10_000.0), historical,
        np.random.default_rng(1),
    )
    fleet = Fleet(planner.stations, n_bikes=6, rng=np.random.default_rng(2))
    for b in fleet.bikes:
        b.battery.level = 0.9
    return PlacementService(planner, fleet)


class TestConstruction:
    def test_mismatched_layout_rejected(self):
        anchors = [Point(0, 0)]
        planner = EsharingPlanner(
            anchors, constant_facility_cost(1.0), np.zeros((5, 2)),
            np.random.default_rng(0),
        )
        fleet = Fleet([Point(0, 0), Point(1, 1)], n_bikes=2)
        with pytest.raises(ValueError):
            PlacementService(planner, fleet)

    def test_initial_ids(self, service):
        assert service.active_station_ids == [0, 1, 2]
        assert service.station_location(1) == Point(1000, 0)

    def test_unknown_station_id(self, service):
        with pytest.raises(KeyError):
            service.station_location(99)


class TestHandleTrip:
    def test_serves_from_nearest_stocked_station(self, service):
        trip = make_trip(0, Point(950, 10), Point(10, 10))
        response = service.handle_trip(trip)
        assert response.served
        assert response.origin_station == 1
        service.consistency_check()

    def test_unserved_when_fleet_empty(self, service):
        # With no bikes anywhere, every pickup attempt is refused.
        service.fleet.bikes.clear()
        response = service.handle_trip(make_trip(99, Point(0, 0), Point(1, 1)))
        assert not response.served
        assert response.origin_station == -1
        assert response.destination_station == -1

    def test_emptied_station_retires(self, service):
        # Station 2 holds exactly 2 bikes (round robin of 6 over 3).
        assert len(service.fleet.bikes_at(2)) == 2
        r1 = service.handle_trip(make_trip(0, Point(2000, 5), Point(0, 5)))
        assert r1.origin_station == 2
        assert r1.removed_station is None
        r2 = service.handle_trip(make_trip(1, Point(2000, 5), Point(0, 5)))
        assert r2.origin_station == 2
        assert r2.removed_station == 2
        assert 2 not in service.active_station_ids
        assert 2 in service.retired
        service.consistency_check()

    def test_retired_station_not_assigned_for_dropoff(self, service):
        # Retire station 2 as above.
        service.handle_trip(make_trip(0, Point(2000, 5), Point(0, 5)))
        service.handle_trip(make_trip(1, Point(2000, 5), Point(0, 5)))
        # A drop-off request right at the retired location must not be
        # assigned to it (it is out of P) — either a new station opens
        # there or it walks to an active one.
        response = service.handle_trip(make_trip(2, Point(0, 5), Point(2000, 0)))
        assert response.destination_station != 2
        service.consistency_check()

    def test_location_can_reopen_later(self, service):
        """Footnote 2: the algorithm can still establish a station at the
        emptied location depending on later requests."""
        service.handle_trip(make_trip(0, Point(2000, 5), Point(0, 5)))
        service.handle_trip(make_trip(1, Point(2000, 5), Point(0, 5)))
        assert 2 in service.retired
        # Hammer the retired location with drop-offs; Algorithm 2's
        # opening coin flip should eventually open a station nearby.
        reopened = False
        for i in range(60):
            r = service.handle_trip(make_trip(10 + i, Point(0, 5), Point(2000, 0)))
            if r.opened_new and service.station_location(
                r.destination_station
            ).distance_to(Point(2000, 0)) < 300:
                reopened = True
                break
        assert reopened
        service.consistency_check()

    def test_opened_station_gets_stable_id(self, service):
        opened_ids = []
        for i in range(40):
            r = service.handle_trip(make_trip(i, Point(0, 5), Point(1500, 800)))
            if r.opened_new:
                opened_ids.append(r.destination_station)
        if not opened_ids:
            pytest.skip("no online opening with this seed")
        assert all(oid >= 3 for oid in opened_ids)
        service.consistency_check()

    def test_responses_recorded(self, service):
        # Responses are returned, not kept; the service counts them.
        responses = [
            service.handle_trip(make_trip(i, Point(0, 5), Point(1000, 5)))
            for i in range(5)
        ]
        assert [r.order_id for r in responses] == list(range(5))
        assert service.handled == 5
        assert "responses" not in service.state_dict()
        assert service.state_dict()["handled"] == 5


class TestStateDriftGuards:
    """Invariant guards raise typed errors (assert would vanish under -O)."""

    def test_rack_count_drift_detected(self, service):
        from repro.errors import StateDriftError

        service.fleet.stations.append(Point(9999.0, 9999.0))
        with pytest.raises(StateDriftError, match="racks"):
            service.consistency_check()

    def test_location_divergence_detected(self, service):
        from repro.errors import StateDriftError

        service.fleet.stations[0] = Point(123.0, 456.0)
        with pytest.raises(StateDriftError, match="diverged"):
            service.consistency_check()

    def test_zombie_retired_id_detected(self, service):
        from repro.errors import StateDriftError

        service.retired.append(0)  # id 0 is still active in the planner
        with pytest.raises(StateDriftError, match="retired"):
            service.consistency_check()

    def test_state_drift_error_is_runtime_error(self):
        from repro.errors import StateDriftError

        assert issubclass(StateDriftError, RuntimeError)
        assert not issubclass(StateDriftError, AssertionError)
