"""The server backend of Fig. 3: a stateful placement service.

Trip requests "are streamed to the server backend, calculated by
E-sharing and assigned appropriate parking locations" (Section II-B).
:class:`PlacementService` is that backend: it routes each trip through
Algorithm 2, keeps the fleet inventory in sync, and implements
footnote 2 — "when customers pick up all the E-bikes from a station ...
the station is removed from P.  The algorithm can still establish a
station at this location depending on the requests later."

Station identity is owned by the planner's
:class:`~repro.core.station_set.StationSet`: ids are stable across
removals, so the service carries no id-remapping tables of its own — it
subscribes to the set's inventory hooks to grow the fleet's racks and
answers every location query straight from the shared store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..datasets.trips import TripRecord
from ..energy.fleet import Fleet
from ..errors import StateDriftError
from ..geo.points import Point
from .costs import FacilityCostFn
from .esharing import EsharingPlanner

__all__ = ["ServiceResponse", "PlacementService"]


@dataclass(frozen=True)
class ServiceResponse:
    """Answer to one trip request.

    Attributes:
        order_id: the request's id.
        served: whether a bike was available at the pickup station.
        origin_station: stable id of the pickup station (or -1).
        destination_station: stable id of the assigned parking (or -1).
        opened_new: the request opened a new parking online.
        removed_station: stable id of a station retired because this
            pickup emptied it (footnote 2), or None.
        walking_m: decision-time walking distance to the parking.
    """

    order_id: int
    served: bool
    origin_station: int
    destination_station: int
    opened_new: bool
    removed_station: Optional[int]
    walking_m: float


class PlacementService:
    """Stateful Tier-1 service wiring the planner to the fleet.

    Args:
        planner: an anchored Algorithm-2 planner.  Its stations carry
            stable ids ``0..k-1``; the fleet's rack list must line up
            with them (one rack per ever-assigned id).
        fleet: a fleet whose stations list matches the planner's.

    Raises:
        ValueError: if planner and fleet disagree on the station layout.
    """

    def __init__(self, planner: EsharingPlanner, fleet: Fleet) -> None:
        if planner.station_set.total_assigned != len(fleet.stations):
            raise ValueError(
                f"planner has {planner.station_set.total_assigned} station ids, "
                f"fleet has {len(fleet.stations)} racks; build the fleet on the "
                "planner's stations"
            )
        self.planner = planner
        self.fleet = fleet
        self.retired: List[int] = []
        # Trips handled so far.  The responses themselves are outcomes —
        # returned to the caller, never kept — so the service's state
        # stays sized by live state, not by uptime.
        self.handled = 0
        # Inventory hook: every station the planner opens online gets a
        # rack in the fleet under the same stable id.
        planner.station_set.subscribe(on_add=self._rack_for_new_station)

    def _rack_for_new_station(self, station_id: int, location: Point) -> None:
        rack = self.fleet.add_station(location)
        if rack != station_id:
            raise StateDriftError(
                f"fleet rack {rack} diverged from station id {station_id}"
            )

    # ------------------------------------------------------------------
    @property
    def active_station_ids(self) -> List[int]:
        """Stable ids of stations currently in the planner's set P."""
        return self.planner.station_set.ids()

    def station_location(self, station_id: int) -> Point:
        """Location of a stable station id (active or retired).

        Raises:
            KeyError: for an unknown id.
        """
        return self.planner.station_set.location(station_id)

    # ------------------------------------------------------------------
    def _pickup_station(self, origin: Point) -> Optional[int]:
        """Stable id of the nearest *active* station holding a bike."""
        hit = self.planner.station_set.nearest_where(
            origin, lambda sid: self.fleet.pick_bike(sid) is not None
        )
        return None if hit is None else hit[0]

    def handle_trip(self, trip: TripRecord) -> ServiceResponse:
        """Serve one trip end to end.

        Pickup: nearest active station with a bike (the trip is refused
        when none exists anywhere).  Drop-off: Algorithm 2's decision.
        If the pickup empties its station, the station retires from P.
        """
        origin_id = self._pickup_station(trip.start)
        if origin_id is None:
            response = ServiceResponse(
                order_id=trip.order_id, served=False,
                origin_station=-1, destination_station=-1,
                opened_new=False, removed_station=None, walking_m=0.0,
            )
            self.handled += 1
            return response

        decision = self.planner.offer(trip.end)
        dest_id = decision.station_index

        bike = self.fleet.pick_bike(origin_id)
        if bike is None:  # guaranteed by _pickup_station
            raise StateDriftError(
                f"station {origin_id} emptied between selection and pickup "
                f"for order {trip.order_id}"
            )
        self.fleet.ride(bike.bike_id, dest_id, trip.distance)

        removed: Optional[int] = None
        if not self.fleet.bikes_at(origin_id) and origin_id != dest_id:
            self.planner.remove_station(origin_id)
            self.retired.append(origin_id)
            removed = origin_id

        response = ServiceResponse(
            order_id=trip.order_id, served=True,
            origin_station=origin_id, destination_station=dest_id,
            opened_new=decision.opened, removed_station=removed,
            walking_m=decision.walking_cost,
        )
        self.handled += 1
        return response

    def degraded_assign(self, trip: TripRecord) -> ServiceResponse:
        """Serve a trip in degraded mode: nearest existing station, no
        state mutation.

        The graceful-degradation answer when the planner is marked
        unhealthy: the rider is pointed at the nearest *active* station
        for both pickup and drop-off, nothing is opened or retired, no
        bike moves, and the trip does **not** count as :attr:`handled` —
        the caller (the guarded runtime) owns the degraded-decision
        ledger, because these answers are outside the journaled history
        and must not contaminate bit-identical replay.

        Raises:
            StateDriftError: when no station is active at all (nothing
                sane can be served; the supervisor must halt).
        """
        store = self.planner.station_set
        if not store.ids():
            raise StateDriftError(
                f"degraded mode has no active station for order {trip.order_id}"
            )
        origin = store.nearest(trip.start)
        dest = store.nearest(trip.end)
        return ServiceResponse(
            order_id=trip.order_id, served=True,
            origin_station=origin[0], destination_station=dest[0],
            opened_new=False, removed_station=None, walking_m=dest[1],
        )

    def serve(self, trips: Iterable[TripRecord]) -> List[ServiceResponse]:
        """Serve a batch of trips in arrival order.

        The service cannot route a whole batch through the planner's
        vectorized :meth:`~repro.core.esharing.EsharingPlanner.replay`:
        each pickup may empty a rack and retire its station (footnote 2),
        which invalidates the nearest-station cache mid-batch, so trips
        stay sequential here.  Drop-off-only streams — no fleet in the
        loop — should call ``planner.replay`` directly.

        Returns:
            The responses for this batch, in order.
        """
        return [self.handle_trip(t) for t in trips]

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state of the whole service: planner + fleet +
        the retired-id ledger and the handled-trip counter.

        Everything needed to continue the run bit-identically after a
        crash, except the planner's opening-cost callable — pass that to
        :meth:`from_state` again.  No response or decision history is
        included: past outcomes were returned to their callers.
        """
        return {
            "planner": self.planner.state_dict(),
            "fleet": self.fleet.state_dict(),
            "retired": list(self.retired),
            "handled": self.handled,
        }

    @classmethod
    def from_state(
        cls, state: dict, facility_cost: FacilityCostFn
    ) -> "PlacementService":
        """Rebuild a service from :meth:`state_dict` output.

        The planner and fleet are restored first, then the service is
        constructed around them — which re-wires the rack-growth
        subscription exactly as the original construction did.

        Raises:
            KeyError: on a missing field.
            ValueError: if the restored planner and fleet disagree on the
                station layout (a corrupt or hand-edited snapshot).
        """
        planner = EsharingPlanner.from_state(state["planner"], facility_cost)
        fleet = Fleet.from_state(state["fleet"])
        service = cls(planner, fleet)
        service.retired = [int(sid) for sid in state["retired"]]
        service.handled = int(state["handled"])
        return service

    # ------------------------------------------------------------------
    def consistency_check(self) -> None:
        """Verify the planner/fleet/id bookkeeping is coherent.

        Raises:
            StateDriftError: on any drift between the views (real
                exceptions, not ``assert``, so the guard also holds under
                ``python -O``).
        """
        store = self.planner.station_set
        if store.total_assigned != len(self.fleet.stations):
            raise StateDriftError(
                f"planner knows {store.total_assigned} station ids but the "
                f"fleet has {len(self.fleet.stations)} racks"
            )
        for sid in store.ids():
            if store.location(sid) != self.fleet.stations[sid]:
                raise StateDriftError(
                    f"station id {sid} diverged between planner and fleet"
                )
        for sid in self.retired:
            if store.is_active(sid):
                raise StateDriftError(
                    f"station id {sid} is on the retired ledger but still "
                    "active in the planner"
                )
