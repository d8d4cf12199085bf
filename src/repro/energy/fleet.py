"""Fleet-level energy state.

Tier 2 operates on *sets of low-energy bikes per station* (the sets
``L_i`` of Section IV).  :class:`Fleet` tracks every bike's battery and
current station, replays trips to evolve the energy state, and reports the
station -> low-energy-bike map that the incentive mechanism and the
operator's tour planner consume.

Per-station queries (:meth:`Fleet.bikes_at`, :meth:`Fleet.pick_bike`) go
through a station -> bikes index, so they cost O(bikes at that station),
not O(fleet): the online service asks them several times per trip.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..geo.points import Point
from ..serialize import rng_from_state, rng_to_state
from .battery import Battery, BatteryConfig, LOW_ENERGY_THRESHOLD

__all__ = ["Bike", "Fleet", "StationEnergySnapshot"]


class Bike:
    """One E-bike: identity, battery, and where it is parked.

    Assigning :attr:`station` re-files the bike in its fleet's
    per-station index, so the index cannot fall out of step with the
    bikes; :meth:`Fleet.move` is the checked way to do it.
    """

    def __init__(self, bike_id: int, battery: Battery, station: int) -> None:
        self.bike_id = bike_id
        self.battery = battery
        self._station = station
        self._fleet: Optional["Fleet"] = None

    @property
    def station(self) -> int:
        """Index of the station the bike is parked at."""
        return self._station

    @station.setter
    def station(self, station: int) -> None:
        if self._fleet is not None:
            self._fleet._refile(self, station)
        self._station = station

    @property
    def is_low(self) -> bool:
        return self.battery.is_low

    def __repr__(self) -> str:
        return (
            f"Bike(bike_id={self.bike_id!r}, battery={self.battery!r}, "
            f"station={self._station!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.bike_id, self.battery, self._station) == (
            other.bike_id, other.battery, other._station
        )

    __hash__ = None  # mutable and compared by value, like a dataclass


@dataclass(frozen=True)
class StationEnergySnapshot:
    """Energy census of one station at a point in time.

    Attributes:
        station: station index.
        location: station coordinates.
        total_bikes: bikes parked there.
        low_bikes: ids of bikes below the service threshold (the set L_i).
        levels: charge level of every parked bike.
    """

    station: int
    location: Point
    total_bikes: int
    low_bikes: tuple
    levels: tuple

    @property
    def needs_service(self) -> bool:
        return len(self.low_bikes) > 0


class Fleet:
    """All bikes of the system, with per-station energy accounting.

    Args:
        stations: coordinates of the parking locations (index = station id).
        n_bikes: fleet size; bikes start distributed round-robin.
        config: battery parameters shared by the fleet.
        rng: randomness for initial charge levels and ride noise.
        threshold: charge level below which a bike counts as low-energy.
    """

    def __init__(
        self,
        stations: Sequence[Point],
        n_bikes: int,
        config: Optional[BatteryConfig] = None,
        rng: Optional[np.random.Generator] = None,
        threshold: float = LOW_ENERGY_THRESHOLD,
    ) -> None:
        if not stations:
            raise ValueError("fleet needs at least one station")
        if n_bikes <= 0:
            raise ValueError(f"n_bikes must be positive, got {n_bikes}")
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        self.stations = list(stations)
        self.threshold = threshold
        self._rng = rng or np.random.default_rng(0)
        cfg = config or BatteryConfig()
        self.bikes: List[Bike] = []
        for i in range(n_bikes):
            # Initial charge: most bikes healthy, plus an explicit tail of
            # low-energy bikes — the steady-state shape of Fig. 2(d)
            # (a majority with sufficient residual energy and a tail that
            # "necessitates energy replenishment at each station").
            if self._rng.uniform() < 0.15:
                level = float(self._rng.uniform(0.05, threshold))
            else:
                level = float(np.clip(self._rng.beta(5.0, 1.5), threshold, 1.0))
            self.bikes.append(
                Bike(bike_id=i, battery=Battery(cfg, level), station=i % len(self.stations))
            )
        self._reindex()

    def __len__(self) -> int:
        return len(self.bikes)

    def state_dict(self) -> dict:
        """Checkpointable state: racks, every bike, and the ride-noise RNG.

        Charge levels are exact floats and the RNG bit stream is captured
        in full, so a fleet rebuilt by :meth:`from_state` drains batteries
        bit-identically to the uninterrupted run.
        """
        return {
            "stations": [[p.x, p.y] for p in self.stations],
            "threshold": self.threshold,
            "rng": rng_to_state(self._rng),
            "bikes": [
                {
                    "bike_id": b.bike_id,
                    "station": b.station,
                    "level": b.battery.level,
                    "config": asdict(b.battery.config),
                }
                for b in self.bikes
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "Fleet":
        """Rebuild a fleet from :meth:`state_dict` output.

        Raises:
            KeyError: on a missing field.
            ValueError: on out-of-range levels or battery parameters,
                bike ids that are not ``0..n-1`` in order, or a bike
                parked at an unknown station.
        """
        fleet = cls.__new__(cls)
        fleet.stations = [Point(float(x), float(y)) for x, y in state["stations"]]
        fleet.threshold = float(state["threshold"])
        fleet._rng = rng_from_state(state["rng"])
        fleet.bikes = [
            Bike(
                bike_id=int(b["bike_id"]),
                battery=Battery(BatteryConfig(**b["config"]), float(b["level"])),
                station=int(b["station"]),
            )
            for b in state["bikes"]
        ]
        for position, bike in enumerate(fleet.bikes):
            if bike.bike_id != position:
                raise ValueError(
                    f"bike at position {position} has id {bike.bike_id}; "
                    "bike ids must be 0..n-1 in order"
                )
        fleet._reindex()
        return fleet

    def _reindex(self) -> None:
        """Rebuild the station -> bikes index from :attr:`bikes`.

        Runs at construction and whenever :attr:`bikes` changed length
        behind the fleet's back (bikes appended or removed directly);
        station moves keep the index current on their own.
        """
        racks: List[Dict[int, Bike]] = [{} for _ in self.stations]
        for bike in self.bikes:
            self._check_station(bike._station)
            bike._fleet = self
            racks[bike._station][bike.bike_id] = bike
        self._racks = racks
        self._indexed = len(self.bikes)

    def _refile(self, bike: Bike, station: int) -> None:
        """Index hook of :attr:`Bike.station`: move ``bike`` to ``station``'s rack."""
        self._check_station(station)
        self._racks[bike._station].pop(bike.bike_id, None)
        self._racks[station][bike.bike_id] = bike

    def _rack(self, station: int) -> Dict[int, Bike]:
        """The bikes parked at ``station``, keyed by id (index lookup)."""
        self._check_station(station)
        if self._indexed != len(self.bikes):
            self._reindex()
        return self._racks[station]

    def add_station(self, location: Point) -> int:
        """Register a new (empty) station rack; returns its index.

        The index matches the stable id handed out by the planner's
        :class:`~repro.core.station_set.StationSet` when this is wired as
        its ``on_add`` inventory hook, which is how stations opened online
        join the fleet with no bikes.
        """
        self.stations.append(location)
        self._racks.append({})
        return len(self.stations) - 1

    def bikes_at(self, station: int) -> List[Bike]:
        """Bikes currently parked at ``station``, in bike-id order.

        An index lookup: O(bikes at the station), independent of the
        fleet size.
        """
        rack = self._rack(station)
        return [rack[bike_id] for bike_id in sorted(rack)]

    def move(self, bike_id: int, station: int) -> None:
        """Relocate a bike to ``station`` without riding it (no battery
        drain) — a truck move, as rebalancing does.

        Raises:
            KeyError: if the bike id is unknown.
            ValueError: if the target station is invalid.
        """
        self._bike(bike_id).station = station

    def low_energy_map(self) -> Dict[int, List[int]]:
        """Station -> list of low-energy bike ids (the L_i sets)."""
        out: Dict[int, List[int]] = {}
        for b in self.bikes:
            if b.battery.level < self.threshold:
                out.setdefault(b.station, []).append(b.bike_id)
        return {s: sorted(ids) for s, ids in sorted(out.items())}

    def stations_needing_service(self) -> List[int]:
        """Stations holding at least one low-energy bike."""
        return sorted(self.low_energy_map())

    def snapshot(self, station: int) -> StationEnergySnapshot:
        """Energy census of one station."""
        bikes = self.bikes_at(station)
        low = tuple(b.bike_id for b in bikes if b.battery.level < self.threshold)
        return StationEnergySnapshot(
            station=station,
            location=self.stations[station],
            total_bikes=len(bikes),
            low_bikes=low,
            levels=tuple(b.battery.level for b in bikes),
        )

    def snapshots(self) -> List[StationEnergySnapshot]:
        """Census of every station."""
        return [self.snapshot(s) for s in range(len(self.stations))]

    def ride(self, bike_id: int, to_station: int, distance_m: float) -> float:
        """Move a bike to ``to_station``, draining its battery.

        Returns:
            The bike's new charge level.

        Raises:
            KeyError: if the bike id is unknown.
            ValueError: if the target station is invalid.
        """
        self._check_station(to_station)
        bike = self._bike(bike_id)
        level = bike.battery.ride(distance_m, rng=self._rng)
        bike.station = to_station
        return level

    def pick_bike(self, station: int, prefer_low: bool = False) -> Optional[Bike]:
        """A rider's bike choice at ``station``.

        Riders naturally prefer the highest-charge bike; the incentive
        mechanism instead asks for a *low*-energy one (``prefer_low``).
        Returns ``None`` when the station is empty, or when ``prefer_low``
        is set and no low-energy bike is present.  Ties on charge level
        go to the lower bike id, so the choice does not depend on the
        order bikes arrived in; the cost is O(bikes at the station).
        """
        rack = self._rack(station)
        if not rack:
            return None
        if prefer_low:
            threshold = self.threshold
            low = [b for b in rack.values() if b.battery.level < threshold]
            if not low:
                return None
            return min(low, key=lambda b: (b.battery.level, b.bike_id))
        # max by (level, -bike_id), unrolled: the pickup's hot loop.
        best: Optional[Bike] = None
        top = 0.0
        for bike in rack.values():
            level = bike.battery.level
            if best is None or level > top or (
                level == top and bike.bike_id < best.bike_id
            ):
                best, top = bike, level
        return best

    def recharge_station(self, station: int) -> int:
        """Operator services a station: recharge all low-energy bikes there.

        Returns:
            Number of bikes recharged.
        """
        count = 0
        for b in self.bikes_at(station):
            if b.battery.level < self.threshold:
                b.battery.recharge()
                count += 1
        return count

    def charge_levels(self) -> np.ndarray:
        """Charge level of every bike, indexed by bike id."""
        return np.asarray([b.battery.level for b in self.bikes], dtype=float)

    def low_energy_count(self) -> int:
        """Total bikes below the service threshold."""
        return int(np.count_nonzero(self.charge_levels() < self.threshold))

    def _bike(self, bike_id: int) -> Bike:
        if not 0 <= bike_id < len(self.bikes):
            raise KeyError(f"unknown bike id {bike_id}")
        return self.bikes[bike_id]

    def _check_station(self, station: int) -> None:
        if not 0 <= station < len(self.stations):
            raise ValueError(f"station {station} out of range 0..{len(self.stations) - 1}")


def replay_trips_onto_fleet(
    fleet: Fleet,
    station_of_point,
    trips: Iterable,
) -> int:
    """Replay trip records through the fleet to evolve energy state.

    Args:
        fleet: the fleet to mutate.
        station_of_point: callable mapping a :class:`Point` to the nearest
            station index (e.g. built from a placement result).
        trips: iterable of :class:`~repro.datasets.trips.TripRecord`.

    Returns:
        Number of trips actually executed (trips from empty stations are
        skipped).
    """
    executed = 0
    for trip in trips:
        origin_station = station_of_point(trip.start)
        dest_station = station_of_point(trip.end)
        bike = fleet.pick_bike(origin_station)
        if bike is None:
            continue
        fleet.ride(bike.bike_id, dest_station, trip.distance)
        executed += 1
    return executed
