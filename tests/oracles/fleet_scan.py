"""Brute-force fleet queries: a full scan of every bike.

The plain O(fleet) form of :meth:`repro.energy.Fleet.bikes_at` and
:meth:`~repro.energy.Fleet.pick_bike`, which the fleet answers from its
per-station index instead.
"""


def bikes_at(fleet, station):
    """Bikes parked at ``station``, in fleet order."""
    return [b for b in fleet.bikes if b.station == station]


def pick_bike(fleet, station, prefer_low=False):
    """The rider's choice at ``station`` (highest charge, or the lowest
    low-energy bike when ``prefer_low``); ``None`` when there is none."""
    bikes = bikes_at(fleet, station)
    if not bikes:
        return None
    if prefer_low:
        low = [b for b in bikes if b.battery.level < fleet.threshold]
        if not low:
            return None
        return min(low, key=lambda b: (b.battery.level, b.bike_id))
    return max(bikes, key=lambda b: (b.battery.level, -b.bike_id))
