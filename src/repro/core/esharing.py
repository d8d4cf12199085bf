"""E-Sharing's online placement with deviation penalty (Algorithm 2).

The paper's Tier-1 contribution: an online algorithm anchored to the
offline near-optimal solution.  Per streaming request with destination
``i``:

1. measure the walking cost ``c_ij`` to the nearest existing parking ``j``;
2. open a new parking at ``i`` with probability
   ``min(g(i, j) * c_ij / f_i, 1)``, otherwise assign to ``j``;
3. every ``beta * k`` arrivals the opening cost doubles (so openings grow
   exponentially harder) and a Peacock 2-D KS test compares the live
   destination distribution against the historical one, switching the
   penalty function per the Section V-C thresholds.

Initialisation follows Algorithm 2 exactly: ``w* = min pairwise distance
in P / 2`` and the opening cost is scaled to ``f_i * w* / k`` — small at
first so early dynamics can be absorbed, prohibitive later.  The space
cost *charged* for an opened parking is the unscaled ``f_i``: the scaled
value only controls the opening probability.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..geo.points import Point
from ..serialize import rng_from_state, rng_to_state
from ..stats.ks2d import CachedKS2D, LiveWindow, ks2d_peacock
from .costs import DemandPoint, FacilityCostFn
from .penalty import (
    PENALTY_REGISTRY,
    SIMILAR_THRESHOLD,
    PenaltyFunction,
    TypeIIPenalty,
    select_penalty,
)
from .replay import NearestCache, UniformStream, checkpoint_schedule
from .result import PlacementResult
from .station_set import BACKENDS, StationSet
from .tripblock import TripBlock

__all__ = ["EsharingConfig", "EsharingDecision", "esharing_placement", "EsharingPlanner"]


@dataclass(frozen=True)
class EsharingConfig:
    """Knobs of Algorithm 2.

    Attributes:
        beta: opening-budget ratio; every ``beta * k`` arrivals the
            opening cost doubles and the KS test re-runs (``beta >= 1``).
        tolerance_m: penalty tolerance level ``L`` (paper uses 200 m).
        adaptive_tolerance: widen ``L`` when the live distribution
            diverges from history (Section III-D: "the system could
            increase L and fit such shift"), scale back when it returns.
        exact_ks: use the exact Peacock enumeration instead of the fast
            variant for the periodic test.
        history_window: cap on the samples (both the historical reference
            and the live window) used in the KS comparison; larger is
            more accurate but the test is quadratic in the sample size.
        initial_open_cost_m: the probability-control opening cost (metres)
            a *typical* location starts at.  ``None`` uses ``w*`` (half
            the minimum anchor spacing); see the calibration note in the
            class docstring.
        reset_on_shift: when the periodic KS test detects a *less
            similar* regime (below the Section V-C 80% threshold), reset
            the opening cost to its initial value so the system can
            re-adapt.  Without this, the exponential doubling eventually
            makes openings impossible and a late demand surge (the
            concert case of Section III-C) could never be absorbed.
        fixed_penalty: pin the penalty function to one type (a name from
            :data:`repro.core.penalty.PENALTY_REGISTRY`) instead of
            switching by KS similarity — the ablation of Section V-B.
        nn_backend: nearest-neighbour backend of the underlying
            :class:`~repro.core.station_set.StationSet` — ``"linear"``
            (reference O(k) scan) or ``"grid"`` (bucketed index,
            sub-linear per request at production station counts).
            Placement output is bit-identical across backends.
        nn_cell_size: grid-bucket side (metres) for the ``"grid"``
            backend; ``None`` uses the StationSet default.
    """

    beta: float = 1.5
    tolerance_m: float = 200.0
    adaptive_tolerance: bool = False
    exact_ks: bool = False
    history_window: int = 800
    initial_open_cost_m: Optional[float] = None
    reset_on_shift: bool = True
    fixed_penalty: Optional[str] = None
    nn_backend: str = "linear"
    nn_cell_size: Optional[float] = None

    def __post_init__(self) -> None:
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.tolerance_m <= 0:
            raise ValueError(f"tolerance_m must be positive, got {self.tolerance_m}")
        if self.history_window <= 0:
            raise ValueError(f"history_window must be positive, got {self.history_window}")
        if self.initial_open_cost_m is not None and self.initial_open_cost_m <= 0:
            raise ValueError(
                f"initial_open_cost_m must be positive, got {self.initial_open_cost_m}"
            )
        if self.fixed_penalty is not None:
            if self.fixed_penalty not in PENALTY_REGISTRY:
                raise ValueError(
                    f"unknown penalty {self.fixed_penalty!r}; "
                    f"choose from {sorted(PENALTY_REGISTRY)}"
                )
        if self.nn_backend not in BACKENDS:
            raise ValueError(
                f"unknown nn_backend {self.nn_backend!r}; choose from {BACKENDS}"
            )
        if self.nn_cell_size is not None and self.nn_cell_size <= 0:
            raise ValueError(
                f"nn_cell_size must be positive, got {self.nn_cell_size}"
            )


@dataclass(frozen=True)
class EsharingDecision:
    """Trace entry for one request.

    ``station_index`` is the *stable id* of the assigned (or newly
    opened) station in the planner's :class:`StationSet`: it survives
    later removals, and equals the position in ``planner.stations``
    whenever no station has been removed.
    """

    destination: Point
    station_index: int
    opened: bool
    walking_cost: float
    open_probability: float
    penalty_name: str


class EsharingPlanner:
    """Stateful Algorithm 2 — feed requests one at a time.

    Args:
        offline_stations: the anchor set ``P`` from Algorithm 1.
        facility_cost: unscaled opening cost ``f_i``.
        historical: ``(n, 2)`` destination sample the offline solution was
            computed from (the KS reference ``H``).
        rng: randomness for opening coin flips.
        config: algorithm parameters.

    Raises:
        ValueError: if the anchor set is empty.
    """

    def __init__(
        self,
        offline_stations: Sequence[Point],
        facility_cost: FacilityCostFn,
        historical: np.ndarray,
        rng: np.random.Generator,
        config: Optional[EsharingConfig] = None,
    ) -> None:
        offline_stations = list(offline_stations)
        if not offline_stations:
            raise ValueError("Algorithm 2 needs a non-empty offline anchor set")
        self.config = config or EsharingConfig()
        self.station_set = StationSet(
            offline_stations,
            backend=self.config.nn_backend,
            cell_size=self.config.nn_cell_size,
        )
        self.k = len(offline_stations)
        self._facility_cost = facility_cost
        self._historical = np.asarray(historical, dtype=float)
        if self._historical.ndim != 2 or self._historical.shape[1] != 2:
            raise ValueError("historical sample must be an (n, 2) array")
        window = self.config.history_window
        if self._historical.shape[0] > window:
            # Deterministic thinning keeps the KS test near-quadratic in
            # the window, not in the full history.
            idx = np.linspace(0, self._historical.shape[0] - 1, window).astype(int)
            self._historical = self._historical[idx]
        # The historical side of every periodic KS test is fixed for the
        # planner's lifetime — sort/rank it once instead of per checkpoint.
        self._ks_cache = CachedKS2D(self._historical)
        self._rng = rng
        # Line 3: w* = min pairwise distance / 2 (0 for a single anchor).
        # The StationSet maintains the minimum spacing incrementally as
        # anchors are loaded, replacing the O(k^2) matrix rebuild.
        if self.k >= 2:
            w_star = self.station_set.min_spacing() / 2.0
        else:
            w_star = self.config.tolerance_m
        # Line 4 rescales the opening cost so that it starts *small*
        # ("initially, the opening cost is small so the system is
        # encouraged to open new parking"), then doubles every beta*k
        # arrivals.  Calibration note: read literally, f_i * w*/k makes
        # the opening probability c/f astronomically small (f_i is ~10 km
        # while walking costs are ~10^2 m), which contradicts the quoted
        # design intent and never opens anything.  We therefore map the
        # *typical* unscaled f_i onto the anchor half-spacing w* —
        # preserving relative cost differences between locations — which
        # reproduces the Table V behaviour (E-Sharing opens ~1.5x the
        # offline count, fewer than Meyerson).  Override with
        # config.initial_open_cost_m for ablations.
        typical_f = float(np.mean([facility_cost(s) for s in self.stations]))
        initial = self.config.initial_open_cost_m
        if initial is None:
            initial = max(w_star, 1e-9)
        self._cost_scale = initial / max(typical_f, 1e-9)
        self._initial_cost_scale = self._cost_scale
        self._shift_absorbed = False
        self._removals = 0
        self._arrivals_since_check = 0
        # beta and k never change, so the checkpoint period is a constant.
        self._check_period = self.config.beta * self.k
        if self.config.fixed_penalty is not None:
            self.penalty: PenaltyFunction = PENALTY_REGISTRY[self.config.fixed_penalty](
                self.config.tolerance_m
            )
        else:
            self.penalty = TypeIIPenalty(tolerance=self.config.tolerance_m)
        self._live = LiveWindow(window)
        self.decisions: List[EsharingDecision] = []
        self.walking = 0.0
        self.space = float(sum(facility_cost(s) for s in self.stations))
        self.online_opened: List[int] = []
        self.similarity_history: List[float] = []
        self.ks_seconds = 0.0

    @property
    def stations(self) -> List[Point]:
        """Locations of the active stations, in ascending-id order."""
        return self.station_set.locations()

    # ------------------------------------------------------------------
    def offer(self, destination: Point) -> EsharingDecision:
        """Process one request (lines 5-11 of Algorithm 2)."""
        idx, c_ij = self.station_set.nearest(destination)
        scaled_f = self._facility_cost(destination) * self._cost_scale
        g = self.penalty.value(c_ij)
        prob = 1.0 if scaled_f <= 0 else min(g * c_ij / scaled_f, 1.0)
        opened = bool(self._rng.uniform() < prob) and c_ij > 0
        if opened:
            station_index = self.station_set.add(destination)
            self.online_opened.append(station_index)
            self.space += self._facility_cost(destination)
            walking_cost = 0.0
        else:
            station_index = idx
            walking_cost = c_ij
            self.walking += c_ij
        self._arrivals_since_check += 1
        self._live.push(destination.x, destination.y)
        if self._arrivals_since_check >= self._check_period:
            self._periodic_check()
        decision = EsharingDecision(
            destination=destination,
            station_index=station_index,
            opened=opened,
            walking_cost=walking_cost,
            open_probability=prob,
            penalty_name=self.penalty.name,
        )
        self.decisions.append(decision)
        return decision

    def replay(self, stream: Sequence[Point]) -> List[EsharingDecision]:
        """Process a whole request stream through the batched fast path.

        Bit-identical to calling :meth:`offer` once per element, and
        interleaves freely with per-call offers: it carries in the
        current checkpoint counter, cost scale and live window, and
        leaves the planner in exactly the state the per-call loop would.
        The speedup comes from replacing the per-arrival
        ``StationSet.nearest`` scan with a :class:`NearestCache`
        (vectorized upfront, patched incrementally per opening), fetching
        the per-arrival RNG draws in blocks, and precomputing the
        doubling-checkpoint schedule instead of testing a counter per
        arrival.  Decision distances are recomputed with the scalar
        ``Point.distance_to`` so probabilities and walking sums match the
        per-call path bit for bit (see ``core/replay.py``).

        ``stream`` may also be a :class:`~repro.core.tripblock.TripBlock`
        — its trip *end* coordinates are the request destinations, and
        the cache is seeded straight from the columnar arrays without
        materialising per-point objects.
        """
        if isinstance(stream, TripBlock):
            n = len(stream)
            if n == 0:
                return []
            store = self.station_set
            cache = NearestCache(
                (stream.end_x, stream.end_y), store.ids(), store.locations()
            )
            ex = stream.end_x.tolist()
            ey = stream.end_y.tolist()
            destinations = [Point(ex[t], ey[t]) for t in range(n)]
        else:
            destinations = list(stream)
            n = len(destinations)
            if n == 0:
                return []
            store = self.station_set
            cache = NearestCache(destinations, store.ids(), store.locations())
        uniforms = UniformStream(self._rng, n)
        fires = checkpoint_schedule(self._arrivals_since_check, n, self._check_period)
        fire_iter = iter(fires)
        next_fire = next(fire_iter, -1)
        facility_cost = self._facility_cost
        out: List[EsharingDecision] = []
        # Hot-loop locals.  cost_scale and the penalty only change inside
        # _periodic_check, so they are re-read right after each fire; the
        # rest are invariant method/bound lookups hoisted out of the loop.
        cost_scale = self._cost_scale
        penalty_value = self.penalty.value
        penalty_name = self.penalty.name
        live_push = self._live.push
        rng_next = uniforms.next
        store_location = store.location
        trace = self.decisions.append
        emit = out.append
        for t, dest in enumerate(destinations):
            sid = int(cache.best_id[t])
            c_ij = dest.distance_to(store_location(sid))
            scaled_f = facility_cost(dest) * cost_scale
            g = penalty_value(c_ij)
            prob = 1.0 if scaled_f <= 0 else min(g * c_ij / scaled_f, 1.0)
            opened = bool(rng_next() < prob) and c_ij > 0
            if opened:
                station_index = store.add(dest)
                self.online_opened.append(station_index)
                self.space += facility_cost(dest)
                walking_cost = 0.0
                cache.open(t, dest, station_index)
            else:
                station_index = sid
                walking_cost = c_ij
                self.walking += c_ij
            live_push(dest.x, dest.y)
            if t == next_fire:
                self._periodic_check()
                next_fire = next(fire_iter, -1)
                cost_scale = self._cost_scale
                penalty_value = self.penalty.value
                penalty_name = self.penalty.name
            decision = EsharingDecision(
                destination=dest,
                station_index=station_index,
                opened=opened,
                walking_cost=walking_cost,
                open_probability=prob,
                penalty_name=penalty_name,
            )
            trace(decision)
            emit(decision)
        # Restore the per-call counter contract for any later offer().
        if fires:
            self._arrivals_since_check = n - 1 - fires[-1]
        else:
            self._arrivals_since_check += n
        return out

    def remove_station(self, station_index: int) -> None:
        """Footnote 2: a station emptied of E-bikes leaves ``P``.

        ``station_index`` is the station's stable id.  The location may
        be re-opened by a later request (under a fresh id).  Space cost
        already paid is not refunded.

        Raises:
            IndexError: on an unknown or already-removed id.
        """
        if station_index not in self.station_set:
            raise IndexError(f"no active station with id {station_index}")
        self.station_set.remove(station_index)
        # Ids are stable, so surviving entries need no re-numbering.
        self.online_opened = [i for i in self.online_opened if i != station_index]
        self._removals += 1

    # ------------------------------------------------------------------
    def _periodic_check(self) -> None:
        """Lines 7-10: double the opening cost, re-test, switch penalty."""
        start = time.perf_counter()
        try:
            self._check()
        finally:
            self.ks_seconds += time.perf_counter() - start

    def _check(self) -> None:
        self._arrivals_since_check = 0
        self._cost_scale *= 2.0
        if len(self._live) < 5:
            return
        live = self._live.array()
        if self.config.exact_ks:
            result = ks2d_peacock(self._historical, live)
        else:
            result = self._ks_cache.test(live)
        similarity = result.similarity
        self.similarity_history.append(similarity)
        tolerance = self.config.tolerance_m
        if self.config.adaptive_tolerance:
            # Widen L proportionally to the measured divergence D.
            tolerance = self.config.tolerance_m * (1.0 + 2.0 * result.statistic)
        if self.config.fixed_penalty is None:
            self.penalty = select_penalty(similarity, tolerance=tolerance)
        elif tolerance != self.penalty.tolerance:
            self.penalty = self.penalty.with_tolerance(tolerance)
        if similarity >= SIMILAR_THRESHOLD:
            # Back in a known regime: re-arm the shift latch.
            self._shift_absorbed = False
        elif (
            self.config.reset_on_shift
            and not self._shift_absorbed
            and result.p_value < 0.05
        ):
            # A statistically significant regime shift re-opens the
            # budget once: without this the exponential doubling would
            # forbid stations at a surge arriving late in the stream.
            # The latch keeps the budget bounded during a sustained
            # shift (normal doubling resumes until similarity recovers),
            # and the significance gate filters the noisy similarity
            # readings that small live windows produce.
            self._cost_scale = self._initial_cost_scale
            self._shift_absorbed = True

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state for bit-identical crash recovery.

        Captures everything :meth:`offer` reads or writes — the station
        store, cost scale and doubling counter, penalty type and
        tolerance, KS live window, shift latch, and the RNG bit stream —
        so a planner rebuilt by :meth:`from_state` continues the run with
        the exact coin flips and checkpoint schedule the original would
        have used.  The opening-cost *function* is not serialisable (it
        is an arbitrary callable) and must be passed to
        :meth:`from_state` again.

        The in-memory decision trace is not captured: the state is
        O(live state), not O(arrivals), and a restored planner's
        :attr:`decisions` (hence :meth:`result`) covers only the
        decisions made after the restore.
        """
        return {
            "config": asdict(self.config),
            "k": self.k,
            "station_set": self.station_set.state_dict(),
            "historical": self._historical.tolist(),
            "cost_scale": self._cost_scale,
            "initial_cost_scale": self._initial_cost_scale,
            "shift_absorbed": self._shift_absorbed,
            "removals": self._removals,
            "arrivals_since_check": self._arrivals_since_check,
            "penalty": {"name": self.penalty.name, "tolerance": self.penalty.tolerance},
            "live": self._live.state_dict(),
            "rng": rng_to_state(self._rng),
            "walking": self.walking,
            "space": self.space,
            "online_opened": list(self.online_opened),
            "similarity_history": list(self.similarity_history),
            "ks_seconds": self.ks_seconds,
        }

    @classmethod
    def from_state(
        cls, state: dict, facility_cost: FacilityCostFn
    ) -> "EsharingPlanner":
        """Rebuild a planner from :meth:`state_dict` output.

        ``facility_cost`` must be the same *deterministic* function the
        original planner ran with — memoised random costs (e.g.
        :func:`~repro.core.costs.uniform_facility_cost` with a fresh RNG)
        would break bit identity for locations not yet drawn.

        Raises:
            KeyError: on a missing field or unknown penalty name.
            ValueError: on malformed nested state.
        """
        planner = cls.__new__(cls)
        planner.config = EsharingConfig(**state["config"])
        planner.station_set = StationSet.from_state(state["station_set"])
        planner.k = int(state["k"])
        planner._facility_cost = facility_cost
        planner._historical = np.asarray(state["historical"], dtype=float).reshape(-1, 2)
        planner._ks_cache = CachedKS2D(planner._historical)
        planner._rng = rng_from_state(state["rng"])
        planner._cost_scale = float(state["cost_scale"])
        planner._initial_cost_scale = float(state["initial_cost_scale"])
        planner._shift_absorbed = bool(state["shift_absorbed"])
        planner._removals = int(state["removals"])
        planner._arrivals_since_check = int(state["arrivals_since_check"])
        planner._check_period = planner.config.beta * planner.k
        penalty = state["penalty"]
        planner.penalty = PENALTY_REGISTRY[penalty["name"]](penalty["tolerance"])
        planner._live = LiveWindow.from_state(state["live"])
        planner.decisions = []
        planner.walking = float(state["walking"])
        planner.space = float(state["space"])
        planner.online_opened = [int(i) for i in state["online_opened"]]
        planner.similarity_history = [float(s) for s in state["similarity_history"]]
        planner.ks_seconds = float(state["ks_seconds"])
        return planner

    # ------------------------------------------------------------------
    def result(self) -> PlacementResult:
        """Snapshot of the run as a :class:`PlacementResult`.

        Raises:
            RuntimeError: if stations were removed during the run — the
                dense station list of a :class:`PlacementResult` cannot
                express retired ids.  Use
                :class:`~repro.core.streaming.PlacementService`, which
                reports through the stable ids directly.
        """
        if self._removals:
            raise RuntimeError(
                f"{self._removals} station(s) were removed; decision indices "
                "are stale — use PlacementService for id-stable accounting"
            )
        return PlacementResult(
            stations=self.stations,
            assignment=[d.station_index for d in self.decisions],
            walking=self.walking,
            space=self.space,
            demands=[DemandPoint(d.destination) for d in self.decisions],
            online_opened=list(self.online_opened),
        )


def esharing_placement(
    stream: Sequence[Point],
    offline_stations: Sequence[Point],
    facility_cost: FacilityCostFn,
    historical: np.ndarray,
    rng: np.random.Generator,
    config: Optional[EsharingConfig] = None,
    batched: bool = False,
) -> PlacementResult:
    """Run Algorithm 2 over a full request stream (batch convenience).

    ``batched=True`` routes through :meth:`EsharingPlanner.replay` —
    bit-identical placements, several times faster on long streams.
    """
    planner = EsharingPlanner(offline_stations, facility_cost, historical, rng, config)
    if batched:
        planner.replay(stream)
    else:
        for dest in stream:
            planner.offer(dest)
    return planner.result()
