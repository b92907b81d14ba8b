"""Deterministic discrete traffic microsimulator.

Time advances in 1-second ticks grouped into fixed action intervals
(20 s by default). Per tick, in order: vehicles at the head of boundary
exit links leave the network, permitted head-of-lane vehicles cross
intersections (at most ``pass_capacity`` per lane per interval), every
other vehicle advances one grid toward the intersection when the grid
ahead has room, and scheduled vehicles enter at their origin grid when it
has room (deferred tick by tick otherwise, so no vehicle is ever lost).

Commanded phases are held for the whole interval. ``step`` only advances
the simulation and returns the interval's metrics. Observations and states
are built when a caller reads them (``observe_all``, ``snapshot`` or the
per-node queries), so an episode whose controller reads neither builds
none. Everything is a pure function of (network, flows, action trace):
nothing is random, and the seed is only recorded on the handle. Lane
state is plain Python ints and containers; numpy appears only in the
arrays the queries return and in the int64 bytes ``digest()`` hashes. A
handle is single-threaded; run independent handles for parallelism.

Each step of a tick costs in proportion to the lanes that can act, not to
the lanes or vehicles on the network:

* Exits. Every exit-lane grid 0 drains on every tick, so nothing blocks
  in an exit lane: a vehicle that crosses into one on tick t sits at grid
  ``top - (T - t)`` after tick T and leaves on tick ``t + lane_grids``.
  Exit lanes are therefore conveyors. The exit step pops the due vehicles
  from one FIFO in crossing order, the top grid's load is read from the
  crossing ticks, and the lanes' grids and occupancy are written back at
  each interval's end, where the queries read them.
* Crossings. A node-major bitmask marks the approach lanes whose head is
  at the stop line with pass capacity left; the crossing step walks its
  bits that the interval's phases permit, lowest first, which is the
  node, approach and movement order.
* Advances. An approach lane is a conveyor up to its queue. A vehicle
  that reaches the top grid on tick t is free: it sits at grid
  ``top - (T - t)`` after tick T until it comes within one grid of the
  lane's last walked vehicle. A per-tick calendar lists when each lane's
  first free vehicle could get there; it then joins the walked part, the
  front of the lane and the only part the advance step walks. A free
  vehicle's moves, segment samples and mid passes are ranges of grids,
  added when it joins and at each interval's end, where its grid and the
  lane's occupancy are written back. A walked part whose last walk moved
  nothing (and that no vehicle has left or joined since) is settled: it
  leaves the walk, and adds its segment samples when it wakes or the
  interval ends. A lane's vehicles are in grid order, first in first out
  within a grid, so the walk jumps past a whole grid once one of its
  vehicles is blocked, and each lane keeps its segment counts as vehicles
  move, so the samples and the stationary count need no rescan.
* Entries. The entry step scans the scenario's entry lanes, a few per
  city, and takes each one's due vehicles from the front of its own
  queue, which a reset sorts by scheduled tick; a due vehicle waits there
  while its origin grid is full.

``validate=True`` checks all of this bookkeeping against recounts on
every tick.
"""

from __future__ import annotations

import hashlib
import pickle
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate, chain, islice, product

import numpy as np

from ..errors import ConfigurationError
from .network import (
    APPROACHES,
    HEADING_DELTA,
    HEADING_OF_APPROACH,
    MOVEMENTS,
    OPPOSITE,
    PHASE_IDS,
    SCHEMA_DIMS,
    TURN,
    Flow,
    Observation,
    RoadNetwork,
    permits,
    trace_route,
)


@dataclass(frozen=True)
class MetricsReport:
    """Average travel time (s) and average per-lane queue length."""

    avg_travel_time_s: float
    avg_queue_length: float


class _Vehicle:
    __slots__ = ("vid", "sched_s", "enter_s", "exit_s", "route", "route_pos",
                 "grid", "moved_tick")

    def __init__(self, vid: int, sched_s: int, route: tuple[int, ...]):
        self.vid = vid
        self.sched_s = sched_s
        self.enter_s = -1
        self.exit_s = -1
        self.route = route  # movement indices, one per intersection crossed
        self.route_pos = 0
        self.grid = -1
        # tick of its last move. A conveyed vehicle (free in an approach
        # lane, or in an exit lane) sits at grid - (T - moved_tick) after
        # tick T: the pair is its anchor, written back at interval ends.
        self.moved_tick = -1


class _Lane:
    __slots__ = ("occ", "vehs", "walked", "pending", "bit", "crossings",
                 "mid_passes", "seg_count", "seg_moves", "seg_samples",
                 "stationary", "last_crossings", "last_mid_passes",
                 "last_seg_speed")

    def __init__(self, length: int):
        # vehicles per grid; a free vehicle counts at its anchor grid
        self.occ = [0] * length
        self.vehs: deque[_Vehicle] = deque()
        # the first ``walked`` vehicles are walked by the advance step; the
        # rest are free (approach lanes only, see _tick)
        self.walked = 0
        self.pending: deque[_Vehicle] = deque()
        self.bit = 0  # an approach lane's bit in the stop-line masks
        self.crossings = 0
        self.mid_passes = 0
        self.seg_count = [0, 0]  # walked vehicles now in segments 0 and 1
        self.seg_moves = [0, 0]
        self.seg_samples = [0, 0]
        self.stationary = 0
        self.last_crossings = 0
        self.last_mid_passes = 0
        self.last_seg_speed = (0.0, 0.0)


class _Link:
    __slots__ = ("node", "lanes")

    def __init__(self, node, n_lanes, length):
        self.node = node  # node the link enters (None for exits)
        self.lanes = [_Lane(length) for _ in range(n_lanes)]


def _observation_rows(lanes: list[_Lane], schema: str):
    """The lanes' observation values, row after row, as one flat iterable."""
    counts = map(len, (lane.vehs for lane in lanes))
    if schema == "BASE":
        return counts
    if schema == "SCHEMA_A":
        return chain.from_iterable(
            zip(counts, (lane.last_crossings for lane in lanes)))
    if schema == "SCHEMA_B":
        return chain.from_iterable(
            zip(counts, (lane.last_mid_passes for lane in lanes)))
    return chain.from_iterable(
        (c, *lane.last_seg_speed) for c, lane in zip(counts, lanes))


class Sim:
    """Simulation handle; build one with :func:`reset`."""

    def __init__(self, network: RoadNetwork, flows: list[Flow], seed: int,
                 schema: str = "BASE", validate: bool = False):
        if schema not in SCHEMA_DIMS:
            raise ConfigurationError(f"unknown observation schema {schema!r}")
        self.network = network
        self.flows = list(flows)
        self.seed = int(seed)
        self.schema = schema
        self.validate = validate

        self.clock = 0
        self.entered = 0
        self.exited = 0
        self._travel_sum_exited = 0.0
        self._queue_mean_sum = 0.0
        self._intervals = 0
        # approach lanes with walked vehicles: those the advance step walks,
        # and the settled ones, each with the first tick whose segment
        # samples it has not added yet
        self._active: dict[_Lane, None] = {}
        self._settled: dict[_Lane, int] = {}
        # per tick, the approach lanes whose first free vehicle may come
        # within one grid of the walked tail at its start
        self._meets: defaultdict[int, list[_Lane]] = defaultdict(list)
        # per lane, the segment samples recounted so far this interval
        # (validate=True)
        self._tally: dict[_Lane, list[int]] = {}
        self._ready = 0  # stop-line mask: head at grid 0, pass capacity left
        self._exits: deque[tuple[_Vehicle, _Lane]] = deque()  # crossing order
        self._exit_shown: dict[_Lane, list[int]] = {}  # occ written nonzero
        # every lane's state-window sum, built on the first movement_queues
        # read at the stamped clock
        self._window: dict[_Lane, int] = {}
        self._window_clock = -1

        self.nodes = network.nodes
        self._build_topology()
        self._schedule_flows()

    # -- construction -----------------------------------------------------

    def _build_topology(self):
        net = self.network
        length = net.lane_grids
        n_lanes = net.lanes_per_approach
        self.in_links: dict[tuple[tuple[int, int], str], _Link] = {}
        self.exit_links: dict[tuple[tuple[int, int], str], _Link] = {}
        for node in self.nodes:
            for side in APPROACHES:
                self.in_links[(node, side)] = _Link(node, n_lanes, length)
            for heading in APPROACHES:  # headings share the compass names
                dr, dc = HEADING_DELTA[heading]
                nxt = (node[0] + dr, node[1] + dc)
                if not net.on_grid(nxt):
                    self.exit_links[(node, heading)] = _Link(None, n_lanes,
                                                             length)

        self._approach_lane_map = {
            node: [self.in_links[(node, side)].lanes[m]
                   for side in APPROACHES for m in range(n_lanes)]
            for node in self.nodes
        }
        # Per node: ((approach, movement), approach lane, receiving link) in
        # approach-then-movement order. Approach lane k in node-major order
        # owns bit k of the stop-line masks; _stop_lanes[k] is its (lane,
        # receiving lanes, route offset of the receiving lane's index: 0
        # into an exit link, 1 into an approach), and _phase_bits[node][phase]
        # the bits of the node's lanes the phase permits.
        self._movements = {}
        self._stop_lanes = []
        self._phase_bits = {}
        for node in self.nodes:
            moves = []
            for (approach, movement), lane in zip(
                    product(APPROACHES, MOVEMENTS),
                    self._approach_lane_map[node]):
                heading = TURN[HEADING_OF_APPROACH[approach]][movement]
                dr, dc = HEADING_DELTA[heading]
                nxt = (node[0] + dr, node[1] + dc)
                dlink = (self.in_links[(nxt, OPPOSITE[heading])]
                         if net.on_grid(nxt)
                         else self.exit_links[(node, heading)])
                lane.bit = 1 << len(self._stop_lanes)
                self._stop_lanes.append(
                    (lane, dlink.lanes, int(dlink.node is not None)))
                moves.append(((approach, movement), lane, dlink))
            self._movements[node] = moves
            self._phase_bits[node] = {
                phase: sum(lane.bit for (approach, movement), lane, _ in moves
                           if permits(phase, approach, movement))
                for phase in PHASE_IDS}
        self._all_links = (
            [self.in_links[(node, side)] for node in self.nodes
             for side in APPROACHES]
            + [self.exit_links[k] for k in sorted(self.exit_links)]
        )
        self._all_lanes = [ln for link in self._all_links for ln in link.lanes]
        self._approach_lanes = [lane for lane, _, _ in self._stop_lanes]
        self._n_approach_lanes = len(self._approach_lanes)
        # per grid g, the mid passes and segment-0 and segment-1 moves of a
        # vehicle entering grids 0..g-1: a free run from grid a down to
        # grid g counts runs[k][a] - runs[k][g] of each
        mid, third1, third2 = length // 2, length // 3, 2 * (length // 3)
        self._runs = tuple(
            list(accumulate((test(g) for g in range(length)), initial=0))
            for test in (lambda g: g == mid - 1, lambda g: g < third1,
                         lambda g: third1 <= g < third2))

    def _schedule_flows(self):
        self.vehicles: list[_Vehicle] = []
        per_lane: dict[_Lane, list[_Vehicle]] = {}
        vid = 0
        for flow in self.flows:
            node = trace_route(self.network, flow)[0]  # raises when invalid
            entry = self.in_links[(node, flow.origin[0])]
            route_idx = tuple(MOVEMENTS.index(m) for m in flow.route)
            queue = per_lane.setdefault(entry.lanes[route_idx[0]], [])
            for sched in flow.schedule():
                v = _Vehicle(vid, sched, route_idx)
                vid += 1
                self.vehicles.append(v)
                queue.append(v)
        for lane, vs in per_lane.items():
            vs.sort(key=lambda v: (v.sched_s, v.vid))
            lane.pending = deque(vs)
        self._entry_lanes = list(per_lane)

    # -- queries -----------------------------------------------------------

    @property
    def vehicles_on_network(self) -> int:
        return self.entered - self.exited

    @staticmethod
    def _of_node(table: dict, node):
        try:
            return table[node]
        except KeyError:
            raise KeyError(f"unknown intersection {node!r}") from None

    def _node_lanes(self, node) -> list[_Lane]:
        return self._of_node(self._approach_lane_map, node)

    def _states(self, lanes: list[_Lane]) -> np.ndarray:
        """Occupancy of the first state_grids cells of each lane, as uint8:
        a count never exceeds ``grid_capacity``, which ``RoadNetwork``
        holds to 255."""
        n = self.network.state_grids
        return np.fromiter(chain.from_iterable(lane.occ[:n] for lane in lanes),
                           np.uint8, len(lanes) * n).reshape(len(lanes), n)

    def _observations(self, lanes: list[_Lane], schema: str) -> np.ndarray:
        dims = SCHEMA_DIMS[schema]
        return np.fromiter(_observation_rows(lanes, schema), np.float64,
                           len(lanes) * dims).reshape(len(lanes), dims)

    def extract_state(self, node) -> np.ndarray:
        """Ground-truth occupancy of the first state_grids cells per lane."""
        return self._states(self._node_lanes(node))

    def observe(self, node, schema: str | None = None) -> Observation:
        schema = self.schema if schema is None else schema
        if schema not in SCHEMA_DIMS:
            raise ConfigurationError(f"unknown observation schema {schema!r}")
        return Observation(schema,
                           self._observations(self._node_lanes(node), schema))

    def waiting_counts(self, node) -> np.ndarray:
        """Per-lane count of vehicles that did not move on the most recent
        completed tick of an interval."""
        return np.array([lane.stationary for lane in self._node_lanes(node)],
                        dtype=np.int64)

    def movement_queues(self, node) -> dict[tuple[str, str], tuple[float, float]]:
        """(upstream, downstream) queue sizes per movement.

        Upstream is the approach lane's occupancy over the state window;
        downstream is the mean occupancy of the receiving link's lanes over
        the same window: the exact integer sum over the lane count, which
        is the correctly rounded mean. The first read after a step sums
        every lane's window once for all nodes.
        """
        moves = self._of_node(self._movements, node)
        if self._window_clock != self.clock:
            n = self.network.state_grids
            self._window = {lane: sum(lane.occ[:n])
                            for lane in self._all_lanes}
            self._window_clock = self.clock
        window = self._window
        down = {}
        out = {}
        for key, lane, dlink in moves:
            if dlink not in down:
                down[dlink] = (sum([window[ln] for ln in dlink.lanes])
                               / len(dlink.lanes))
            out[key] = (float(window[lane]), down[dlink])
        return out

    def _per_node(self, values: np.ndarray) -> dict:
        """Node-major approach-lane rows, split into one block per node."""
        per_node = self.network.lanes_per_intersection
        return {node: values[i * per_node:(i + 1) * per_node]
                for i, node in enumerate(self.nodes)}

    def observe_all(self) -> dict:
        """Every intersection's current observation, from one pass over the
        approach lanes; equal to ``observe`` node by node."""
        values = self._observations(self._approach_lanes, self.schema)
        return {node: Observation(self.schema, rows)
                for node, rows in self._per_node(values).items()}

    def snapshot(self):
        """Current per-intersection observations (``observe_all``) and
        states without stepping, equal to ``observe`` and ``extract_state``
        node by node."""
        return (self.observe_all(),
                self._per_node(self._states(self._approach_lanes)))

    def metrics(self) -> MetricsReport:
        """Cumulative metrics; vehicles still on the network contribute
        (clock - enter_s) to travel time."""
        if self.entered == 0:
            travel = 0.0
        else:
            on_net = sum(self.clock - v.enter_s for v in self.vehicles
                         if v.enter_s >= 0 and v.exit_s < 0)
            travel = (self._travel_sum_exited + on_net) / self.entered
        queue = (self._queue_mean_sum / self._intervals
                 if self._intervals else 0.0)
        return MetricsReport(travel, queue)

    def digest(self) -> str:
        """Hash of the full dynamic state, for determinism checks."""
        h = hashlib.sha256()
        h.update(repr((self.clock, self.entered, self.exited,
                       self._travel_sum_exited, self._queue_mean_sum,
                       self._intervals)).encode())
        for link in self._all_links:
            for lane in link.lanes:
                h.update(np.array(lane.occ, dtype=np.int64).tobytes())
                h.update(repr([(v.vid, v.grid, v.route_pos) for v in lane.vehs])
                         .encode())
                h.update(repr((lane.crossings, lane.mid_passes,
                               lane.last_crossings, lane.last_mid_passes,
                               lane.last_seg_speed, lane.stationary,
                               len(lane.pending))).encode())
        for v in self.vehicles:
            h.update(repr((v.vid, v.enter_s, v.exit_s)).encode())
        return h.hexdigest()

    def clone(self) -> Sim:
        """An independent copy of the simulation, by pickle round trip."""
        return pickle.loads(pickle.dumps(self, pickle.HIGHEST_PROTOCOL))

    # -- dynamics ----------------------------------------------------------

    def step(self, actions, interval_s: int = 20) -> MetricsReport:
        """Advance one action interval holding the commanded phases.

        Returns the interval's ``MetricsReport``: the mean travel time of
        the vehicles that left during it and its mean queue length. It
        builds no observations or states; read them afterwards with
        ``snapshot``, ``observe_all`` or the per-node queries.
        """
        if interval_s < 1:
            raise ConfigurationError(f"interval_s must be >= 1, got {interval_s}")
        permit = 0
        for node in self.nodes:
            if node not in actions:
                raise ConfigurationError(f"missing action for intersection {node}")
            a = int(actions[node])
            if a not in PHASE_IDS:
                raise ConfigurationError(f"phase id {a} outside [1, 8]")
            permit |= self._phase_bits[node][a]
        if len(actions) != len(self.nodes):
            raise ConfigurationError("one action per intersection required")

        ready = 0  # every lane regains its pass capacity
        for lane in self._approach_lanes:
            lane.crossings = 0
            lane.mid_passes = 0
            lane.seg_moves[0] = lane.seg_moves[1] = 0
            lane.seg_samples[0] = lane.seg_samples[1] = 0
            if lane.vehs and lane.vehs[0].grid == 0:
                ready |= lane.bit
        self._ready = ready

        exited_before = self.exited
        travel_before = self._travel_sum_exited
        for k in range(interval_s):
            self._tick(permit, last=(k == interval_s - 1))

        stationary_total = 0
        for lane in self._approach_lanes:
            lane.last_crossings = lane.crossings
            lane.last_mid_passes = lane.mid_passes
            (m0, m1), (s0, s1) = lane.seg_moves, lane.seg_samples
            lane.last_seg_speed = (m0 / s0 if s0 else 0.0,
                                   m1 / s1 if s1 else 0.0)
            stationary_total += lane.stationary
        queue_mean = stationary_total / self._n_approach_lanes
        self._queue_mean_sum += queue_mean
        self._intervals += 1

        n_exited = self.exited - exited_before
        travel = ((self._travel_sum_exited - travel_before) / n_exited
                  if n_exited else 0.0)
        return MetricsReport(travel, queue_mean)

    def _tick(self, permit: int, last: bool):
        net = self.network
        cap = net.grid_capacity
        n_cross = net.pass_capacity
        length = net.lane_grids
        top = length - 1
        mid = length // 2
        third1 = length // 3
        third2 = 2 * (length // 3)
        t = self.clock
        stamp = t + 1
        active = self._active
        settled = self._settled
        meets = self._meets
        wake = self._wake
        admit = self._admit
        ready = self._ready
        exits = self._exits

        # 1. boundary exits: the vehicles that crossed into an exit lane
        # lane_grids ticks ago have reached grid 0
        due = t - length
        while exits and exits[0][0].moved_tick == due:
            v, lane = exits.popleft()
            lane.vehs.popleft()
            v.exit_s = stamp
            self.exited += 1
            self._travel_sum_exited += stamp - v.enter_s

        # 2. on the lanes the meeting calendar lists for this tick, free
        # vehicles within one grid of the walked tail join the walked part
        for lane in meets.pop(t, ()):
            self._join(lane, t)

        # 3. intersection crossings, lane by lane in mask-bit order. An exit
        # lane's top grid holds the vehicles that crossed in on this tick
        # and the one before (those of that tick have left already when the
        # lane is one grid long). With one grid per lane a crossing vehicle
        # reaches the next stop line at once, and crosses again on this
        # tick if that lane's node comes later.
        pass_mask = ready & permit
        while pass_mask:
            low = pass_mask & -pass_mask
            pass_mask ^= low
            lane, dlanes, offset = self._stop_lanes[low.bit_length() - 1]
            vehs = lane.vehs
            while True:  # its bit says: head at grid 0, pass capacity left
                v = vehs[0]
                dest = dlanes[v.route[v.route_pos + offset]]
                # full when its cap-th newest vehicle is in the top grid:
                # walked, or conveyed and in since the last tick (an exit
                # lane walks none)
                k = len(dest.vehs) - cap
                if k >= 0:
                    last_in = dest.vehs[k]
                    if last_in.grid == top and (
                            k < dest.walked or last_in.moved_tick >= t - 1):
                        break
                vehs.popleft()
                if lane in settled:
                    wake(lane, t)
                lane.walked -= 1
                lane.occ[0] -= 1
                if third1:
                    lane.seg_count[0] -= 1
                lane.crossings += 1
                v.grid = top
                v.route_pos += 1
                v.moved_tick = t
                if not offset:
                    dest.vehs.append(v)
                    exits.append((v, dest))
                elif (admit(dest, v, t, t) and not top
                      and dest.crossings < n_cross):
                    ready |= dest.bit
                    if dest.bit > low:
                        pass_mask |= dest.bit & permit
                if not lane.walked:
                    del active[lane]
                if (not lane.walked or vehs[0].grid
                        or lane.crossings == n_cross):
                    ready ^= low
                    break

        # 4. in-lane advances on the walked parts of approach lanes, with
        # per-tick stats: a segment's samples are its vehicles after the
        # advance, and the stationary ones are those that neither advanced
        # nor arrived (no free vehicle is either). A lane's vehicles are in
        # grid order, first in first out within a grid, so once one is
        # blocked (at grid 0, or the grid ahead full) so is every vehicle
        # left in its grid: the walk jumps past them. Whether a vehicle is
        # blocked depends only on the walked part of its own lane, so a
        # part whose walk moved nothing settles until a vehicle leaves or
        # joins it, and the lane order is free.
        if last:
            for lane in self._approach_lanes:
                lane.stationary = 0
            for lane, since in settled.items():
                lane.seg_samples[0] += lane.seg_count[0] * (stamp - since)
                lane.seg_samples[1] += lane.seg_count[1] * (stamp - since)
                lane.stationary = lane.walked
                settled[lane] = stamp
        calm = []
        for lane in active:
            vehs = lane.vehs
            seg_count = lane.seg_count
            n = lane.walked
            occ = lane.occ
            seg_moves = lane.seg_moves
            if last:
                # the walked vehicles that crossed in on this tick, at its tail
                arrived = 0
                while arrived < n and vehs[n - 1 - arrived].moved_tick == t:
                    arrived += 1
            advanced = 0
            passed_arrival = False
            i = 0
            while i < n:
                v = vehs[i]
                g = v.grid
                if g == 0 or occ[g - 1] >= cap:
                    i += occ[g]
                    continue
                i += 1
                if v.moved_tick == t:  # crossed in on this tick
                    passed_arrival = True
                    continue
                occ[g] -= 1
                g -= 1
                occ[g] += 1
                v.grid = g
                v.moved_tick = t
                advanced += 1
                if not g and lane.crossings < n_cross:
                    ready |= lane.bit
                if g == mid - 1:
                    lane.mid_passes += 1
                if g < third1:
                    seg_moves[0] += 1
                    if g == third1 - 1:
                        seg_count[0] += 1
                        seg_count[1] -= 1
                elif g < third2:
                    seg_moves[1] += 1
                    if g == third2 - 1:
                        seg_count[1] += 1
            if not advanced and not passed_arrival:
                calm.append(lane)
            lane.seg_samples[0] += seg_count[0]
            lane.seg_samples[1] += seg_count[1]
            if last:
                lane.stationary = n - advanced - arrived
        for lane in calm:
            del active[lane]
            settled[lane] = stamp

        # 5. scheduled entries: each entry lane's due vehicles, in schedule
        # order, while its origin grid has room
        for lane in self._entry_lanes:
            pending = lane.pending
            vehs = lane.vehs
            while pending and pending[0].sched_s <= t:
                # full when its cap-th newest vehicle is in the top grid:
                # walked, or free and in since this tick
                k = len(vehs) - cap
                if k >= 0:
                    last_in = vehs[k]
                    if last_in.grid == top and (k < lane.walked
                                                or last_in.moved_tick == t):
                        break
                v = pending.popleft()
                v.enter_s = stamp
                v.grid = top
                v.moved_tick = t
                self.entered += 1
                if (admit(lane, v, t, stamp) and not top
                        and lane.crossings < n_cross):
                    ready |= lane.bit

        self._ready = ready
        self.clock = stamp
        if last:
            # exit lanes: grids and occupancy from the crossing ticks, and
            # zeros where the last interval's vehicles have all left
            for lane in self._exit_shown:
                lane.occ = [0] * length
            shown = {}
            for v, lane in exits:
                occ = shown.get(lane)
                if occ is None:
                    occ = shown[lane] = lane.occ = [0] * length
                v.grid = g = top - t + v.moved_tick
                occ[g] += 1
            self._exit_shown = shown
            # free vehicles: anchors moved to this tick, with the statistics
            # of the runs since the last anchors
            for lanes in meets.values():
                for lane in lanes:
                    for v in islice(lane.vehs, lane.walked, None):
                        self._reanchor(lane, v, v.grid - (t - v.moved_tick), t)
        if self.validate:
            self._check(t, last)

    def _admit(self, lane: _Lane, v: _Vehicle, t: int, upto: int) -> bool:
        """Append a vehicle that reached an approach lane's top grid on tick
        t. Within one grid of the walked tail it is walked at once (the lane
        walks from tick ``upto`` on), and the call returns True; otherwise
        it is free, and its lane falls due when it could meet the tail."""
        vehs = lane.vehs
        top = len(lane.occ) - 1
        w = lane.walked
        tail = vehs[w - 1].grid if w else 0
        lane.occ[top] += 1
        vehs.append(v)
        if tail >= top - 1:
            self._wake(lane, upto)
            lane.walked = w + 1
            return True
        if w == len(vehs) - 1:  # the lane's first free vehicle
            self._meets[t + top - tail].append(lane)
        return False

    def _wake(self, lane: _Lane, upto: int):
        """Walk the lane from now on. A settled walked part first adds the
        segment samples it owes for the ticks before ``upto``."""
        since = self._settled.pop(lane, None)
        if since is not None:
            lane.seg_samples[0] += lane.seg_count[0] * (upto - since)
            lane.seg_samples[1] += lane.seg_count[1] * (upto - since)
        self._active[lane] = None

    def _join(self, lane: _Lane, t: int):
        """At the start of tick t, the free vehicles within one grid of the
        walked tail join the walked part, a group pulling in the one behind
        it when that is adjacent. The lane falls due again on the tick its
        first free vehicle left would come within one grid of the tail, were
        the tail to stay. While vehicles are free the tail never moves back,
        so they cannot come within one grid of it sooner.

        A free group with an empty grid ahead at a tick's start moves whole:
        nothing ahead of it can fill that grid first, and a grid holds at
        most ``grid_capacity`` vehicles.
        """
        vehs = lane.vehs
        w = lane.walked
        tail = vehs[w - 1].grid if w else 0
        v = vehs[w]
        if v.grid - (t - 1 - v.moved_tick) <= tail + 1:
            self._wake(lane, t)
            length = self.network.lane_grids
            for v in islice(vehs, w, None):
                g = v.grid - (t - 1 - v.moved_tick)  # after tick t - 1
                if g > tail + 1:
                    break
                self._reanchor(lane, v, g, t - 1)
                tail = g
                if g < length // 3:
                    lane.seg_count[0] += 1
                elif g < 2 * (length // 3):
                    lane.seg_count[1] += 1
                w += 1
            lane.walked = w
            if w == len(vehs):
                return
            v = vehs[w]
        self._meets[v.moved_tick + v.grid - tail].append(lane)

    def _reanchor(self, lane: _Lane, v: _Vehicle, g: int, tick: int):
        """Move a free vehicle's anchor down to grid g on ``tick``, with
        its count in the lane's occupancy. The run from its old anchor grid
        a entered grids a-1 down to g, one per tick, so each move into a
        segment is also a tick's sample there."""
        a = v.grid
        mids, seg0, seg1 = self._runs
        lane.mid_passes += mids[a] - mids[g]
        moves0 = seg0[a] - seg0[g]
        moves1 = seg1[a] - seg1[g]
        lane.seg_moves[0] += moves0
        lane.seg_moves[1] += moves1
        lane.seg_samples[0] += moves0
        lane.seg_samples[1] += moves1
        lane.occ[a] -= 1
        lane.occ[g] += 1
        v.grid = g
        v.moved_tick = tick

    def _check(self, t: int, last: bool):
        """Recount the tick's bookkeeping from the vehicles (validate=True).

        A free vehicle's grid is recounted from its anchor, and the segment
        samples from every vehicle's grid, tick by tick."""
        net = self.network
        cap = net.grid_capacity
        length = net.lane_grids
        top = length - 1
        third1 = length // 3
        third2 = 2 * (length // 3)
        stamp = t + 1
        on_net = sum(len(ln.vehs) for ln in self._all_lanes)
        if self.entered != on_net + self.exited:
            raise RuntimeError(
                f"conservation violated at t={stamp}: "
                f"entered={self.entered} on={on_net} exited={self.exited}")
        active, settled = self._active.keys(), self._settled.keys()
        if (active & settled
                or active | settled != {ln for ln in self._approach_lanes
                                        if ln.walked}
                or any(s > stamp for s in self._settled.values())):
            raise RuntimeError(f"walked-lane registry differs at t={stamp}")
        due = [ln for lanes in self._meets.values() for ln in lanes]
        if (len(due) != len(set(due))
                or set(due) != {ln for ln in self._approach_lanes
                                if len(ln.vehs) > ln.walked}
                or min(self._meets, default=stamp) < stamp):
            raise RuntimeError(f"meeting calendar differs at t={stamp}")
        exit_lanes = [ln for ln in self._all_lanes if not ln.bit]
        fifo = [v for v, _ in self._exits]
        if (sorted(fifo, key=lambda v: v.moved_tick) != fifo
                or [v for ln in exit_lanes for v in ln.vehs]
                != [v for ln in exit_lanes
                    for v, owner in self._exits if owner is ln]):
            raise RuntimeError(
                f"exit FIFO differs from the exit-lane vehicles at t={stamp}")
        ready = 0
        for lane in self._all_lanes:
            vehs = lane.vehs
            if not lane.bit:  # an exit lane's grids follow from crossing ticks
                grids = [top - t + v.moved_tick for v in vehs]
                if grids and not 0 <= grids[0] <= grids[-1] <= top:
                    raise RuntimeError(f"exit lane out of range at t={stamp}")
                # this tick's crossings shared the top grid with the last
                # tick's (gone already from a one-grid lane)
                if sum(v.moved_tick >= t - 1 for v in vehs) > cap:
                    raise RuntimeError(
                        f"exit lane's top grid over capacity at t={stamp}")
                if grids != sorted(grids):
                    raise RuntimeError(f"lane out of grid order at t={stamp}")
                counts = _counts(grids, length)
                if max(counts) > cap:
                    raise RuntimeError(f"grid over capacity at t={stamp}")
                if last and (grids != [v.grid for v in vehs]
                             or counts != lane.occ):
                    raise RuntimeError(
                        f"occupancy differs from vehicle grids at t={stamp}")
                continue
            w = lane.walked
            if not 0 <= w <= len(vehs):
                raise RuntimeError(f"walked count out of range at t={stamp}")
            if w == len(vehs):
                grids = walked = [v.grid for v in vehs]
                free = []
            else:
                walked = [v.grid for v in islice(vehs, w)]
                free = list(islice(vehs, w, None))
                grids = walked + [v.grid - (t - v.moved_tick) for v in free]
            if grids != sorted(grids):
                raise RuntimeError(f"lane out of grid order at t={stamp}")
            tail = walked[-1] if w else 0
            if any(not 1 <= g <= v.grid <= top or v.moved_tick > t
                   or last and v.moved_tick != t
                   or g <= tail + 1 and lane not in self._meets.get(stamp, ())
                   for v, g in zip(free, grids[w:])):
                raise RuntimeError(f"free vehicle out of place at t={stamp}")
            if grids and grids[0] == 0 and lane.crossings < net.pass_capacity:
                ready |= lane.bit
            counts = _counts(grids, length)
            if max(counts) > cap:
                raise RuntimeError(f"grid over capacity at t={stamp}")
            if lane.pending and lane.pending[0].sched_s <= t and (
                    counts[top] < cap):
                raise RuntimeError(
                    f"due vehicle left waiting with room at t={stamp}")
            # occupancy: walked vehicles at their grids, free ones at their
            # anchors
            occ = counts[:]
            for v, g in zip(free, grids[w:]):
                occ[g] -= 1
                occ[v.grid] += 1
            if occ != lane.occ:
                raise RuntimeError(
                    f"occupancy differs from vehicle grids at t={stamp}")
            occ = lane.occ
            if lane in settled and any(c and g and occ[g - 1] < cap
                                       for g, c in enumerate(occ[:tail + 1])):
                raise RuntimeError(
                    f"settled lane has a vehicle that can move at t={stamp}")
            seg0 = bisect_left(walked, third1)
            if lane.seg_count != [seg0, bisect_left(walked, third2) - seg0]:
                raise RuntimeError(f"segment counts differ at t={stamp}")
            # segment samples, tallied tick by tick from the grids
            tally = self._tally.setdefault(lane, [0, 0])
            tally[0] += sum(counts[:third1])
            tally[1] += sum(counts[third1:third2])
            if last:
                if tally != lane.seg_samples:
                    raise RuntimeError(
                        f"segment samples differ at t={stamp}")
                tally[:] = [0, 0]
                if lane.stationary != sum(v.moved_tick != t for v in vehs):
                    raise RuntimeError(
                        f"stationary count differs at t={stamp}")
        if self._ready != ready:
            raise RuntimeError(f"stop-line mask differs at t={stamp}")


def _counts(grids: list[int], length: int) -> list[int]:
    """Vehicles per grid of a lane, from their grids."""
    counts = [0] * length
    for g in grids:
        counts[g] += 1
    return counts


def reset(network: RoadNetwork, flows: list[Flow], seed: int,
          schema: str = "BASE", validate: bool = False) -> Sim:
    """Build a fresh simulation: clock 0, empty network, every flow's
    vehicles scheduled. ``seed`` is recorded on the handle only; the
    dynamics draw no random numbers.

    Two calls with equal arguments yield handles with identical state
    digests and identical behavior under identical action traces.
    """
    return Sim(network, flows, seed, schema, validate)
