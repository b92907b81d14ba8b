"""Simulator tests: reset/step contracts, hand-traced movement oracles,
conservation, capacity, schema observations and the episode mapping that
builds them on read, metrics, properties over random scenarios, and a pin
of recorded behaviour."""

import hashlib
from collections.abc import Mapping, MutableMapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight.baselines import (EpsilonMixController, FixedTimeController,
                                 MaxPressureController, RandomController,
                                 SotlController)
from gridlight.errors import ConfigurationError
from gridlight.harness.config import DESK_CITIES
from gridlight.meta import COLUMNS, run_episode
from gridlight.sim import Flow, RoadNetwork, Sim, reset
from gridlight.sim.network import (APPROACHES, HEADING_DELTA,
                                   HEADING_OF_APPROACH, MOVEMENTS, OPPOSITE,
                                   PHASE_IDS, PHASES, SCHEMA_DIMS, TURN,
                                   origin_node, permits, trace_route)


NET = RoadNetwork(rows=2, cols=2)


def one_vehicle_flow():
    # single vehicle from the north boundary, through both intersections
    return Flow(origin=("N", 0), route=("through", "through"),
                start_s=0, end_s=1, headway_s=10)


def all_phase(sim, phase):
    return {node: phase for node in sim.nodes}


# -- phases --------------------------------------------------------------

def test_eight_phases_two_movements_each():
    assert len(PHASES) == 8
    for p in PHASES:
        assert len(p.permitted_movements) == 2
        for approach, movement in p.permitted_movements:
            assert movement in ("left", "through")
    assert permits(3, "N", "right")  # right always green
    assert permits(1, "N", "through")
    assert not permits(1, "N", "left")


# -- reset ---------------------------------------------------------------

def test_reset_empty_flows():
    sim = reset(NET, [], seed=7)
    assert sim.clock == 0
    assert sim.entered == sim.exited == 0
    assert np.array_equal(sim.extract_state((0, 0)), np.zeros((12, 12)))


def test_reset_determinism():
    flows = [one_vehicle_flow()]
    a = reset(NET, flows, seed=3)
    b = reset(NET, flows, seed=3)
    assert a.digest() == b.digest()


def test_reset_invalid_route_off_grid():
    # a single 'through' from the north of a 2x2 ends at an interior node
    bad = Flow(origin=("N", 0), route=("through",), start_s=0, end_s=10,
               headway_s=5)
    with pytest.raises(ConfigurationError):
        reset(NET, [bad], seed=0)


def test_reset_origin_outside_grid():
    bad = Flow(origin=("N", 5), route=("through", "through"), start_s=0,
               end_s=10, headway_s=5)
    with pytest.raises(ConfigurationError):
        reset(NET, [bad], seed=0)


def test_reset_invalid_network_field():
    with pytest.raises(ConfigurationError) as exc:
        RoadNetwork(rows=2, cols=2, state_grids=10, pass_capacity=4)
    assert "state_grids" in str(exc.value)


def test_trace_route_premature_exit():
    net = RoadNetwork(rows=1, cols=2)
    # heading south from (0,0) immediately leaves a 1-row grid
    bad = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
               end_s=10, headway_s=5)
    with pytest.raises(ConfigurationError):
        trace_route(net, bad)


# -- step: hand-traced tick oracle ----------------------------------------

def test_vehicle_advances_and_crosses_under_green():
    """Tick oracle: a lone vehicle five grids from the intersection, green
    held, advances one grid per tick and crosses on the sixth tick."""
    sim = reset(NET, [one_vehicle_flow()], seed=0, validate=True)
    green = all_phase(sim, 1)
    # entry at grid 23 on tick 0; after 18 more ticks it sits at grid 5
    for _ in range(19):
        sim.step(green, interval_s=1)
    v = sim.vehicles[0]
    assert v.grid == 5
    expected = [4, 3, 2, 1, 0]
    for want in expected:
        sim.step(green, interval_s=1)
        assert v.grid == want
    before = sim.extract_state((0, 0))[1].sum()
    assert before == 1  # waiting at grid 0 of the N-through lane
    sim.step(green, interval_s=1)  # crossing tick
    assert sim.extract_state((0, 0))[1].sum() == 0
    assert v.grid == 23  # re-entered the next link at the far end
    assert v.route_pos == 1


def test_vehicle_never_crosses_under_red():
    """Tick oracle: a conflicting phase held forever pins the vehicle at
    grid 0 of its approach lane."""
    sim = reset(NET, [one_vehicle_flow()], seed=0, validate=True)
    red = all_phase(sim, 3)  # E-W through; N-S through never permitted
    for _ in range(200):
        sim.step(red, interval_s=1)
    v = sim.vehicles[0]
    assert v.grid == 0
    assert sim.extract_state((0, 0))[1, 0] == 1
    assert sim.exited == 0


def test_full_green_interval_crosses_within_20s():
    sim = reset(NET, [one_vehicle_flow()], seed=0, validate=True)
    green = all_phase(sim, 1)
    sim.step(green)  # one 20 s interval: enter at 23 -> reaches grid 4
    sim.step(green)  # second interval: reaches 0, crosses, keeps moving
    st = sim.extract_state((0, 0))
    assert st.sum() == 0
    assert sim.vehicles[0].route_pos >= 1


def test_empty_network_step():
    sim = reset(NET, [], seed=0, validate=True)
    delta = sim.step(all_phase(sim, 1))
    obs, states = sim.snapshot()
    for node in sim.nodes:
        assert np.array_equal(states[node], np.zeros((12, 12)))
        assert np.array_equal(obs[node].values, np.zeros((12, 1)))
    assert delta.avg_queue_length == 0.0


def test_step_requires_action_per_intersection():
    sim = reset(NET, [], seed=0)
    with pytest.raises(ConfigurationError):
        sim.step({(0, 0): 1})
    with pytest.raises(ConfigurationError):
        sim.step({node: 9 for node in sim.nodes})


def test_red_light_safety_over_horizon():
    # heavy flow against a permanently conflicting phase: zero crossings
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=600, headway_s=5)
    sim = reset(NET, [flow], seed=0, validate=True)
    red = all_phase(sim, 4)  # E-W left never permits N-S through
    for _ in range(30):
        sim.step(red)
    lane = sim._approach_lane_map[(0, 0)][1]
    assert lane.last_crossings == 0
    assert sim.exited == 0


def test_pass_capacity_limits_crossings_per_interval():
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=3000, headway_s=2)
    sim = reset(NET, [flow], seed=0, validate=True)
    green = all_phase(sim, 1)
    for _ in range(12):
        sim.step(green)
        lane = sim._approach_lane_map[(0, 0)][1]
        assert lane.last_crossings <= NET.pass_capacity
    # saturated: the cap should bind eventually
    assert sim._approach_lane_map[(0, 0)][1].last_crossings == NET.pass_capacity


def test_conservation_and_capacity_saturated():
    flows = [
        Flow(origin=("N", c), route=("through", "through"), start_s=0,
             end_s=1200, headway_s=3) for c in (0, 1)
    ] + [
        Flow(origin=("W", r), route=("through", "through"), start_s=0,
             end_s=1200, headway_s=3) for r in (0, 1)
    ] + [
        # northbound from the south edge turning left exits west immediately
        Flow(origin=("S", 0), route=("left",), start_s=0,
             end_s=1200, headway_s=7),
    ]
    sim = reset(NET, flows, seed=0, validate=True)  # per-tick asserts inside
    for t in range(60):
        sim.step(all_phase(sim, (t % 4) + 1))
    assert sim.entered > 0
    assert sim.entered == sim.vehicles_on_network + sim.exited


def test_deterministic_traces():
    flows = [Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                  end_s=900, headway_s=4),
             Flow(origin=("W", 1), route=("through", "right"), start_s=0,
                  end_s=900, headway_s=6)]
    digests = []
    for _ in range(2):
        sim = reset(NET, flows, seed=5, schema="SCHEMA_C")
        for t in range(20):
            sim.step(all_phase(sim, (t % 8) + 1))
        digests.append(sim.digest())
    assert digests[0] == digests[1]


def test_monotone_clock_exits():
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=400, headway_s=10)
    sim = reset(NET, [flow], seed=0, validate=True)
    for _ in range(40):
        sim.step(all_phase(sim, 1))
    exited = [v for v in sim.vehicles if v.exit_s >= 0]
    assert exited
    for v in exited:
        assert v.exit_s >= v.enter_s


# -- extract_state ---------------------------------------------------------

def test_extract_state_single_vehicle_position():
    # east-approach left lane is state row 3; park a vehicle at grid 2
    flow = Flow(origin=("E", 0), route=("left", "through"), start_s=0,
                end_s=1, headway_s=10)
    sim = reset(NET, [flow], seed=0, validate=True)
    red = all_phase(sim, 1)  # never permits E-left
    for _ in range(22):  # enter at grid 23 on tick 0, then 21 advances
        sim.step(red, interval_s=1)
    st = sim.extract_state((0, 1))
    assert st[3, 2] == 1
    assert st.sum() == 1


def test_extract_state_unknown_intersection():
    sim = reset(NET, [], seed=0)
    with pytest.raises(KeyError):
        sim.extract_state((9, 9))


def test_state_sum_bounded_by_on_network():
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=600, headway_s=4)
    sim = reset(NET, [flow], seed=0)
    for t in range(15):
        sim.step(all_phase(sim, (t % 2) * 2 + 1))
        total = sum(sim.extract_state(node).sum() for node in sim.nodes)
        assert total <= sim.vehicles_on_network


# -- observe ---------------------------------------------------------------

def test_observe_empty_network_all_schemas():
    sim = reset(NET, [], seed=0)
    for schema, cols in (("BASE", 1), ("SCHEMA_A", 2), ("SCHEMA_B", 2),
                         ("SCHEMA_C", 3)):
        obs = sim.observe((0, 0), schema)
        assert obs.values.shape == (12, cols)
        assert np.all(obs.values == 0.0)


def test_observe_unknown_schema():
    sim = reset(NET, [], seed=0)
    with pytest.raises(ConfigurationError):
        sim.observe((0, 0), "SCHEMA_Z")


def test_observe_stationary_vehicles_zero_speed():
    # four vehicles stack up against a red light: count 4, speeds 0
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=16, headway_s=4)
    sim = reset(NET, [flow], seed=0, schema="SCHEMA_C", validate=True)
    red = all_phase(sim, 3)
    for _ in range(3):
        sim.step(red)  # 60 s: all four queue at grids 0-3 and stop
    obs = sim.observe((0, 0), "SCHEMA_C")
    assert obs.values[1, 0] == 4.0
    assert obs.values[1, 1] == 0.0  # nearest third: nobody moved
    assert np.all(obs.values[:, 1:] >= 0.0)
    assert np.all(obs.values[:, 1:] <= 1.0)


def test_observe_entered_count_matches_crossings():
    """Tick-trace oracle: with a 10 s headway and green, exactly two
    vehicles cross per 20 s interval once flow is established."""
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=400, headway_s=10)
    sim = reset(NET, [flow], seed=0, schema="SCHEMA_A", validate=True)
    green = all_phase(sim, 1)
    for _ in range(4):
        sim.step(green)
    obs = sim.observe((0, 0), "SCHEMA_A")
    assert obs.values[1, 1] == 2.0
    # BASE column 0 >= state row sum (full lane vs first N grids)
    base = sim.observe((0, 0), "BASE")
    st = sim.extract_state((0, 0))
    assert np.all(base.values[:, 0] >= st.sum(axis=1))


def test_observe_free_flow_speed_is_one():
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=400, headway_s=10)
    sim = reset(NET, [flow], seed=0, schema="SCHEMA_C", validate=True)
    green = all_phase(sim, 1)
    for _ in range(4):
        sim.step(green)
    obs = sim.observe((0, 0), "SCHEMA_C")
    assert obs.values[1, 1] == 1.0
    assert obs.values[1, 2] == 1.0


# -- metrics ---------------------------------------------------------------

def test_metrics_no_vehicles():
    sim = reset(NET, [], seed=0)
    m = sim.metrics()
    assert m.avg_travel_time_s == 0.0
    assert m.avg_queue_length == 0.0


def test_metrics_travel_time_mean():
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=30, headway_s=20)  # two vehicles
    sim = reset(NET, [flow], seed=0, validate=True)
    for _ in range(10):
        sim.step(all_phase(sim, 1))
    done = [v for v in sim.vehicles if v.exit_s >= 0]
    assert len(done) == 2
    expect = sum(v.exit_s - v.enter_s for v in done) / 2
    assert sim.metrics().avg_travel_time_s == pytest.approx(expect)


def test_metrics_includes_unfinished_vehicles():
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=1, headway_s=5)
    sim = reset(NET, [flow], seed=0)
    sim.step(all_phase(sim, 3), interval_s=20)  # red: still on network
    v = sim.vehicles[0]
    assert v.exit_s < 0
    assert sim.metrics().avg_travel_time_s == pytest.approx(sim.clock - v.enter_s)


def test_queue_counts_blocked_vehicles():
    flow = Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                end_s=40, headway_s=10)
    sim = reset(NET, [flow], seed=0, validate=True)
    red = all_phase(sim, 3)
    for _ in range(6):
        sim.step(red)
    m = sim.metrics()
    assert m.avg_queue_length > 0.0


# -- properties over random scenarios ----------------------------------------

@st.composite
def scenarios(draw, one_grid=False, long_lanes=False):
    """A small network, flows along random routes that leave the grid, a
    schema, and a phase trace with one phase per intersection per step.
    Lanes are short and grids hold one or two vehicles, so queues spill
    back across intersections within a few intervals. With ``one_grid``
    every lane is one grid long, so a vehicle can cross several nodes on
    one tick. With ``long_lanes`` lanes are 9 to 30 grids long, grids hold
    up to four vehicles and headways are dense or sparse, so free-flowing
    vehicles run across the segment borders and the mid grid, and meet
    queues partway through an interval."""
    if one_grid:
        pass_capacity = state_grids = lane_grids = 1
        grid_capacity = draw(st.integers(1, 2))
        headways = st.integers(1, 4)
    elif long_lanes:
        pass_capacity = draw(st.integers(1, 4))
        lane_grids = draw(st.integers(9, 30))
        state_grids = pass_capacity * draw(
            st.integers(1, lane_grids // pass_capacity))
        grid_capacity = draw(st.integers(1, 4))
        headways = st.integers(1, 2) | st.integers(5, 40)
    else:
        pass_capacity = draw(st.integers(1, 2))
        state_grids = pass_capacity * draw(st.integers(1, 2))
        lane_grids = state_grids + draw(st.integers(0, 2))
        grid_capacity = draw(st.integers(1, 2))
        headways = st.integers(1, 4)
    net = RoadNetwork(rows=draw(st.integers(1, 3)),
                      cols=draw(st.integers(1, 3)),
                      state_grids=state_grids, pass_capacity=pass_capacity,
                      grid_capacity=grid_capacity, lane_grids=lane_grids)
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        side = draw(st.sampled_from(APPROACHES))
        index = draw(st.integers(
            0, (net.cols if side in ("N", "S") else net.rows) - 1))
        node = origin_node(net, (side, index))
        heading = HEADING_OF_APPROACH[side]
        route = []
        while net.on_grid(node) and len(route) < 6:
            route.append(draw(st.sampled_from(MOVEMENTS)))
            heading = TURN[heading][route[-1]]
            dr, dc = HEADING_DELTA[heading]
            node = (node[0] + dr, node[1] + dc)
        if net.on_grid(node):
            continue  # still inside after six movements: drop the flow
        start = draw(st.integers(-5, 40))
        flows.append(Flow((side, index), tuple(route), start,
                          start + draw(st.integers(1, 300)),
                          draw(headways)))
    n_nodes = net.rows * net.cols
    trace = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(PHASE_IDS), min_size=n_nodes,
                           max_size=n_nodes),
                  st.integers(1, 30)),
        min_size=1, max_size=12))
    return net, flows, draw(st.sampled_from(sorted(SCHEMA_DIMS))), trace


def _replay(net, flows, schema, trace):
    """Run a phase trace under validate=True (conservation and capacity
    are checked inside every tick) and check the public state each step."""
    sim = reset(net, flows, seed=0, schema=schema, validate=True)
    for phases, interval_s in trace:
        sim.step(dict(zip(sim.nodes, phases)), interval_s)
        _, states = sim.snapshot()
        entered = sum(v.enter_s >= 0 for v in sim.vehicles)
        exited = sum(v.exit_s >= 0 for v in sim.vehicles)
        assert (sim.entered, sim.exited) == (entered, exited)
        on_network = sum(len(lane.vehs) for lane in sim._all_lanes)
        assert sim.entered == on_network + sim.exited
        for node in sim.nodes:
            for state in (states[node], sim.extract_state(node)):
                assert state.dtype == np.uint8
                assert state.shape == (net.lanes_per_intersection,
                                       net.state_grids)
                assert 0 <= state.min() and state.max() <= net.grid_capacity
        assert sum(int(states[n].sum()) for n in sim.nodes) <= on_network
    return sim.digest(), sim.metrics()


@settings(max_examples=40, deadline=None)
@given(scenarios() | scenarios(long_lanes=True))
def test_random_scenarios_conserve_and_rerun_identically(scenario):
    assert _replay(*scenario) == _replay(*scenario)


class _WalkEveryLane(Sim):
    """Reference simulator: every tick walks every exit lane, every
    crossing lane the phases permit, every lane that holds vehicles (exit
    lanes included, none of them settled) and every entry lane, keeps each
    lane's grids and occupancy as vehicles move, and recounts the
    invariants after each tick. It walks every vehicle on its own grid and
    runs none of the approach lanes' conveyor bookkeeping."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entry_lanes = [ln for ln in self._approach_lanes if ln.pending]
        self.exit_lanes = [ln for ln in self._all_lanes if not ln.bit]
        self.crossing_lanes = {
            node: {phase: [(lane, dlink.lanes, dlink.node is None)
                           for (approach, movement), lane, dlink
                           in self._movements[node]
                           if permits(phase, approach, movement)]
                   for phase in PHASE_IDS}
            for node in self.nodes}

    def step(self, actions, interval_s=20):
        self.acts = {node: int(actions[node]) for node in self.nodes}
        return super().step(actions, interval_s)

    def _tick(self, permit, last):
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

        # 1. boundary exits
        for lane in self.exit_lanes:
            while lane.vehs and lane.vehs[0].grid == 0:
                v = lane.vehs.popleft()
                lane.occ[0] -= 1
                v.exit_s = stamp
                self.exited += 1
                self._travel_sum_exited += stamp - v.enter_s

        # 2. intersection crossings, node by node
        for node in self.nodes:
            for lane, dlanes, is_exit in self.crossing_lanes[node][
                    self.acts[node]]:
                vehs = lane.vehs
                while (vehs and vehs[0].grid == 0
                       and lane.crossings < n_cross):
                    v = vehs[0]
                    pos = v.route_pos if is_exit else v.route_pos + 1
                    dest = dlanes[v.route[pos]]
                    if dest.occ[top] >= cap:
                        break
                    vehs.popleft()
                    lane.occ[0] -= 1
                    if third1:
                        lane.seg_count[0] -= 1
                    lane.crossings += 1
                    v.grid = top
                    v.route_pos += 1
                    v.moved_tick = t
                    dest.occ[top] += 1
                    dest.vehs.append(v)

        # 3. in-lane advances, every vehicle of every lane
        for lane in self._all_lanes:
            is_app = bool(lane.bit)
            if last and is_app:
                lane.stationary = 0
            occ = lane.occ
            for v in lane.vehs:
                g = v.grid
                if v.moved_tick == t or g == 0 or occ[g - 1] >= cap:
                    continue
                occ[g] -= 1
                g -= 1
                occ[g] += 1
                v.grid = g
                v.moved_tick = t
                if is_app:
                    if g == mid - 1:
                        lane.mid_passes += 1
                    if g < third1:
                        lane.seg_moves[0] += 1
                        if g == third1 - 1:
                            lane.seg_count[0] += 1
                            lane.seg_count[1] -= 1
                    elif g < third2:
                        lane.seg_moves[1] += 1
                        if g == third2 - 1:
                            lane.seg_count[1] += 1
            if is_app:
                lane.seg_samples[0] += lane.seg_count[0]
                lane.seg_samples[1] += lane.seg_count[1]
                if last:
                    lane.stationary = sum(v.moved_tick != t
                                          for v in lane.vehs)

        # 4. scheduled entries (deferred while the origin grid is full)
        for lane in self.entry_lanes:
            pending = lane.pending
            while pending and pending[0].sched_s <= t and lane.occ[top] < cap:
                v = pending.popleft()
                v.enter_s = stamp
                v.grid = top
                v.moved_tick = t
                lane.occ[top] += 1
                lane.vehs.append(v)
                self.entered += 1

        self.clock = stamp
        on_net = sum(len(ln.vehs) for ln in self._all_lanes)
        assert self.entered == on_net + self.exited
        for lane in self._all_lanes:
            grids = [v.grid for v in lane.vehs]
            assert grids == sorted(grids)
            assert lane.occ == [grids.count(g) for g in range(length)]
            assert max(lane.occ) <= cap
            if lane.bit:
                assert lane.seg_count == [sum(lane.occ[:third1]),
                                          sum(lane.occ[third1:third2])]


def _interval_record(sim, actions, interval_s):
    delta = sim.step(actions, interval_s)
    observations = [sim.observe(node, schema).values.tolist()
                    for node in sim.nodes for schema in sorted(SCHEMA_DIMS)]
    waiting = [sim.waiting_counts(node).tolist() for node in sim.nodes]
    queues = [sim.movement_queues(node) for node in sim.nodes]
    return sim.digest(), delta, sim.metrics(), observations, waiting, queues


@settings(max_examples=60, deadline=None)
@given(scenarios() | scenarios(one_grid=True) | scenarios(long_lanes=True))
def test_tick_matches_walk_every_lane_reference(scenario):
    """The tick that visits only the lanes that can act gives, interval by
    interval, the digest, metrics, observations in every schema, waiting
    counts and movement queues of the reference that walks every lane."""
    net, flows, schema, trace = scenario
    fast = reset(net, flows, seed=0, schema=schema, validate=True)
    ref = _WalkEveryLane(net, flows, seed=0, schema=schema, validate=True)
    for phases, interval_s in trace:
        actions = dict(zip(fast.nodes, phases))
        assert (_interval_record(fast, actions, interval_s)
                == _interval_record(ref, actions, interval_s))


def test_free_vehicles_fill_the_top_grid():
    """A grid holds one vehicle here, so a queued vehicle crosses into the
    next lane only once the one that crossed before it, free in that lane,
    has left the top grid, and of two vehicles scheduled on one tick the
    second enters only once the first has moved on. Interval by interval
    this matches the reference that walks every lane."""
    net = RoadNetwork(rows=1, cols=2, state_grids=2, pass_capacity=2,
                      grid_capacity=1, lane_grids=9)
    assert permits(3, "W", "through") and not permits(1, "W", "through")
    flows = [Flow(("W", 0), ("through", "through"), 0, 80, 1)] * 2
    fast = reset(net, flows, seed=0, validate=True)
    ref = _WalkEveryLane(net, flows, seed=0, validate=True)
    for phase, interval_s in [(1, 20), (3, 20), (3, 7), (1, 1), (3, 30)]:
        actions = {node: phase for node in fast.nodes}
        assert (_interval_record(fast, actions, interval_s)
                == _interval_record(ref, actions, interval_s))


@pytest.mark.parametrize("schema", sorted(SCHEMA_DIMS))
@pytest.mark.parametrize("city", sorted(DESK_CITIES))
def test_snapshot_equals_per_node_queries(city, schema):
    """Every interval of a max-pressure episode: the one-pass snapshot has
    the bytes, dtype and shape of observe() and extract_state() per node."""
    spec = DESK_CITIES[city]()
    sim = reset(spec.network, list(spec.flows), seed=0, schema=schema)
    controller = MaxPressureController()
    for t in range(spec.intervals + 1):
        obs, states = sim.snapshot()
        for node in sim.nodes:
            for got, want in ((obs[node].values, sim.observe(node).values),
                              (states[node], sim.extract_state(node))):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            assert obs[node].schema_id == schema
        if t < spec.intervals:
            sim.step(controller.decide(sim, t, obs), spec.interval_s)


# -- observations on demand --------------------------------------------------

BASELINES = {
    "fixed_time": FixedTimeController,
    "sotl": SotlController,
    "max_pressure": MaxPressureController,
    "random": lambda: RandomController(np.random.default_rng(11)),
    "epsilon_mix": lambda: EpsilonMixController(
        MaxPressureController(), 0.3, np.random.default_rng(12)),
}


class _Logged:
    """Pass-through controller keeping every decision and the observation
    mapping each one was given."""

    def __init__(self, inner):
        self.inner = inner
        self.actions = []
        self.seen = []

    def begin_episode(self, env):
        self.inner.begin_episode(env)

    def decide(self, env, interval_index, obs):
        acts = self.inner.decide(env, interval_index, obs)
        self.actions.append(dict(acts))
        self.seen.append(obs)
        return acts


def _eager_replay(sim, actions, interval_s):
    """A fresh simulator stepped through the action trace with a snapshot
    after every step, as episodes ran when ``step`` built them: (digest,
    metrics)."""
    sim.snapshot()
    for acts in actions:
        sim.step(acts, interval_s)
        sim.snapshot()
    return sim.digest(), sim.metrics()


def _count_builds(monkeypatch):
    """Count the calls that build observation or state arrays."""
    calls = {"obs": 0, "states": 0}
    for name, key in (("_observations", "obs"), ("_states", "states")):
        build = getattr(Sim, name)

        def counted(self, *args, _build=build, _key=key):
            calls[_key] += 1
            return _build(self, *args)

        monkeypatch.setattr(Sim, name, counted)
    return calls


@pytest.mark.parametrize("method", sorted(BASELINES))
def test_unrecorded_baseline_episode_builds_no_observations(method,
                                                            monkeypatch):
    """A baseline reads queues and waiting counts, never the observation
    mapping, so an episode that records nothing builds no observation or
    state, and ends as the same actions stepped with a snapshot after
    every step do."""
    spec = DESK_CITIES["city-b"]()
    sim = spec.make(seed=0)
    controller = _Logged(BASELINES[method]())
    calls = _count_builds(monkeypatch)
    m, records = run_episode(sim, controller, 40, spec.interval_s)
    assert calls == {"obs": 0, "states": 0} and records == ()
    monkeypatch.undo()
    assert (sim.digest(), m) == _eager_replay(
        spec.make(seed=0), controller.actions, spec.interval_s)


@pytest.mark.parametrize("schema", sorted(SCHEMA_DIMS))
def test_observation_mapping_equals_snapshot_and_observe(schema,
                                                         monkeypatch):
    """Each interval's mapping is read-only, holds every node's
    observation in ``sim.nodes`` order, equal in bytes, dtype and shape to
    ``snapshot()`` and ``observe()``, and builds them in one call however
    often it is read."""
    spec = DESK_CITIES["city-c"]()
    sim = reset(spec.network, list(spec.flows), seed=0, schema=schema)
    built = []
    observe_all = Sim.observe_all
    monkeypatch.setattr(Sim, "observe_all",
                        lambda self: built.append(self.clock)
                        or observe_all(self))

    class Checking(MaxPressureController):
        def decide(self, env, interval_index, obs):
            assert isinstance(obs, Mapping)
            assert not isinstance(obs, MutableMapping)
            with pytest.raises(TypeError):
                obs[env.nodes[0]] = None
            assert list(obs) == list(env.nodes) and len(obs) == len(env.nodes)
            snap, _ = env.snapshot()
            for node in env.nodes:
                want = env.observe(node)
                for got in (obs[node], snap[node]):
                    assert got.schema_id == want.schema_id == schema
                    assert (got.values.dtype, got.values.shape) == (
                        want.values.dtype, want.values.shape)
                    assert got.values.tobytes() == want.values.tobytes()
                assert obs.get(node) is obs[node]
            assert (-1, -1) not in obs
            return super().decide(env, interval_index, obs)

    run_episode(sim, Checking(), 12, spec.interval_s)
    # one build per interval from the mapping, one per snapshot() above
    assert built == [t * spec.interval_s for t in range(12)
                     for _ in range(2)]


def test_observation_mapping_raises_after_the_simulator_steps():
    """A mapping read after its interval was stepped raises, whether it
    was read before the step or not."""
    spec = DESK_CITIES["city-a"]()
    sim = spec.make(seed=0)
    read = []

    class ReadEveryOther(FixedTimeController):
        def decide(self, env, interval_index, obs):
            if interval_index % 2:
                read.append(obs[env.nodes[0]])
            return super().decide(env, interval_index, obs)

    controller = _Logged(ReadEveryOther())
    run_episode(sim, controller, 4, spec.interval_s)
    assert len(read) == 2
    for obs in controller.seen:
        with pytest.raises(RuntimeError, match="after the simulator stepped"):
            obs[sim.nodes[0]]
        with pytest.raises(RuntimeError):
            list(obs)


def _eager_recording(sim, controller, intervals, interval_s):
    """The recording loop as it ran when ``step`` returned observations
    and states, each interval's taken from its result."""
    controller.begin_episode(sim)
    obs, states = sim.snapshot()
    rows = []
    for t in range(intervals):
        acts = controller.decide(sim, t, obs)
        sim.step(acts, interval_s)
        obs_next, states_next = sim.snapshot()
        rows.extend((obs[node].values, states[node], acts[node],
                     states_next[node]) for node in sim.nodes)
        obs, states = obs_next, states_next
    return sim.metrics(), [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("city", sorted(DESK_CITIES))
def test_recorded_dataset_matches_the_eager_loop(city):
    """A recording episode's dataset arrays have the bytes, dtype and
    shape of the eager loop's."""
    spec = DESK_CITIES[city]()
    runs = []
    for record in (True, False):
        controller = EpsilonMixController(MaxPressureController(), 0.3,
                                          np.random.default_rng(5))
        sim = spec.make(seed=0)
        if record:
            m, ds = run_episode(sim, controller, 30, spec.interval_s,
                                record=True, city_id=city)
            cols = [getattr(ds, c) for c in COLUMNS]
        else:
            m, cols = _eager_recording(sim, controller, 30, spec.interval_s)
        runs.append((m, sim.digest(),
                     [(c.dtype, c.shape, c.tobytes()) for c in cols]))
    assert runs[0] == runs[1]


@settings(max_examples=40, deadline=None)
@given(scenarios() | scenarios(one_grid=True) | scenarios(long_lanes=True))
def test_observation_mapping_fuzz(scenario):
    """Over random scenarios and phase traces under validate=True: at
    every interval the mapping, ``snapshot()`` and ``observe()`` agree, the
    mapping raises once stepped, and the episode ends with the digest and
    metrics of the trace stepped with a snapshot after every step."""
    net, flows, schema, trace = scenario
    interval_s = trace[0][1]
    phases = [dict(zip(net.nodes, p)) for p, _ in trace]
    seen = []

    class Trace:
        def begin_episode(self, env):
            pass

        def decide(self, env, t, obs):
            snap, _ = env.snapshot()
            for node in env.nodes:
                want = env.observe(node).values.tobytes()
                assert obs[node].values.tobytes() == want
                assert snap[node].values.tobytes() == want
            seen.append(obs)
            return phases[t]

    sim = reset(net, flows, seed=0, schema=schema, validate=True)
    m, _ = run_episode(sim, Trace(), len(phases), interval_s)
    for obs in seen:
        with pytest.raises(RuntimeError):
            obs[net.nodes[0]]
    assert (sim.digest(), m) == _eager_replay(
        reset(net, flows, seed=0, schema=schema, validate=True), phases,
        interval_s)


# -- golden behaviour pin ----------------------------------------------------

def _golden_run(city, method, validate=False, intervals=30):
    """One short baseline episode: (digest, metrics, movement-queue hash)."""
    controller = BASELINES[method]()
    sim = DESK_CITIES[city]().make(seed=0, validate=validate)
    m, _ = run_episode(sim, controller, intervals)
    queues = repr([sorted(sim.movement_queues(node).items())
                   for node in sim.nodes])
    return (sim.digest(), m.avg_travel_time_s, m.avg_queue_length,
            hashlib.sha256(queues.encode()).hexdigest()[:16])


GOLDEN = {
    ('city-a', 'fixed_time', False): (
        'ad41ce3e4479cbefa7cf3e2597dd7d46be47b56e9aa46407de3a9304fdf109aa',
        174.1970802919708, 1.2555555555555555, 'acd6bdfaaf832050'),
    ('city-a', 'sotl', False): (
        '27533b6a4808b024f368155e8558685b0bfbdb6c3bb01830afc563570ed8a255',
        91.13138686131387, 0.3104166666666667, 'e4fd17c9c54bf55b'),
    ('city-a', 'max_pressure', False): (
        'b734ff969b4619bc65296493b641b6f0d07042a041f8628eefe696275cb8a73f',
        82.93795620437956, 0.21319444444444446, 'a525ea83d4b90bbb'),
    ('city-a', 'random', False): (
        'a1de004129c8d4446f81fac5a0bf71117b4e93c08d16747584b0102eb0918ae2',
        203.16788321167883, 1.5500000000000003, '0b2f76810e1aac33'),
    ('city-b', 'fixed_time', False): (
        'd8764ea064a8a73cb539797cb8233ffbc88c2b3d0d1b283d0704a5705df0cb06',
        202.01592356687897, 1.1481481481481481, '465ff479d059858b'),
    ('city-b', 'sotl', False): (
        'd83ebd7f8a103ad29f0a04119dfb52bb9d3929d4d86481d1eeae86f92d400011',
        105.52547770700637, 0.2689814814814815, '05465859e71373dd'),
    ('city-b', 'max_pressure', False): (
        '2a06042b006fa3aae41e9194013f5cbbf2523ad58ff31e60fb3419dd71eff092',
        93.95222929936305, 0.1574074074074074, 'e643090b2c6967b4'),
    ('city-b', 'random', False): (
        'b1a8da1286894490e52f9fa57ec4493db02232ffc96faa12815daba2da7d9b44',
        226.32165605095543, 1.3967592592592588, 'd2924c8a10155647'),
    ('city-c', 'fixed_time', False): (
        'bd5e97d342a1326277bd9fa556ec74fe96525f5e55bc439770d1358e92049292',
        195.96658097686375, 1.3962962962962961, 'd5c5754faed30d92'),
    ('city-c', 'sotl', False): (
        '74efe21f6e5337706e26d24f2508553ce8e356259d8273af3a8387d9dc7a7fa2',
        93.30334190231362, 0.2814814814814815, 'fbedb895dcd87162'),
    ('city-c', 'max_pressure', False): (
        '7169ec2604574c2a05496b8c73674935d969314c35b0b7aa21dc74bfb2c9c25e',
        84.15681233933162, 0.18055555555555555, 'f0aeb219cb314f43'),
    ('city-c', 'random', False): (
        '780f74b1ec834eadae7ce70bb4d1b75a81011817ea79844dcf23a7c8835c8d6e',
        233.64781491002572, 1.8138888888888889, 'a5b5390de44a829c'),
    ('saturated', 'fixed_time', True): (
        'f972c747784063b64690e38ab6e0f92358de08e7e16e359e16c60f67aaa7b969',
        296.56742556917686, 11.269444444444444, '446361443c76856d'),
    ('saturated', 'max_pressure', True): (
        '4c17283bb939e3d03e7cb815d39d2b2d95e13b2f39ec54d79fdb9d13f9ad53d8',
        232.2054794520548, 9.76388888888889, '06d5de89f29fc8c8'),
    ('saturated', 'random', True): (
        '72040785be3ccbef6848bd249e3794ffdaae71c95db8ece47c4311f576595db0',
        307.41769911504423, 11.633333333333333, '65e23a665e8a420d'),
}


@pytest.mark.parametrize("city,method,validate", sorted(GOLDEN))
def test_golden_behaviour_pin(city, method, validate):
    """Digests, metrics and movement queues recorded from an earlier
    revision of the simulator: any change to its behaviour shows here."""
    assert _golden_run(city, method, validate) == GOLDEN[(city, method,
                                                          validate)]


def _observation_run(city, method, intervals=60):
    """One baseline episode under validate=True, hashing every interval's
    observations (in every schema) and waiting counts for every node: the
    final digest only holds the last interval's statistics."""
    controller = BASELINES[method]()
    sim = DESK_CITIES[city]().make(seed=0, validate=True)
    h = hashlib.sha256()
    obs, _ = sim.snapshot()
    for t in range(intervals):
        sim.step(controller.decide(sim, t, obs))
        obs, _ = sim.snapshot()
        for node in sim.nodes:
            for schema in sorted(SCHEMA_DIMS):
                h.update(sim.observe(node, schema).values.tobytes())
            h.update(sim.waiting_counts(node).tobytes())
    return h.hexdigest()[:32], sim.digest()


GOLDEN_OBSERVATIONS = {
    ('city-a', 'fixed_time'): (
        'd8f0884e9270040d0d3e473087b3c454',
        '9b6b1de0d3823ac23812d7dbdd16347782bff7502bb9db30c4a8dc549e945e63'),
    ('city-a', 'max_pressure'): (
        '90056267bc52bb60fbce82b183654419',
        'f2ee0d54a2016a86bfb8f0eb6a1f3b577d1a4d2611ba118af91166d24bf7bfd1'),
    ('city-b', 'fixed_time'): (
        'ea6d8621b2ae986318fd6ae863ed0cf1',
        '1b2d64a117d3557871b76a63ced229bfc8c6e064e6e3ac3e86b7dd7a920166e0'),
    ('city-b', 'max_pressure'): (
        '2e1eaabca690eab96241f9a7887ca2f5',
        'e5c90e72133f9de9a26bb8961f3d618f4f5cd66fcfec89e02e7a3c1564b8183d'),
    ('city-c', 'fixed_time'): (
        '3b34c3428e64d2617a41b56e2c679a65',
        '41d5fb7c327def470241855ec37c0dc9c4b2fffca55c96a191408147dc3dab6e'),
    ('city-c', 'max_pressure'): (
        '254cd6da21fadc776c73cc973364accc',
        '2f8dbf8d6164ee8b5ef3c44aeceb3112f6355c7c7315e07189b32f7773b4542c'),
    ('saturated', 'fixed_time'): (
        '66c64d066d8c1824b757235f09dfec0f',
        '7232016c341add4decc2f96d605fab57e225257d0ee29eb2f0c19d2b9b9b9146'),
    ('saturated', 'max_pressure'): (
        'ca2e319ae26933050c7f05ed5f974523',
        '3a216fc7a7d2f770c705b93d2da8e0de60d25d7a4a2e69f0f2b7abead4a5774d'),
}


@pytest.mark.parametrize("city,method", sorted(GOLDEN_OBSERVATIONS))
def test_golden_observation_pin(city, method):
    """Per-interval observations and waiting counts recorded from an
    earlier revision of the simulator, with the tick invariants checked."""
    assert _observation_run(city, method) == GOLDEN_OBSERVATIONS[(city,
                                                                  method)]


def test_stationary_count_when_a_vehicle_crosses_two_nodes_in_one_tick():
    """With one grid per lane, a vehicle that crosses into a lane sits at
    that lane's stop line and can cross the next intersection on the same
    tick. It is then neither stationary in the lane it passed through nor
    anywhere else. The expected counts were recorded from a revision that
    recounted every vehicle's last move."""
    net = RoadNetwork(rows=1, cols=2, state_grids=1, pass_capacity=1,
                      grid_capacity=2, lane_grids=1)
    assert permits(3, "W", "through")
    # both flows enter (0, 1)'s west approach through lane on one tick and
    # one of them crosses on at once: the lane keeps a vehicle either way
    flows = [Flow(("W", 0), ("through", "through"), 0, 4, 1),
             Flow(("S", 0), ("right", "through"), 0, 4, 1)]
    sim = reset(net, flows, seed=0, validate=True)
    west_through = [0, 0, 1, 2, 2, 1, 1, 0]  # (0, 0)'s lane 10
    for waiting in west_through:
        metrics = sim.step(all_phase(sim, 3), interval_s=1)
        assert sim.waiting_counts((0, 0)).tolist() == [0] * 10 + [waiting, 0]
        assert sim.waiting_counts((0, 1)).tolist() == [0] * 12
        assert metrics.avg_queue_length == waiting / 24


# -- movement queues and clones -----------------------------------------------

def _recounted_queues(sim, node):
    """Each movement's (upstream, downstream) queue recounted from the
    lanes' grids: the approach lane's state-window sum, and the receiving
    link's summed over its lanes and divided by their count."""
    net, n = sim.network, sim.network.state_grids
    out = {}
    for approach in APPROACHES:
        for m, movement in enumerate(MOVEMENTS):
            lane = sim.in_links[(node, approach)].lanes[m]
            heading = TURN[HEADING_OF_APPROACH[approach]][movement]
            dr, dc = HEADING_DELTA[heading]
            nxt = (node[0] + dr, node[1] + dc)
            dlink = (sim.in_links[(nxt, OPPOSITE[heading])]
                     if net.on_grid(nxt) else sim.exit_links[(node, heading)])
            down = (sum(sum(ln.occ[:n]) for ln in dlink.lanes)
                    / len(dlink.lanes))
            out[(approach, movement)] = (float(sum(lane.occ[:n])), down)
    return list(out.items())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("city", ["city-c", "saturated"])
def test_movement_queues_equal_a_recount_after_every_step(city, seed):
    """Over random actions, whichever nodes an interval reads (all of
    them, one of them twice, or none) get the queues recounted from the
    lanes at that clock: the once-per-interval window sums are never
    stale. city-c's border movements feed exit links."""
    sim = DESK_CITIES[city]().make(seed=0)
    rng = np.random.default_rng(seed)
    reads = {"every": 0, "one": 0, "none": 0}
    for _ in range(60):
        sim.step({node: int(rng.integers(1, 9)) for node in sim.nodes})
        pattern = ("every", "one", "none")[int(rng.integers(3))]
        reads[pattern] += 1
        if pattern == "every":
            nodes = sim.nodes
        elif pattern == "one":
            node = sim.nodes[int(rng.integers(len(sim.nodes)))]
            nodes = [node, node]
        else:
            nodes = []
        for node in nodes:
            assert (list(sim.movement_queues(node).items())
                    == _recounted_queues(sim, node))
    assert min(reads.values()) > 0
    assert sim.vehicles_on_network > 0


def _random_actions(sim, rng, intervals):
    return [{node: int(rng.integers(1, 9)) for node in sim.nodes}
            for _ in range(intervals)]


def test_clone_steps_like_its_parent_and_leaves_it_alone():
    """A clone taken mid-episode is independent: stepping it leaves the
    parent's digest and movement queues as they were, it keeps
    validate=True and passes its checks on every tick, and stepped with
    the parent's actions it ends with the parent's digest and metrics."""
    sim = DESK_CITIES["city-c"]().make(seed=0, validate=True)
    actions = _random_actions(sim, np.random.default_rng(3), 40)
    for a in actions[:20]:
        sim.step(a)
    twin = sim.clone()
    assert twin is not sim and twin.validate
    digest = sim.digest()
    queues = {node: sim.movement_queues(node) for node in sim.nodes}
    for a in actions[20:]:
        twin.step(a)
        assert sim.digest() == digest
        assert {node: sim.movement_queues(node)
                for node in sim.nodes} == queues
    for a in actions[20:]:
        sim.step(a)
    assert twin.digest() == sim.digest()
    assert twin.metrics() == sim.metrics()
    assert twin.clock == sim.clock


@pytest.mark.parametrize("parent_read_first", [True, False])
def test_clone_between_steps_returns_the_parents_movement_queues(
        parent_read_first):
    """A clone taken at a clock reads the parent's movement queues there,
    whether the parent's window sums for that clock were built before the
    copy or not; after one more step each reads its own lanes."""
    sim = DESK_CITIES["saturated"]().make(seed=0)
    actions = _random_actions(sim, np.random.default_rng(4), 16)
    for a in actions[:15]:
        sim.step(a)
    if parent_read_first:
        sim.movement_queues(sim.nodes[0])
    twin = sim.clone()
    for node in sim.nodes:
        assert twin.movement_queues(node) == sim.movement_queues(node)
    twin.step(actions[15])
    for node in sim.nodes:
        assert (list(twin.movement_queues(node).items())
                == _recounted_queues(twin, node))
        assert (list(sim.movement_queues(node).items())
                == _recounted_queues(sim, node))
