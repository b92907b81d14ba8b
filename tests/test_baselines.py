"""Baseline controller tests: fixed-time cycling, SOTL switching rules, and
max-pressure selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight.baselines import (
    EpsilonMixController,
    FixedTimeConfig,
    FixedTimeController,
    MaxPressureController,
    RandomController,
    SotlConfig,
    SotlController,
    fixed_time_act,
    max_pressure_act,
    sotl_act,
)
from gridlight.errors import ConfigurationError
from gridlight.sim import Flow, RoadNetwork, reset
from gridlight.sim.network import MOVEMENTS, APPROACHES, PHASE_IDS, PHASES


def test_fixed_time_unit_durations():
    cfg = FixedTimeConfig(phases=(1, 2, 3, 4), durations=(1, 1, 1, 1))
    got = [fixed_time_act(cfg, i) for i in range(8)]
    assert got == [1, 2, 3, 4, 1, 2, 3, 4]


def test_fixed_time_uneven_durations():
    cfg = FixedTimeConfig(phases=(1, 2, 3, 4), durations=(2, 1, 1, 1))
    assert fixed_time_act(cfg, 1) == 1
    assert fixed_time_act(cfg, 2) == 2
    assert fixed_time_act(cfg, 5) == 1  # wrapped


def test_fixed_time_periodicity():
    cfg = FixedTimeConfig()
    period = cfg.period
    for i in range(40):
        assert fixed_time_act(cfg, i) == fixed_time_act(cfg, i + period)


def test_fixed_time_validation():
    with pytest.raises(ConfigurationError):
        FixedTimeConfig(phases=(1, 2), durations=(1,))
    with pytest.raises(ConfigurationError):
        FixedTimeConfig(phases=(0, 2, 3, 4), durations=(1, 1, 1, 1))
    with pytest.raises(ConfigurationError):
        FixedTimeConfig(durations=(0, 1, 1, 1))


def test_sotl_keeps_phase_when_queues_empty():
    cfg = SotlConfig(threshold=3, min_green=1)
    waiting = {p: 0.0 for p in PHASE_IDS}
    assert sotl_act(cfg, waiting, current_phase=2, intervals_in_phase=5) == 2


def test_sotl_switches_to_max_waiting_phase():
    cfg = SotlConfig(threshold=3, min_green=1)
    waiting = {p: 0.0 for p in PHASE_IDS}
    waiting[6] = 5.0
    assert sotl_act(cfg, waiting, current_phase=1, intervals_in_phase=2) == 6


def test_sotl_min_green_has_precedence():
    cfg = SotlConfig(threshold=3, min_green=2)
    waiting = {p: 0.0 for p in PHASE_IDS}
    waiting[6] = 50.0
    assert sotl_act(cfg, waiting, current_phase=1, intervals_in_phase=1) == 1
    assert sotl_act(cfg, waiting, current_phase=1, intervals_in_phase=2) == 6


def test_sotl_below_threshold_keeps_current():
    cfg = SotlConfig(threshold=3, min_green=1)
    waiting = {p: 0.0 for p in PHASE_IDS}
    waiting[6] = 2.0
    assert sotl_act(cfg, waiting, current_phase=1, intervals_in_phase=9) == 1


def test_max_pressure_tie_breaks_to_lowest_phase():
    queues = {(a, m): (2.0, 1.0) for a in APPROACHES for m in MOVEMENTS}
    assert max_pressure_act(queues) == 1


def test_max_pressure_hand_case():
    """Hand arithmetic over all 8 phases: phase 7 (E through+left) scores
    (4-1) + (3-0) = 6; every other phase totals at most 5."""
    queues = {(a, m): (1.0, 0.0) for a in APPROACHES for m in MOVEMENTS}
    queues[("E", "through")] = (4.0, 1.0)
    queues[("E", "left")] = (3.0, 0.0)
    scores = {}
    for phase in PHASES:
        scores[phase.id] = sum(
            queues[mv][0] - queues[mv][1]
            for mv in phase.permitted_movements
        )
    assert scores[7] == 6.0
    assert max(v for k, v in scores.items() if k != 7) <= 5.0
    assert max_pressure_act(queues) == 7


def test_max_pressure_scaling_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        queues = {(a, m): (float(rng.integers(0, 10)), float(rng.integers(0, 10)))
                  for a in APPROACHES for m in MOVEMENTS}
        doubled = {k: (2 * u, 2 * d) for k, (u, d) in queues.items()}
        assert max_pressure_act(queues) == max_pressure_act(doubled)


def test_max_pressure_constant_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        queues = {(a, m): (float(rng.integers(0, 10)), float(rng.integers(0, 10)))
                  for a in APPROACHES for m in MOVEMENTS}
        shifted = {k: (u + 7.0, d + 7.0) for k, (u, d) in queues.items()}
        assert max_pressure_act(queues) == max_pressure_act(shifted)


def test_controllers_return_valid_phases_on_sim():
    flows = [Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                  end_s=600, headway_s=5)]
    net = RoadNetwork(rows=2, cols=2)
    rng = np.random.default_rng(0)
    controllers = [
        FixedTimeController(),
        SotlController(),
        MaxPressureController(),
        RandomController(np.random.default_rng(1)),
        EpsilonMixController(MaxPressureController(), 0.3, rng),
    ]
    for ctrl in controllers:
        sim = reset(net, flows, seed=2)
        ctrl.begin_episode(sim)
        obs, _ = sim.snapshot()
        for t in range(5):
            acts = ctrl.decide(sim, t, obs)
            assert set(acts) == set(sim.nodes)
            assert all(a in PHASE_IDS for a in acts.values())
            sim.step(acts)
            obs, _ = sim.snapshot()


def test_max_pressure_drains_queue_on_sim():
    # one heavy southbound flow: max-pressure should hold phase 1 mostly
    flows = [Flow(origin=("N", 0), route=("through", "through"), start_s=0,
                  end_s=1200, headway_s=4)]
    net = RoadNetwork(rows=2, cols=2)
    sim = reset(net, flows, seed=0)
    ctrl = MaxPressureController()
    ctrl.begin_episode(sim)
    obs, _ = sim.snapshot()
    for t in range(30):
        acts = ctrl.decide(sim, t, obs)
        sim.step(acts)
        obs, _ = sim.snapshot()
    assert sim.exited > 0


# -- the decision rules against reference copies of the per-call code ---------

def _max_pressure_reference(movement_queues):
    """max_pressure_act as it read when it sorted each phase's movements
    on every call."""
    best = PHASE_IDS[0]
    best_p = -np.inf
    for phase in PHASES:
        pressure = 0.0
        for mv in sorted(phase.permitted_movements):
            up, down = movement_queues.get(mv, (0.0, 0.0))
            pressure += up - down
        if pressure > best_p:
            best, best_p = phase.id, pressure
    return best


class _ReadOrder(dict):
    """A queue mapping that logs the movements read, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


# an approach lane holds whole vehicles and a receiving link's mean counts
# thirds of one, from few values so that phases tie
_QUEUE = st.tuples(st.integers(0, 4).map(float),
                   st.integers(0, 12).map(lambda k: k / 3))
_QUEUES = st.dictionaries(
    st.sampled_from([(a, m) for a in APPROACHES for m in MOVEMENTS]), _QUEUE)


@settings(max_examples=300, deadline=None)
@given(_QUEUES)
def test_max_pressure_act_equals_the_per_call_reference(queues):
    """Equal to the reference on drawn queues, ties and missing movements
    included, and each phase adds its movements in sorted order, as the
    reference did, whatever order the phase's frozenset iterates in."""
    assert max_pressure_act(queues) == _max_pressure_reference(queues)
    logged = _ReadOrder(queues)
    max_pressure_act(logged)
    assert logged.reads == [mv for phase in PHASES
                            for mv in sorted(phase.permitted_movements)]


class _ReferenceSotl(SotlController):
    """SotlController.decide as it read when it rebuilt the lane indices
    and read numpy scalars one by one on every call."""

    def decide(self, env, interval_index, obs):
        out = {}
        for node in env.nodes:
            waiting = env.waiting_counts(node)
            by_phase = {}
            for phase in PHASES:
                total = 0.0
                for approach, movement in phase.permitted_movements:
                    lane = (APPROACHES.index(approach) * len(MOVEMENTS)
                            + MOVEMENTS.index(movement))
                    total += float(waiting[lane])
                by_phase[phase.id] = total
            cur = self._phase.get(node, PHASE_IDS[0])
            nxt = sotl_act(self.cfg, by_phase, cur, self._held.get(node, 0))
            if nxt == cur:
                self._held[node] = self._held.get(node, 0) + 1
            else:
                self._held[node] = 1
            self._phase[node] = nxt
            out[node] = nxt
        return out


class _WaitingTrace:
    """An environment that answers waiting_counts from a recorded trace."""

    nodes = ((0, 0), (0, 1))

    def __init__(self, trace):
        self.trace = trace
        self.t = 0

    def waiting_counts(self, node):
        return np.array(self.trace[self.t][self.nodes.index(node)],
                        dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.lists(st.integers(0, 4), min_size=12,
                                  max_size=12), min_size=2, max_size=2),
                min_size=1, max_size=12),
       st.integers(0, 6), st.integers(1, 3))
def test_sotl_decide_equals_the_per_call_reference(trace, threshold,
                                                   min_green):
    """Over drawn waiting counts (ties included) and settings, SOTL's
    decisions and its held-phase state equal the reference's interval by
    interval."""
    fast, ref = SotlController(), _ReferenceSotl()
    env = _WaitingTrace(trace)
    for ctrl in (fast, ref):
        ctrl.cfg = SotlConfig(threshold=threshold, min_green=min_green)
        ctrl.begin_episode(env)
    for t in range(len(trace)):
        env.t = t
        assert fast.decide(env, t, {}) == ref.decide(env, t, {})
        assert (fast._phase, fast._held) == (ref._phase, ref._held)
