"""Conventional signal controllers: fixed-time cycling, threshold-based
switching (SOTL), max-pressure, and uniform random phases.

The core decision rules are pure functions; the *Controller classes adapt
them to the simulator's per-intersection queries so they can drive episodes
and bootstrap experience collection.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .sim.network import APPROACHES, MOVEMENTS, PHASE_IDS, PHASES


@dataclass(frozen=True)
class FixedTimeConfig:
    """Ordered phase cycle with per-phase durations in action intervals."""

    phases: tuple[int, ...] = (1, 2, 3, 4)
    durations: tuple[int, ...] = (2, 2, 2, 2)

    def __post_init__(self):
        if len(self.phases) != len(self.durations):
            raise ConfigurationError("phases and durations must align")
        if any(p not in PHASE_IDS for p in self.phases):
            raise ConfigurationError(f"phase ids must be in [1, 8]: {self.phases}")
        if any(d < 1 for d in self.durations):
            raise ConfigurationError(f"durations must be >= 1: {self.durations}")

    @property
    def period(self) -> int:
        return sum(self.durations)


def fixed_time_act(cfg: FixedTimeConfig, interval_index: int) -> int:
    """Phase for the given interval; a pure function of the index."""
    pos = interval_index % cfg.period
    for phase, dur in zip(cfg.phases, cfg.durations):
        if pos < dur:
            return phase
        pos -= dur
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class SotlConfig:
    threshold: int = 3
    min_green: int = 1

    def __post_init__(self):
        if self.threshold < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {self.threshold}")
        if self.min_green < 1:
            raise ConfigurationError(f"min_green must be >= 1, got {self.min_green}")


def sotl_act(cfg: SotlConfig, waiting_by_phase: dict[int, float],
             current_phase: int, intervals_in_phase: int) -> int:
    """Keep the current phase until min_green has elapsed; then switch to
    the phase serving the most waiting vehicles if any competing phase's
    waiting count reaches the threshold."""
    if intervals_in_phase < cfg.min_green:
        return current_phase
    competing = max(
        (waiting_by_phase.get(p, 0.0) for p in PHASE_IDS if p != current_phase),
        default=0.0,
    )
    if competing < cfg.threshold:
        return current_phase
    best = current_phase
    best_w = -1.0
    for p in PHASE_IDS:
        w = waiting_by_phase.get(p, 0.0)
        if w > best_w:
            best, best_w = p, w
    return best


# each phase's permitted movements in sorted order, which fixes the order
# of max_pressure_act's float additions
_PHASE_MOVEMENTS = tuple((phase.id, tuple(sorted(phase.permitted_movements)))
                         for phase in PHASES)
# each phase's permitted movements as lane indices into waiting_counts
_PHASE_LANES = tuple(
    (phase_id, tuple(APPROACHES.index(approach) * len(MOVEMENTS)
                     + MOVEMENTS.index(movement)
                     for approach, movement in movements))
    for phase_id, movements in _PHASE_MOVEMENTS)


def max_pressure_act(movement_queues: dict[tuple[str, str], tuple[float, float]]) -> int:
    """Phase whose permitted movements have the largest total upstream minus
    downstream queue; ties resolve to the lowest phase id."""
    best = PHASE_IDS[0]
    best_p = -np.inf
    for phase_id, movements in _PHASE_MOVEMENTS:
        pressure = 0.0
        for mv in movements:
            up, down = movement_queues.get(mv, (0.0, 0.0))
            pressure += up - down
        if pressure > best_p:
            best, best_p = phase_id, pressure
    return best


class FixedTimeController:
    def __init__(self):
        self.cfg = FixedTimeConfig()

    def begin_episode(self, env) -> None:
        pass

    def decide(self, env, interval_index: int, obs: Mapping) -> dict:
        phase = fixed_time_act(self.cfg, interval_index)
        return {node: phase for node in env.nodes}


class RandomController:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def begin_episode(self, env) -> None:
        pass

    def decide(self, env, interval_index: int, obs: Mapping) -> dict:
        return {node: int(self.rng.integers(1, len(PHASE_IDS) + 1))
                for node in env.nodes}


class SotlController:
    """Per-intersection threshold switcher fed by waiting-vehicle counts."""

    def __init__(self):
        self.cfg = SotlConfig()
        self._phase: dict = {}
        self._held: dict = {}

    def begin_episode(self, env) -> None:
        self._phase = {node: PHASE_IDS[0] for node in env.nodes}
        self._held = {node: 0 for node in env.nodes}

    def decide(self, env, interval_index: int, obs: Mapping) -> dict:
        out = {}
        for node in env.nodes:
            waiting = env.waiting_counts(node).tolist()
            by_phase = {phase_id: sum([waiting[i] for i in lanes], 0.0)
                        for phase_id, lanes in _PHASE_LANES}
            cur = self._phase.get(node, PHASE_IDS[0])
            nxt = sotl_act(self.cfg, by_phase, cur, self._held.get(node, 0))
            if nxt == cur:
                self._held[node] = self._held.get(node, 0) + 1
            else:
                self._held[node] = 1
            self._phase[node] = nxt
            out[node] = nxt
        return out


class MaxPressureController:
    def begin_episode(self, env) -> None:
        pass

    def decide(self, env, interval_index: int, obs: Mapping) -> dict:
        return {node: max_pressure_act(env.movement_queues(node))
                for node in env.nodes}


class EpsilonMixController:
    """Wraps a controller, replacing each decision with a uniform random
    phase with probability epsilon; used to diversify collected experience."""

    def __init__(self, base, epsilon: float, rng: np.random.Generator):
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        self.base = base
        self.epsilon = epsilon
        self.rng = rng

    def begin_episode(self, env) -> None:
        self.base.begin_episode(env)

    def decide(self, env, interval_index: int, obs: Mapping) -> dict:
        acts = self.base.decide(env, interval_index, obs)
        for node in env.nodes:
            if self.rng.random() < self.epsilon:
                acts[node] = int(self.rng.integers(1, len(PHASE_IDS) + 1))
        return acts
