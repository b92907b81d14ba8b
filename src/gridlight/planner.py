"""The modular controller: an observation-to-state estimator, a learned
one-step dynamics model, and an explicit congestion value over predicted
trajectories.

States are blurred into blocks of ``pass_grids`` consecutive grids before
scoring: vehicles anywhere within one block can clear the intersection in a
single phase, so their exact grid carries no decision-relevant information.
The value of a trajectory is the negative discounted sum of block
occupancies, discounted along both time and distance from the intersection;
the distance between two states is the discounted squared difference of
their block sums, and doubles as the training loss for both models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigurationError, ShapeError
from .sim.network import SCHEMA_DIMS, PHASE_IDS, Observation

CANDIDATE_MODES = ("CONSTANT", "FULL")
FULL_MODE_LIMIT = 4096


def _check_block_config(state_grids: int, pass_grids: int, where: str):
    if state_grids % pass_grids != 0:
        raise ConfigurationError(
            f"{where}: state_grids ({state_grids}) must be a multiple of "
            f"pass_grids ({pass_grids})"
        )


@dataclass(frozen=True)
class ValueConfig:
    """Horizon and discounts for the trajectory value."""

    horizon: int
    step_discount: float
    block_discount: float
    state_grids: int
    pass_grids: int

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {self.horizon}")
        for name, v in (("step_discount", self.step_discount),
                        ("block_discount", self.block_discount)):
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v}")
        _check_block_config(self.state_grids, self.pass_grids, "ValueConfig")

    @property
    def blocks(self) -> int:
        return self.state_grids // self.pass_grids


@dataclass(frozen=True)
class DistanceConfig:
    """Block discount for the state distance."""

    block_discount: float
    state_grids: int
    pass_grids: int

    def __post_init__(self):
        if not 0.0 <= self.block_discount <= 1.0:
            raise ConfigurationError(
                f"block_discount must be in [0, 1], got {self.block_discount}"
            )
        _check_block_config(self.state_grids, self.pass_grids, "DistanceConfig")

    @property
    def blocks(self) -> int:
        return self.state_grids // self.pass_grids


def block_sums(state: np.ndarray, state_grids: int, pass_grids: int) -> np.ndarray:
    """Occupancy per distance block, summed over lanes.

    Accepts (lanes, N) or a batch (..., lanes, N); returns (..., N/n).
    """
    s = np.asarray(state, dtype=np.float64)
    if s.shape[-1] != state_grids:
        raise ShapeError(
            f"state has {s.shape[-1]} grid columns, expected {state_grids}"
        )
    blocks = state_grids // pass_grids
    shaped = s.reshape(*s.shape[:-1], blocks, pass_grids)
    return shaped.sum(axis=(-1, -3))


def trajectory_value(states, vc: ValueConfig) -> float:
    """Negative discounted block occupancy over a state trajectory.

    ``states`` holds the h+1 states scored at time offsets 0..h; always <= 0.
    """
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeError(f"trajectory must be (h+1, lanes, N), got {arr.shape}")
    if arr.shape[0] != vc.horizon + 1:
        raise ShapeError(
            f"trajectory length {arr.shape[0]} != horizon + 1 = {vc.horizon + 1}"
        )
    blocks = block_sums(arr, vc.state_grids, vc.pass_grids)  # (h+1, N/n)
    w_time = vc.step_discount ** np.arange(vc.horizon + 1)
    w_block = vc.block_discount ** np.arange(vc.blocks)
    return float(-(w_time @ blocks @ w_block))


def state_distance(s1, s2, dc: DistanceConfig) -> float:
    """Discounted squared difference of block sums; nonnegative, symmetric."""
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"state shapes differ: {a.shape} vs {b.shape}")
    d = (block_sums(a, dc.state_grids, dc.pass_grids)
         - block_sums(b, dc.state_grids, dc.pass_grids))
    w = dc.block_discount ** np.arange(dc.blocks)
    return float((w * d * d).sum())


def block_distance_loss(dc: DistanceConfig, lanes: int) -> nn.LossFn:
    """Loss over a batch of whole (lanes, N) states: mean over the batch of
    the block distance to the target state.

    Predictions may come flattened per state, (B, lanes * N), as from the
    dynamics net, or per lane row, (B * lanes, N), as from the estimator;
    either way the block sums couple all lanes of a state, and the gradient
    comes back in the shape of ``pred``.
    """
    blocks = dc.blocks
    n = dc.pass_grids
    w = dc.block_discount ** np.arange(blocks)

    def loss_fn(pred: np.ndarray, target: np.ndarray):
        bsz, rest = divmod(pred.size, lanes * dc.state_grids)
        if rest:
            raise ShapeError(
                f"batch of {pred.size} values is not a whole number of "
                f"({lanes}, {dc.state_grids}) states"
            )
        diff = (pred - target).reshape(bsz, lanes, blocks, n).sum(axis=(1, 3))
        per = (w * diff * diff).sum(axis=1)
        dblocks = (2.0 / bsz) * w * diff                      # (B, blocks)
        dpred = np.repeat(dblocks, n, axis=1)                 # (B, N)
        dpred = np.broadcast_to(dpred[:, None, :], (bsz, lanes, blocks * n))
        return float(per.mean()), dpred.reshape(pred.shape)

    return loss_fn


# The estimator is applied per lane row; the same loss serves its layout.
rowwise_block_distance_loss = block_distance_loss


def default_estimator_net(schema_id: str, state_grids: int,
                          hidden: tuple[int, ...] = (32, 32),
                          seed: int = 0) -> nn.Net:
    if schema_id not in SCHEMA_DIMS:
        raise ConfigurationError(f"unknown observation schema {schema_id!r}")
    sizes = (SCHEMA_DIMS[schema_id], *hidden, state_grids)
    return nn.net_new(sizes, output_activation="softplus", seed=seed)


def default_dynamics_net(lanes: int, state_grids: int,
                         hidden: tuple[int, ...] = (128, 128),
                         seed: int = 0) -> nn.Net:
    sizes = (lanes * state_grids + len(PHASE_IDS), *hidden, lanes * state_grids)
    return nn.net_new(sizes, output_activation="softplus", seed=seed)


def phase_encode(rows: np.ndarray, actions) -> np.ndarray:
    """Net input for predicting the next state: each row (a flattened state
    or observation) followed by a one-hot of its phase."""
    onehot = np.zeros((rows.shape[0], len(PHASE_IDS)))
    onehot[np.arange(rows.shape[0]), np.asarray(actions) - 1] = 1.0
    return np.concatenate([rows, onehot], axis=1)


@dataclass
class StateEstimator:
    """Maps one intersection's observation to an estimated occupancy state.

    The net is applied per lane row and shared across lanes and
    intersections; outputs are nonnegative reals, not integer counts.
    """

    net: nn.Net
    schema_id: str
    lanes: int
    state_grids: int

    def estimate(self, obs: Observation) -> np.ndarray:
        self.check(obs.schema_id, obs.values.shape[0])
        return nn.forward(self.net, obs.values)

    def check(self, schema_id: str, lanes: int) -> None:
        """Raise ``ShapeError`` unless observations of ``schema_id`` with
        ``lanes`` lane rows fit this estimator."""
        if schema_id != self.schema_id:
            raise ShapeError(
                f"estimator expects schema {self.schema_id}, observation "
                f"has {schema_id}"
            )
        if lanes != self.lanes:
            raise ShapeError(
                f"observation has {lanes} lanes, estimator expects "
                f"{self.lanes}"
            )


@dataclass
class DynamicsModel:
    """Predicts the next intersection state from (state, phase); shared
    across intersections and cities."""

    net: nn.Net
    lanes: int
    state_grids: int

    def predict_flat(self, flat_states: np.ndarray,
                     actions: np.ndarray) -> np.ndarray:
        """Batched one-step prediction on flattened (lanes * N) states."""
        flat_states = np.asarray(flat_states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.int64)
        if flat_states.ndim != 2 or flat_states.shape[1] != self.lanes * self.state_grids:
            raise ShapeError(
                f"flat states must be (batch, {self.lanes * self.state_grids}), "
                f"got {flat_states.shape}"
            )
        return nn.forward(self.net, phase_encode(flat_states, actions))

    def predict(self, state: np.ndarray, action: int) -> np.ndarray:
        """One-step prediction for a single (lanes, N) state."""
        s = np.asarray(state, dtype=np.float64)
        if s.shape != (self.lanes, self.state_grids):
            raise ShapeError(
                f"state must be ({self.lanes}, {self.state_grids}), got {s.shape}"
            )
        flat = self.predict_flat(s.reshape(1, -1), np.array([action]))
        return flat.reshape(self.lanes, self.state_grids)


def rollout(dyn, state: np.ndarray, actions) -> list[np.ndarray]:
    """Apply the dynamics model once per action, returning the predicted
    states after each step (length == len(actions))."""
    out = []
    s = np.asarray(state, dtype=np.float64)
    for a in actions:
        s = dyn.predict(s, int(a))
        out.append(s)
    return out


@dataclass(frozen=True)
class PolicyConfig:
    """Exploration rate and candidate enumeration mode."""

    epsilon: float = 0.1
    candidate_mode: str = "CONSTANT"

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1], got {self.epsilon}"
            )
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ConfigurationError(
                f"candidate_mode must be one of {CANDIDATE_MODES}, "
                f"got {self.candidate_mode!r}"
            )


def candidate_sequences(mode: str, horizon: int) -> list[tuple[int, ...]]:
    """Phase sequences of length horizon + 1, ordered so ties resolve to the
    lowest phase id."""
    if mode == "CONSTANT":
        return [(p,) * (horizon + 1) for p in PHASE_IDS]
    count = len(PHASE_IDS) ** (horizon + 1)
    if count > FULL_MODE_LIMIT:
        raise ConfigurationError(
            f"FULL candidate mode needs {count} sequences, limit is "
            f"{FULL_MODE_LIMIT}"
        )
    return list(itertools.product(PHASE_IDS, repeat=horizon + 1))


def select_action(estimator, dynamics, obs, policy: PolicyConfig,
                  vc: ValueConfig, rng: np.random.Generator) -> tuple[int, ...]:
    """Pick the phase sequence whose predicted trajectory scores highest.

    With probability epsilon a uniformly random candidate is returned.
    Otherwise the observation is mapped to an estimated state, every
    candidate sequence is rolled out through the dynamics model, and the
    sequence with maximal trajectory value wins (ties to the lowest phase
    id). Callers execute only the first phase before re-planning.
    """
    cands = candidate_sequences(policy.candidate_mode, vc.horizon)
    if policy.epsilon > 0.0 and rng.random() < policy.epsilon:
        return cands[int(rng.integers(len(cands)))]
    s0 = np.asarray(estimator.estimate(obs), dtype=np.float64)
    k = len(cands)
    flat = np.broadcast_to(s0.reshape(1, -1), (k, s0.size)).copy()
    w_block = vc.block_discount ** np.arange(vc.blocks)
    costs = np.zeros(k)
    lanes = s0.shape[0]
    for step in range(vc.horizon + 1):
        acts = np.fromiter((c[step] for c in cands), dtype=np.int64, count=k)
        flat = dynamics.predict_flat(flat, acts)
        blocks = flat.reshape(k, lanes, vc.blocks, vc.pass_grids).sum(axis=(1, 3))
        costs += (vc.step_discount ** step) * (blocks @ w_block)
    return cands[int(np.argmin(costs))]


class PlannerController:
    """Per-interval controller: one shared estimator/dynamics pair drives
    every intersection, re-planning each interval."""

    def __init__(self, estimator: StateEstimator, dynamics: DynamicsModel,
                 policy: PolicyConfig, vc: ValueConfig,
                 rng: np.random.Generator):
        self.estimator = estimator
        self.dynamics = dynamics
        self.policy = policy
        self.vc = vc
        self.rng = rng

    def begin_episode(self, env) -> None:
        pass

    def decide(self, env, interval_index: int, obs: dict) -> dict:
        return {
            node: select_action(self.estimator, self.dynamics, obs[node],
                                self.policy, self.vc, self.rng)[0]
            for node in env.nodes
        }
