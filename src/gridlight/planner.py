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

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigurationError, ShapeError
from .sim.network import SCHEMA_DIMS, PHASE_IDS, Observation


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

    Bit for bit this is ``reshape(..., lanes, N/n, n).sum(axis=(-1, -3))``,
    whose summation order the golden pins depend on. For n < 8 numpy adds
    each lane's n grids of a block left to right, starting from +0.0, then
    adds the lanes' block sums one after another in lane order; here that is
    n - 1 elementwise adds over strided views and one add per lane, with no
    reshape-and-reduce. For n >= 8 numpy sums each block pairwise with eight
    accumulators, so that case keeps numpy's reduction.
    """
    s = np.asarray(state, dtype=np.float64)
    if s.ndim < 2 or s.shape[-1] != state_grids:
        raise ShapeError(
            f"state of shape {s.shape} is not (..., lanes, {state_grids})"
        )
    n = pass_grids
    if n >= 8:
        shaped = s.reshape(*s.shape[:-1], state_grids // n, n)
        return shaped.sum(axis=(-1, -3))
    grids = s[..., 0::n]                                  # (..., lanes, blocks)
    if n > 1:
        grids = grids + s[..., 1::n]
        for j in range(2, n):
            grids += s[..., j::n]
    out = grids[..., 0, :] + 0.0    # + 0.0: a block of -0.0s sums to +0.0
    for lane in range(1, s.shape[-2]):
        out += grids[..., lane, :]
    return out


def trajectory_value(states, vc: ValueConfig):
    """Negative discounted block occupancy over state trajectories.

    ``states`` holds the h+1 states scored at time offsets 0..h, shaped
    (h+1, lanes, N), and the value is a float; or a batch of B such
    trajectories, (B, h+1, lanes, N), and the values are a (B,) array.
    Steps are summed in time order, each adding ``step_discount**step``
    times its block-discounted occupancy. Values are always <= 0.
    """
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim not in (3, 4):
        raise ShapeError(
            f"trajectory must be (h+1, lanes, N) or (B, h+1, lanes, N), "
            f"got {arr.shape}")
    batch = arr if arr.ndim == 4 else arr[None]
    if batch.shape[1] != vc.horizon + 1:
        raise ShapeError(
            f"trajectory length {batch.shape[1]} != horizon + 1 = {vc.horizon + 1}"
        )
    blocks = block_sums(batch, vc.state_grids, vc.pass_grids)  # (B, h+1, N/n)
    w_block = vc.block_discount ** np.arange(vc.blocks)
    cost = np.zeros(batch.shape[0])
    for step in range(vc.horizon + 1):
        cost += (vc.step_discount ** step) * (blocks[:, step] @ w_block)
    return -cost if arr.ndim == 4 else float(-cost[0])


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
        diff = block_sums((pred - target).reshape(bsz, lanes, dc.state_grids),
                          dc.state_grids, n)                  # (B, blocks)
        per = (w * diff * diff).sum(axis=1)
        dblocks = (2.0 / bsz) * w * diff
        dpred = np.broadcast_to(dblocks[:, None, :, None],
                                (bsz, lanes, blocks, n))
        return float(per.mean()), dpred.reshape(pred.shape)

    return loss_fn


# The estimator is applied per lane row; the same loss serves its layout.
rowwise_block_distance_loss = block_distance_loss


def default_estimator_net(schema_id: str, state_grids: int,
                          hidden: tuple[int, ...], seed: int = 0) -> nn.Net:
    if schema_id not in SCHEMA_DIMS:
        raise ConfigurationError(f"unknown observation schema {schema_id!r}")
    sizes = (SCHEMA_DIMS[schema_id], *hidden, state_grids)
    return nn.net_new(sizes, output_activation="softplus", seed=seed)


def default_dynamics_net(lanes: int, state_grids: int,
                         hidden: tuple[int, ...], seed: int = 0) -> nn.Net:
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

    def estimate(self, observations: Sequence[Observation]) -> np.ndarray:
        """The (B, lanes, N) estimated states of B >= 1 observations, from
        one forward pass over all their lane rows."""
        for obs in observations:
            self.check(obs.schema_id, obs.values.shape[0])
        rows = np.concatenate([obs.values for obs in observations])
        return nn.forward(self.net, rows).reshape(
            len(observations), self.lanes, self.state_grids)

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
        """Batched one-step prediction on flattened rows: (lanes * N)
        states, or observations in the monolithic ablation. ``nn.forward``
        raises ``ShapeError`` on rows of the wrong width."""
        flat_states = np.asarray(flat_states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.int64)
        return nn.forward(self.net, phase_encode(flat_states, actions))


@dataclass(frozen=True)
class PolicyConfig:
    """Exploration rate."""

    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1], got {self.epsilon}"
            )


def _plan(estimator, dynamics, observations, vc: ValueConfig) -> list[int]:
    """The greedy phase of each observation, planned together: one estimator
    pass maps the observations to estimated states, each phase held for h+1
    steps is rolled out from every state through the dynamics model with one
    pass per step, and each observation gets the phase of maximal trajectory
    value (ties to the lowest phase id)."""
    k = len(PHASE_IDS)
    s0 = np.asarray(estimator.estimate(observations),
                    dtype=np.float64)                      # (G, lanes, N)
    g = len(observations)
    flat = np.repeat(s0.reshape(g, -1), k, axis=0)         # node-major rows
    phases = np.tile(PHASE_IDS, g)
    lanes = s0.shape[1]
    traj = np.empty((g * k, vc.horizon + 1, lanes * vc.state_grids))
    for step in range(vc.horizon + 1):
        flat = dynamics.predict_flat(flat, phases)
        traj[:, step] = flat
    values = trajectory_value(
        traj.reshape(g * k, vc.horizon + 1, lanes, vc.state_grids),
        vc).reshape(g, k)
    return [PHASE_IDS[int(np.argmax(v))] for v in values]


def _plan_key(obs: Observation) -> tuple:
    """What a plan depends on in one observation: its schema, shape, dtype
    and bytes."""
    v = obs.values
    return obs.schema_id, v.shape, v.dtype.str, v.tobytes()


def select_actions(estimator, dynamics, observations, policy: PolicyConfig,
                   vc: ValueConfig, rng: np.random.Generator,
                   memo: dict | None = None) -> list[int]:
    """Pick a phase for each observation, in order.

    For each observation, with probability epsilon a uniformly random phase
    is drawn. The others are planned together (:func:`_plan`). Callers
    re-plan every interval.

    ``memo`` maps an observation's key (schema, shape, dtype and bytes) to
    the phase it was planned to, and holds only for the estimator and
    dynamics that filled it. A greedy observation whose key is in it takes
    the stored phase; each distinct key that is not is planned once, in one
    batched pass, and stored. The exploration draws are the same either
    way. The memo relies on a node's greedy pick depending on that node's
    observation alone: a value that reads other nodes' rows (a neighbour's
    queue, say) must key the memo on those rows too, or memoise per-node
    rollouts instead. BLAS rounds batches of other row counts differently,
    so a value planned with a memo can differ in its last bit from one
    planned without.
    """
    k = len(PHASE_IDS)
    picks = [PHASE_IDS[int(rng.integers(k))]
             if policy.epsilon > 0.0 and rng.random() < policy.epsilon
             else None for _ in observations]
    greedy = [i for i, pick in enumerate(picks) if pick is None]
    if memo is None:
        plan = greedy
    else:
        keys = {i: _plan_key(observations[i]) for i in greedy}
        # one node per distinct key not planned yet
        plan = list({keys[i]: i for i in greedy
                     if keys[i] not in memo}.values())
    if plan:
        for i, phase in zip(plan, _plan(
                estimator, dynamics, [observations[i] for i in plan], vc)):
            picks[i] = phase
    if memo is not None:
        memo.update((keys[i], picks[i]) for i in plan)
        for i in greedy:
            picks[i] = memo[keys[i]]
    return picks


def select_action(estimator, dynamics, obs, policy: PolicyConfig,
                  vc: ValueConfig, rng: np.random.Generator) -> int:
    """:func:`select_actions` for a single observation."""
    return select_actions(estimator, dynamics, [obs], policy, vc, rng)[0]


class PlannerController:
    """Per-interval controller: one shared estimator/dynamics pair drives
    every intersection, re-planning all of them together each interval.

    An observation already planned this episode takes its stored phase
    (``memo``, see :func:`select_actions`); ``phase_counts`` counts this
    episode's decisions per phase. ``begin_episode`` clears both, so nets
    replaced between episodes are planned afresh.
    """

    def __init__(self, estimator: StateEstimator, dynamics: DynamicsModel,
                 policy: PolicyConfig, vc: ValueConfig,
                 rng: np.random.Generator):
        self.estimator = estimator
        self.dynamics = dynamics
        self.policy = policy
        self.vc = vc
        self.rng = rng
        self.begin_episode(env=None)

    def begin_episode(self, env) -> None:
        self.memo: dict = {}
        self.phase_counts = dict.fromkeys(PHASE_IDS, 0)

    def decide(self, env, interval_index: int, obs: Mapping) -> dict:
        picks = select_actions(self.estimator, self.dynamics,
                               [obs[node] for node in env.nodes],
                               self.policy, self.vc, self.rng, self.memo)
        for phase in picks:
            self.phase_counts[phase] += 1
        return dict(zip(env.nodes, picks))
