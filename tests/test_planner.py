"""Planner tests: value/distance against independent brute-force loops,
blur invariance, model wrappers, rollout, action selection, and a pin of
the planner's decisions on city-c."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight import meta, nn, planner
from gridlight.errors import ConfigurationError, ShapeError
from gridlight.harness.config import DESK_CITIES
from gridlight.planner import (
    DistanceConfig,
    DynamicsModel,
    PolicyConfig,
    PlannerController,
    StateEstimator,
    ValueConfig,
    block_distance_loss,
    block_sums,
    default_dynamics_net,
    default_estimator_net,
    rowwise_block_distance_loss,
    select_action,
    select_actions,
    state_distance,
    trajectory_value,
)
from gridlight.sim.network import PHASE_IDS, SCHEMA_DIMS, Observation


def value_bruteforce(states, horizon, g1, g2, n_grids, n_pass):
    """Independent triple-loop evaluation of the trajectory value."""
    total = 0.0
    for i in range(horizon + 1):
        for j in range(n_grids // n_pass):
            block = 0.0
            for lane in range(len(states[i])):
                for col in range(j * n_pass, (j + 1) * n_pass):
                    block += states[i][lane][col]
            total += (g1 ** i) * (g2 ** j) * block
    return -total


def dist_bruteforce(s1, s2, beta, n_grids, n_pass):
    """Independent triple-loop evaluation of the state distance."""
    total = 0.0
    for j in range(n_grids // n_pass):
        b1 = b2 = 0.0
        for lane in range(len(s1)):
            for col in range(j * n_pass, (j + 1) * n_pass):
                b1 += s1[lane][col]
                b2 += s2[lane][col]
        total += (beta ** j) * (b1 - b2) ** 2
    return total


def test_value_hand_cases():
    vc = ValueConfig(0, 0.9, 0.5, 4, 2)
    s = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert trajectory_value([s], vc) == pytest.approx(-6.5, abs=1e-12)
    vc2 = ValueConfig(1, 0.9, 0.5, 4, 2)
    assert trajectory_value([s, s], vc2) == pytest.approx(-12.35, abs=1e-12)


def test_value_zero_trajectory():
    vc = ValueConfig(2, 0.9, 0.8, 8, 4)
    assert trajectory_value(np.zeros((3, 4, 8)), vc) == 0.0


def test_dist_hand_case():
    dc = DistanceConfig(0.5, 2, 1)
    assert state_distance([[2.0, 0.0]], [[0.0, 1.0]], dc) == pytest.approx(4.5, abs=1e-12)
    assert state_distance([[2.0, 0.0]], [[2.0, 0.0]], dc) == 0.0


def test_value_dist_match_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n_pass = int(rng.choice([2, 4]))
        n_grids = n_pass * int(rng.integers(1, 16 // n_pass + 1))
        lanes = int(rng.integers(1, 13))
        horizon = int(rng.integers(0, 4))
        g1, g2, beta = rng.uniform(0, 1, size=3)
        states = rng.integers(0, 5, size=(horizon + 1, lanes, n_grids)).astype(float)
        vc = ValueConfig(horizon, g1, g2, n_grids, n_pass)
        got = trajectory_value(states, vc)
        want = value_bruteforce(states, horizon, g1, g2, n_grids, n_pass)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        s2 = rng.integers(0, 5, size=(lanes, n_grids)).astype(float)
        dc = DistanceConfig(beta, n_grids, n_pass)
        got_d = state_distance(states[0], s2, dc)
        want_d = dist_bruteforce(states[0], s2, beta, n_grids, n_pass)
        assert got_d == pytest.approx(want_d, rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(bsz=st.integers(1, 20), horizon=st.integers(0, 3),
       lanes=st.integers(1, 6), blocks=st.integers(1, 4),
       pass_grids=st.integers(1, 3), g1=st.floats(0.0, 1.0),
       g2=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_value_matches_single_and_bruteforce(
        bsz, horizon, lanes, blocks, pass_grids, g1, g2, seed):
    n_grids = blocks * pass_grids
    vc = ValueConfig(horizon, g1, g2, n_grids, pass_grids)
    rng = np.random.default_rng(seed)
    trajs = rng.uniform(0.0, 5.0, size=(bsz, horizon + 1, lanes, n_grids))
    got = trajectory_value(trajs, vc)
    assert got.shape == (bsz,)
    single = [trajectory_value(t, vc) for t in trajs]
    brute = [value_bruteforce(t, horizon, g1, g2, n_grids, pass_grids)
             for t in trajs]
    # BLAS forms a one-row product with another kernel than a many-row
    # one, so the last bits may differ from the per-trajectory call
    assert got == pytest.approx(single, rel=1e-12, abs=1e-12)
    assert got == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_dist_symmetry():
    rng = np.random.default_rng(5)
    dc = DistanceConfig(0.8, 12, 4)
    for _ in range(50):
        a = rng.integers(0, 5, size=(6, 12)).astype(float)
        b = rng.integers(0, 5, size=(6, 12)).astype(float)
        assert state_distance(a, b, dc) == state_distance(b, a, dc)
        assert state_distance(a, b, dc) >= 0.0


def test_blur_invariance():
    # moving a vehicle within one pass-capacity block changes nothing
    rng = np.random.default_rng(21)
    vc = ValueConfig(0, 0.9, 0.8, 12, 4)
    dc = DistanceConfig(0.8, 12, 4)
    ref = rng.integers(0, 5, size=(6, 12)).astype(float)
    for _ in range(100):
        s = rng.integers(1, 4, size=(6, 12)).astype(float)
        lane = int(rng.integers(6))
        block = int(rng.integers(3))
        src = block * 4 + int(rng.integers(4))
        dst = block * 4 + int(rng.integers(4))
        moved = s.copy()
        moved[lane, src] -= 1
        moved[lane, dst] += 1
        assert trajectory_value([moved], vc) == trajectory_value([s], vc)
        assert state_distance(moved, ref, dc) == state_distance(s, ref, dc)


def test_value_monotone_in_occupancy():
    vc = ValueConfig(0, 0.9, 0.8, 12, 4)
    s = np.zeros((6, 12))
    base = trajectory_value([s], vc)
    for col in (0, 5, 11):
        more = s.copy()
        more[2, col] += 1
        assert trajectory_value([more], vc) < base


def test_value_shape_errors():
    vc = ValueConfig(1, 0.9, 0.8, 12, 4)
    with pytest.raises(ShapeError):
        trajectory_value(np.zeros((1, 6, 12)), vc)  # wrong length
    with pytest.raises(ShapeError):
        trajectory_value(np.zeros((2, 6, 10)), vc)  # wrong grid count
    dc = DistanceConfig(0.8, 12, 4)
    with pytest.raises(ShapeError):
        state_distance(np.zeros((6, 12)), np.zeros((5, 12)), dc)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ValueConfig(-1, 0.9, 0.8, 12, 4)
    with pytest.raises(ConfigurationError):
        ValueConfig(1, 1.5, 0.8, 12, 4)
    with pytest.raises(ConfigurationError):
        ValueConfig(1, 0.9, 0.8, 10, 4)  # N % n != 0
    with pytest.raises(ConfigurationError):
        DistanceConfig(0.8, 10, 4)


def test_block_distance_loss_grad_checks():
    dc = DistanceConfig(0.8, 8, 4)
    lanes = 3
    net = default_dynamics_net(lanes, 8, hidden=(16,), seed=0)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, size=(4, lanes * 8 + 8))
    y = rng.integers(0, 4, size=(4, lanes * 8)).astype(float)
    err = nn.grad_check(net, block_distance_loss(dc, lanes), x, y)
    assert err < 1e-4

    est = default_estimator_net("SCHEMA_A", 8, hidden=(12,), seed=1)
    xo = rng.uniform(0, 6, size=(2 * lanes, 2))
    yo = rng.integers(0, 4, size=(2 * lanes, 8)).astype(float)
    err = nn.grad_check(est, rowwise_block_distance_loss(dc, lanes), xo, yo)
    assert err < 1e-4


@settings(max_examples=60, deadline=None)
@given(bsz=st.integers(1, 5), lanes=st.integers(1, 4),
       blocks=st.integers(1, 4), pass_grids=st.integers(1, 3),
       discount=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_block_distance_loss_layouts_agree(bsz, lanes, blocks, pass_grids,
                                           discount, seed):
    # one batch of whole states, once flattened per state (dynamics net)
    # and once as lane rows (estimator): same loss, same gradient values
    n = blocks * pass_grids
    dc = DistanceConfig(discount, n, pass_grids)
    rng = np.random.default_rng(seed)
    pred = rng.uniform(0.0, 3.0, size=(bsz, lanes * n))
    target = rng.integers(0, 4, size=(bsz, lanes * n)).astype(float)
    loss_state, g_state = block_distance_loss(dc, lanes)(pred, target)
    loss_lane, g_lane = rowwise_block_distance_loss(dc, lanes)(
        pred.reshape(bsz * lanes, n), target.reshape(bsz * lanes, n))
    assert loss_lane == loss_state
    assert g_state.shape == (bsz, lanes * n)
    assert g_lane.shape == (bsz * lanes, n)
    assert np.array_equal(g_lane.reshape(bsz, lanes * n), g_state)
    oracle = np.mean([state_distance(p.reshape(lanes, n), t.reshape(lanes, n),
                                     dc) for p, t in zip(pred, target)])
    assert loss_state == pytest.approx(oracle, rel=1e-9, abs=1e-12)


# -- the block-sum kernel ------------------------------------------------------

def _numpy_block_sums(s, state_grids, pass_grids):
    """The reshape-and-reduce form whose bits the kernel must keep."""
    shaped = s.reshape(*s.shape[:-1], state_grids // pass_grids, pass_grids)
    return shaped.sum(axis=(-1, -3))


def _mixed_values(rng, shape, zero_share):
    """Signed values over 24 decades, with a share of +0.0 and -0.0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
    zeros = rng.random(shape) < zero_share
    x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return x


@st.composite
def _block_cases(draw):
    state_grids = draw(st.sampled_from((12, 16, 24, 30)))
    pass_grids = draw(st.sampled_from(
        [d for d in range(1, state_grids + 1) if state_grids % d == 0]))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    lanes = draw(st.integers(1, 16))
    return state_grids, pass_grids, (*lead, lanes, state_grids)


@settings(max_examples=300, deadline=None)
@given(case=_block_cases(), zero_share=st.sampled_from((0.0, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_sums_equals_numpy_reduction_bit_for_bit(case, zero_share,
                                                       seed):
    state_grids, pass_grids, shape = case
    s = _mixed_values(np.random.default_rng(seed), shape, zero_share)
    got = block_sums(s, state_grids, pass_grids)
    want = _numpy_block_sums(s, state_grids, pass_grids)
    assert got.shape == want.shape == (*shape[:-2], state_grids // pass_grids)
    assert got.tobytes() == want.tobytes()


def test_block_sums_of_negative_zeros_is_positive_zero():
    s = np.full((2, 3, 12), -0.0)
    for pass_grids in (1, 2, 3, 4, 6, 12):
        got = block_sums(s, 12, pass_grids)
        assert got.tobytes() == np.zeros(12 // pass_grids * 2).tobytes()


def test_block_sums_shape_errors():
    with pytest.raises(ShapeError):
        block_sums(np.zeros((3, 10)), 12, 4)
    with pytest.raises(ShapeError):
        block_sums(np.zeros(12), 12, 4)


def _repeat_block_distance_loss(dc, lanes):
    """The loss as written before it called ``block_sums``: its own reduce
    and an ``np.repeat`` of the block gradient."""
    blocks, n = dc.blocks, dc.pass_grids
    w = dc.block_discount ** np.arange(blocks)

    def loss_fn(pred, target):
        bsz = pred.size // (lanes * dc.state_grids)
        diff = (pred - target).reshape(bsz, lanes, blocks, n).sum(axis=(1, 3))
        per = (w * diff * diff).sum(axis=1)
        dblocks = (2.0 / bsz) * w * diff
        dpred = np.repeat(dblocks, n, axis=1)
        dpred = np.broadcast_to(dpred[:, None, :], (bsz, lanes, blocks * n))
        return float(per.mean()), dpred.reshape(pred.shape)

    return loss_fn


@settings(max_examples=100, deadline=None)
@given(case=_block_cases(), bsz=st.integers(1, 6), rowwise=st.booleans(),
       discount=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_block_distance_loss_keeps_the_repeat_form_bytes(case, bsz, rowwise,
                                                         discount, seed):
    state_grids, pass_grids, shape = case
    lanes = shape[-2]
    dc = DistanceConfig(discount, state_grids, pass_grids)
    rng = np.random.default_rng(seed)
    layout = ((bsz * lanes, state_grids) if rowwise
              else (bsz, lanes * state_grids))
    pred = _mixed_values(rng, layout, 0.2)
    target = rng.integers(0, 4, size=layout).astype(float)
    loss, grad = block_distance_loss(dc, lanes)(pred, target)
    want_loss, want_grad = _repeat_block_distance_loss(dc, lanes)(pred, target)
    assert loss.hex() == want_loss.hex()
    assert grad.shape == want_grad.shape == pred.shape
    assert grad.tobytes() == want_grad.tobytes()


def _stacked_select_actions(estimator, dynamics, observations, policy, vc,
                            rng, seen):
    """``select_actions`` as written with an ``np.stack`` of the rollout
    steps; appends each scored trajectory batch and its values to seen."""
    k = len(PHASE_IDS)
    picks = [PHASE_IDS[int(rng.integers(k))]
             if policy.epsilon > 0.0 and rng.random() < policy.epsilon
             else None for _ in observations]
    greedy = [i for i, pick in enumerate(picks) if pick is None]
    if greedy:
        s0 = np.asarray(estimator.estimate([observations[i] for i in greedy]),
                        dtype=np.float64)
        g = len(greedy)
        flat = np.repeat(s0.reshape(g, -1), k, axis=0)
        phases = np.tile(PHASE_IDS, g)
        steps = []
        for _ in range(vc.horizon + 1):
            flat = dynamics.predict_flat(flat, phases)
            steps.append(flat.reshape(g * k, -1, vc.state_grids))
        traj = np.stack(steps, axis=1)
        values = trajectory_value(traj, vc)
        seen.append((traj.tobytes(), values.tobytes()))
        for i, v in zip(greedy, values.reshape(g, k)):
            picks[i] = PHASE_IDS[int(np.argmax(v))]
    return picks


@settings(max_examples=30, deadline=None)
@given(schema=st.sampled_from(sorted(SCHEMA_DIMS)), lanes=st.integers(1, 12),
       grids=st.sampled_from(((8, 4), (12, 4), (12, 3), (16, 8))),
       horizon=st.integers(0, 3), nodes=st.integers(1, 8),
       epsilon=st.sampled_from((0.0, 0.3)), seed=st.integers(0, 2 ** 31 - 1))
def test_select_actions_keeps_the_stacked_rollout_bits(
        schema, lanes, grids, horizon, nodes, epsilon, seed):
    state_grids, pass_grids = grids
    rng = np.random.default_rng(seed)
    est = StateEstimator(default_estimator_net(
        schema, state_grids, (8,), seed=int(rng.integers(2 ** 31))),
        schema, lanes, state_grids)
    dyn = DynamicsModel(default_dynamics_net(
        lanes, state_grids, (16,), seed=int(rng.integers(2 ** 31))),
        lanes, state_grids)
    vc = ValueConfig(horizon, 0.9, 0.8, state_grids, pass_grids)
    policy = PolicyConfig(epsilon=epsilon)
    seen, want = [], []
    value = planner.trajectory_value

    def recorded(states, cfg):
        out = value(states, cfg)
        seen.append((np.ascontiguousarray(states).tobytes(), out.tobytes()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "trajectory_value", recorded)
        for _ in range(3):
            obs = [Observation(schema,
                               rng.uniform(0, 6, (lanes, SCHEMA_DIMS[schema])))
                   for _ in range(nodes)]
            draw = int(rng.integers(2 ** 31))
            picks = select_actions(est, dyn, obs, policy, vc,
                                   np.random.default_rng(draw))
            assert picks == _stacked_select_actions(
                est, dyn, obs, policy, vc, np.random.default_rng(draw), want)
    assert seen == want


def test_every_block_reduction_goes_through_block_sums(monkeypatch):
    """The value, the distance, the training loss and the mean distance all
    reduce blocks through ``block_sums``: no inline copy of the reduction."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return block_sums(*args, **kwargs)

    for module in (planner, meta):
        monkeypatch.setattr(module, "block_sums", counted)
    rng = np.random.default_rng(0)
    vc = ValueConfig(1, 0.9, 0.8, 12, 4)
    dc = DistanceConfig(0.8, 12, 4)
    states = rng.uniform(0, 3, (5, 2, 4, 12))
    uses = {
        "trajectory_value": lambda: trajectory_value(states, vc),
        "state_distance": lambda: state_distance(states[0, 0], states[1, 0],
                                                 dc),
        "block_distance_loss": lambda: block_distance_loss(dc, 4)(
            states[:, 0].reshape(5, -1), states[:, 1].reshape(5, -1)),
        "_mean_distance": lambda: meta._mean_distance(states[:, 0],
                                                      states[:, 1], dc),
    }
    for name, use in uses.items():
        calls.clear()
        use()
        assert calls, f"{name} reduced blocks without block_sums"


def test_estimator_output_shape_and_softplus_offset():
    est_net = default_estimator_net("SCHEMA_C", 12, (32, 32), seed=0)
    est_net = est_net.with_params(np.zeros_like(est_net.params))
    est = StateEstimator(est_net, "SCHEMA_C", 12, 12)
    obs = Observation("SCHEMA_C", np.zeros((12, 3)))
    out = est.estimate([obs, obs])
    assert out.shape == (2, 12, 12)
    # softplus(0) = ln 2 for every entry of a zero-parameter net
    assert np.allclose(out, np.log(2.0))


def test_estimator_schema_mismatch():
    est = StateEstimator(default_estimator_net("SCHEMA_A", 12, (32, 32),
                                               seed=0),
                         "SCHEMA_A", 12, 12)
    with pytest.raises(ShapeError):
        est.estimate([Observation("SCHEMA_A", np.zeros((12, 2))),
                      Observation("SCHEMA_B", np.zeros((12, 2)))])


def predict(dyn, state, action):
    """One-step prediction for a single (lanes, N) state through the
    model's batched ``predict_flat``."""
    s = np.asarray(state, dtype=np.float64)
    flat = dyn.predict_flat(s.reshape(1, -1), np.array([action]))
    return flat.reshape(s.shape)


def rollout(dyn, state, actions):
    """Apply the dynamics model once per action, one state at a time,
    returning the predicted states after each step: the reference the
    planner's batched rollout is checked against."""
    out = []
    s = np.asarray(state, dtype=np.float64)
    for a in actions:
        s = predict(dyn, s, int(a))
        out.append(s)
    return out


class _IdentityDyn:
    """Stub dynamics: next state equals current state, any action."""

    def predict_flat(self, flat, actions):
        return np.asarray(flat, dtype=float)


class _ScaledDyn:
    """Stub linear dynamics: phase p decays lane p's occupancy."""

    def __init__(self, lanes, n_grids):
        self.lanes = lanes
        self.n_grids = n_grids

    def predict_flat(self, flat, actions):
        out = np.asarray(flat, dtype=float).copy()
        for i, a in enumerate(np.asarray(actions)):
            s = out[i].reshape(self.lanes, self.n_grids)
            s[(a - 1) % self.lanes] *= 0.5
        return out


class _FixedEstimator:
    def __init__(self, state):
        self.state = np.asarray(state, dtype=float)

    def estimate(self, observations):
        return np.stack([self.state] * len(observations))


def test_rollout_identity_stub():
    s = np.arange(12.0).reshape(3, 4)
    out = rollout(_IdentityDyn(), s, [1, 2, 3])
    assert len(out) == 3
    for step in out:
        assert np.array_equal(step, s)


def test_rollout_composition():
    dyn = _ScaledDyn(4, 8)
    s = np.ones((4, 8))
    full = rollout(dyn, s, [1, 2, 3, 4])
    head = rollout(dyn, s, [1, 2])
    tail = rollout(dyn, head[-1], [3, 4])
    assert np.allclose(full[-1], tail[-1])
    assert np.allclose(full[1], head[1])


def test_rollout_single_step_matches_predict():
    dyn = _ScaledDyn(4, 8)
    s = np.ones((4, 8))
    step = dyn.predict_flat(s.reshape(1, -1), np.array([5])).reshape(4, 8)
    assert np.array_equal(rollout(dyn, s, [5])[0], step)


def test_select_action_argmax_and_tiebreak():
    vc = ValueConfig(1, 0.9, 0.8, 8, 4)
    rng = np.random.default_rng(0)
    s = np.ones((8, 8))
    est = _FixedEstimator(s)
    dyn = _ScaledDyn(8, 8)
    # phase p halves lane p-1 twice; all phases symmetric -> tie -> phase 1
    phase = select_action(est, dyn, None, PolicyConfig(epsilon=0.0), vc, rng)
    assert phase == 1
    # make lane 4 heaviest: clearing it (phase 5) wins
    s2 = np.ones((8, 8))
    s2[4] = 10.0
    phase = select_action(_FixedEstimator(s2), dyn, None,
                          PolicyConfig(epsilon=0.0), vc, rng)
    assert phase == 5


def test_select_action_scaling_invariance():
    # value is linear in occupancy, so scaling the estimated state by c > 0
    # cannot change the winning phase (verified against brute scoring)
    vc = ValueConfig(2, 0.9, 0.8, 8, 4)
    dyn = _ScaledDyn(8, 8)
    rng_state = np.random.default_rng(9)
    for _ in range(10):
        s = rng_state.uniform(0, 5, size=(8, 8))
        pick1 = select_action(_FixedEstimator(s), dyn, None,
                              PolicyConfig(epsilon=0.0), vc,
                              np.random.default_rng(0))
        pick2 = select_action(_FixedEstimator(2.0 * s), dyn, None,
                              PolicyConfig(epsilon=0.0), vc,
                              np.random.default_rng(0))
        assert pick1 == pick2
        # brute-force scoring of every phase held h+1 steps confirms the
        # argmax
        best, best_v = None, -np.inf
        for p in PHASE_IDS:
            v = trajectory_value(rollout(dyn, s, [p] * (vc.horizon + 1)), vc)
            if v > best_v:
                best, best_v = p, v
        assert pick1 == best


def test_select_action_epsilon_one_uniform():
    vc = ValueConfig(1, 0.9, 0.8, 8, 4)
    rng = np.random.default_rng(123)
    est = _FixedEstimator(np.ones((8, 8)))
    dyn = _IdentityDyn()
    counts = np.zeros(8)
    for _ in range(8000):
        phase = select_action(est, dyn, None, PolicyConfig(epsilon=1.0), vc,
                              rng)
        counts[phase - 1] += 1
    expected = 1000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square critical value, 7 dof, p = 0.01
    assert chi2 < 18.475, f"epsilon=1 draw not uniform: chi2={chi2}, {counts}"


def test_select_action_deterministic_when_greedy():
    vc = ValueConfig(1, 0.9, 0.8, 8, 4)
    est = _FixedEstimator(np.arange(64.0).reshape(8, 8))
    dyn = _ScaledDyn(8, 8)
    a = select_action(est, dyn, None, PolicyConfig(epsilon=0.0), vc,
                      np.random.default_rng(0))
    b = select_action(est, dyn, None, PolicyConfig(epsilon=0.0), vc,
                      np.random.default_rng(99))
    assert a == b


def test_policy_config_validation():
    with pytest.raises(ConfigurationError):
        PolicyConfig(epsilon=1.5)


def test_dynamics_model_shapes():
    dyn = DynamicsModel(default_dynamics_net(12, 12, (128, 128), seed=0),
                        12, 12)
    s = np.zeros((12, 12))
    out = predict(dyn, s, 3)
    assert out.shape == (12, 12)
    assert np.all(out > 0)  # softplus output
    with pytest.raises(ShapeError):
        predict(dyn, np.zeros((12, 10)), 3)


class _RowSumEstimator:
    """Stub estimator: each lane's state repeats its observation row sum."""

    def __init__(self, n_grids):
        self.n_grids = n_grids

    def estimate(self, observations):
        sums = np.stack([o.values.sum(axis=1) for o in observations])
        return np.repeat(sums[:, :, None], self.n_grids, axis=2)


class _Nodes:
    def __init__(self, n):
        self.nodes = [(i // 64, i % 64) for i in range(n)]


@pytest.mark.parametrize("n_nodes", [16, 4096])
def test_decide_equals_per_node_select_action_loop(n_nodes):
    # one batched plan per interval makes the same picks, and the same rng
    # draws, as selecting for each node in turn; 4096 nodes put 32,768
    # phase rows through each dynamics pass
    vc = ValueConfig(2, 0.9, 0.8, 8, 4)
    policy = PolicyConfig(epsilon=0.5)
    est, dyn = _RowSumEstimator(8), _ScaledDyn(8, 8)
    ctrl = PlannerController(est, dyn, policy, vc, np.random.default_rng(3))
    loop_rng = np.random.default_rng(3)
    data = np.random.default_rng(4)
    env = _Nodes(n_nodes)
    for t in range(max(2, 640 // n_nodes)):
        obs = {node: Observation("SCHEMA_A", data.uniform(0, 5, size=(8, 2)))
               for node in env.nodes}
        want = {node: select_action(est, dyn, obs[node], policy, vc,
                                    loop_rng) for node in env.nodes}
        assert ctrl.decide(env, t, obs) == want
        assert ctrl.rng.random() == loop_rng.random()


# -- golden decision pin -----------------------------------------------------

class _Unmemoised(PlannerController):
    """Plans every greedy node every interval: select_actions with no memo."""

    def decide(self, env, interval_index, obs):
        return dict(zip(env.nodes, select_actions(
            self.estimator, self.dynamics, [obs[node] for node in env.nodes],
            self.policy, self.vc, self.rng)))


def _planner_run(epsilon, intervals=None, controller=PlannerController):
    """Untrained nets with fixed seeds plan city-c for ``intervals`` (the
    whole episode by default): (each interval's phases, one digit per node;
    final digest; metrics; the controller)."""
    spec = DESK_CITIES["city-c"]()
    net = spec.network
    lanes, grids = net.lanes_per_intersection, net.state_grids
    est = StateEstimator(default_estimator_net(spec.schema, grids, (32, 32),
                                               seed=3),
                         spec.schema, lanes, grids)
    dyn = DynamicsModel(default_dynamics_net(lanes, grids, (128, 128),
                                             seed=4), lanes, grids)
    vc = ValueConfig(2, 0.9, 0.8, grids, net.pass_capacity)
    ctrl = controller(est, dyn, PolicyConfig(epsilon=epsilon), vc,
                      np.random.default_rng(5))
    sim = spec.make(seed=0)
    ctrl.begin_episode(sim)
    obs, _ = sim.snapshot()
    actions = []
    for t in range(spec.intervals if intervals is None else intervals):
        acts = ctrl.decide(sim, t, obs)
        actions.append("".join(str(acts[node]) for node in sim.nodes))
        sim.step(acts, spec.interval_s)
        obs, _ = sim.snapshot()
    return " ".join(actions), sim.digest(), sim.metrics(), ctrl


def _golden_planner_run(epsilon, intervals=30):
    actions, digest, m, _ = _planner_run(epsilon, intervals)
    return actions, digest, m.avg_travel_time_s, m.avg_queue_length


GOLDEN_DECISIONS = {
    0.0: (
        "777777 777777 777777 777777 777777 777777 777777 777777 577777 "
        "778777 758777 778777 778777 788777 788777 788777 788777 788777 "
        "788777 788777 788577 888777 888777 887777 887777 887777 878777 "
        "777777 777777 777777",
        "5f84eb03ca9fe428e3a783985cf1bb5b682b5edf8a6bf5fc77a32e1215461f7b",
        279.7120822622108, 2.357407407407408),
    0.3: (
        "777877 127877 777778 573767 776775 773777 177733 877777 737776 "
        "727776 788777 788377 588776 788777 778277 758474 478777 788777 "
        "788772 723177 787777 887767 887778 875777 877773 857778 481746 "
        "477772 872623 876167",
        "4c79893fdf5c0cdca9c5917ba389ceefc12071efb199baea978ffb0428609303",
        266.92287917737787, 2.1810185185185187),
}


@pytest.mark.parametrize("epsilon", sorted(GOLDEN_DECISIONS))
def test_golden_decisions_pin(epsilon):
    """Decisions, digest and metrics recorded when each node was planned by
    its own select_action call: batching the nodes changed none of them."""
    assert _golden_planner_run(epsilon) == GOLDEN_DECISIONS[epsilon]


# -- the plan memo -------------------------------------------------------------


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_memo_matches_planning_every_node(epsilon):
    """A whole city-c episode makes the same decisions, metrics, digest and
    rng draws with the controller's memo as with every node planned every
    interval, though most observations repeat one already planned."""
    memo_run = _planner_run(epsilon)
    plain_run = _planner_run(epsilon, controller=_Unmemoised)
    assert memo_run[:3] == plain_run[:3]
    ctrl = memo_run[3]
    assert (ctrl.rng.bit_generator.state
            == plain_run[3].rng.bit_generator.state)
    decisions = sum(ctrl.phase_counts.values())
    assert decisions == DESK_CITIES["city-c"]().intervals * 6
    assert len(ctrl.memo) < 0.7 * decisions


def _schema_a_estimator(lanes=4):
    return StateEstimator(default_estimator_net("SCHEMA_A", 8, (8,), seed=0),
                          "SCHEMA_A", lanes, 8)


@pytest.mark.parametrize("schema, shape", [("SCHEMA_B", (4, 2)),
                                           ("BASE", (8, 1))])
def test_memo_hit_keeps_the_estimator_checks(schema, shape):
    """An observation with the bytes of one already planned, but another
    schema or lane count, is planned, so the estimator refuses it."""
    est = _schema_a_estimator()
    dyn = DynamicsModel(default_dynamics_net(4, 8, (8,), seed=1), 4, 8)
    vc = ValueConfig(1, 0.9, 0.8, 8, 4)
    values = np.arange(8.0).reshape(4, 2)
    memo = {}
    select_actions(est, dyn, [Observation("SCHEMA_A", values)],
                   PolicyConfig(epsilon=0.0), vc, np.random.default_rng(0),
                   memo)
    assert len(memo) == 1
    other = Observation(schema, values.reshape(shape))
    assert other.values.tobytes() == values.tobytes()
    with pytest.raises(ShapeError):
        select_actions(est, dyn, [other], PolicyConfig(epsilon=0.0), vc,
                       np.random.default_rng(0), memo)


def _favouring_net(lanes, grids, phase):
    """A one-layer dynamics net that predicts an almost empty state after
    ``phase`` and ln 2 per grid after every other phase."""
    net = default_dynamics_net(lanes, grids, (), seed=0)
    params = np.zeros_like(net.params)
    w = params[:net.params.size - lanes * grids].reshape(lanes * grids, -1)
    w[:, lanes * grids + phase - 1] = -20.0
    return net.with_params(params)


def test_begin_episode_forgets_plans_of_replaced_nets():
    """Adaptation replaces the nets between episodes; the next episode plans
    with the new nets instead of reusing the old nets' phases."""
    est = _schema_a_estimator()
    dyn = DynamicsModel(_favouring_net(4, 8, 3), 4, 8)
    ctrl = PlannerController(est, dyn, PolicyConfig(epsilon=0.0),
                             ValueConfig(1, 0.9, 0.8, 8, 4),
                             np.random.default_rng(0))
    env = _Nodes(2)
    obs = {node: Observation("SCHEMA_A", np.ones((4, 2))) for node in env.nodes}
    assert set(ctrl.decide(env, 0, obs).values()) == {3}
    dyn.net = _favouring_net(4, 8, 6)
    ctrl.begin_episode(env)
    assert ctrl.memo == {} and sum(ctrl.phase_counts.values()) == 0
    assert set(ctrl.decide(env, 0, obs).values()) == {6}
    assert ctrl.phase_counts == {**dict.fromkeys(PHASE_IDS, 0), 6: 2}


def test_a_greedy_pick_reads_its_own_observation_only():
    """The memo keys a node's phase on that node's observation alone: with
    real nets, changing every other node's observation leaves each node's
    greedy pick as it was."""
    spec = DESK_CITIES["city-c"]()
    lanes, grids = spec.network.lanes_per_intersection, spec.network.state_grids
    est = StateEstimator(default_estimator_net(spec.schema, grids, (32, 32),
                                               seed=3),
                         spec.schema, lanes, grids)
    dyn = DynamicsModel(default_dynamics_net(lanes, grids, (128, 128),
                                             seed=4), lanes, grids)
    vc = ValueConfig(2, 0.9, 0.8, grids, spec.network.pass_capacity)
    rng = np.random.default_rng(6)
    width = SCHEMA_DIMS[spec.schema]

    def observations(n):
        return [Observation(spec.schema, rng.uniform(0, 4, (lanes, width)))
                for _ in range(n)]

    def picks(obs):
        return select_actions(est, dyn, obs, PolicyConfig(epsilon=0.0), vc,
                              np.random.default_rng(0))

    for _ in range(5):
        obs = observations(6)
        want = picks(obs)
        for i in range(6):
            others = observations(5)
            assert picks(others[:i] + [obs[i]] + others[i:])[i] == want[i]
