"""Meta-training and adaptation tests: experience collection counts and
determinism, the two-loop trainer against the scalar hand oracle (verified
numerically before these values were frozen), budget discipline, offline
estimator training, and the forked children that compute outer gradients
during meta-training and fit the estimator during adaptation."""

import hashlib
import os
import platform
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    FAILURES, SIMD_MATH, assert_no_child_left, fail_in, no_child_left)

import gridlight
from gridlight import meta, nn
from gridlight.baselines import FixedTimeController, MaxPressureController
from gridlight.errors import ConfigurationError, ShapeError
from gridlight.harness.config import (
    default_experiment,
    desk_city_a,
    desk_city_b,
    desk_city_c,
)
from gridlight.harness.runners import (
    collect_source_datasets,
    heldout_episode,
    stage_seeds,
)
from gridlight.meta import (
    COLUMNS,
    AdaptConfig,
    ArrayTask,
    MamlConfig,
    TaskDataset,
    _Child,
    _fd_outer_grad,
    _forked,
    _openblas_threads,
    _mean_distance,
    adapt,
    collect_experience,
    dynamics_error,
    maml_run,
    maml_train,
    offline_train_repr,
    run_episode,
    seq_pretrain,
    spend_budget,
    training_loss,
)
from gridlight.planner import (
    DistanceConfig,
    DynamicsModel,
    StateEstimator,
    ValueConfig,
    block_distance_loss,
    default_dynamics_net,
    default_estimator_net,
    phase_encode,
    state_distance,
)
from gridlight.scenario import EnvFactory, ScenarioSpec
from gridlight.sim import Flow, RoadNetwork
from gridlight.sim.network import PHASE_IDS, SCHEMA_DIMS


def small_scenario(schema="SCHEMA_A", rows=2, cols=2, episode_s=200):
    flows = (
        Flow(origin=("N", 0), route=("through",) * rows, start_s=0,
             end_s=episode_s, headway_s=8),
        Flow(origin=("W", 0), route=("through",) * cols, start_s=0,
             end_s=episode_s, headway_s=12),
    )
    return ScenarioSpec(
        name=f"test-{schema}",
        network=RoadNetwork(rows=rows, cols=cols),
        flows=flows,
        schema=schema,
        episode_s=episode_s,
        interval_s=20,
    )


class ScalarTask:
    """Hand-oracle task: model f(t) = t * x, squared loss, one data point
    (x=1, y=0). Inner gradient at t: 2t; adapted t' = t - 2*alpha*t."""

    def support_batch(self, rng):
        return np.array([0])

    def query_batch(self, rng):
        return np.array([0])

    def loss_and_grad(self, theta, batch):
        t = theta[0]
        return float(t * t), np.array([2.0 * t])


def test_maml_scalar_first_order():
    cfg = MamlConfig(inner_lr=0.1, outer_lr=0.1, meta_iterations=1,
                     task_batch_size=1, first_order=True,
                     outer_optimizer="sgd")
    out = maml_run(np.array([1.0]), [ScalarTask()], cfg, seed=0)
    assert abs(out[0] - 0.84) < 1e-8


def test_maml_scalar_second_order():
    # exact outer gradient: d/dt (t*(1-2a))^2 = 2t(1-2a)^2 = 1.28 at t=1
    cfg = MamlConfig(inner_lr=0.1, outer_lr=0.1, meta_iterations=1,
                     task_batch_size=1, first_order=False,
                     outer_optimizer="sgd")
    out = maml_run(np.array([1.0]), [ScalarTask()], cfg, seed=0)
    assert abs(out[0] - 0.872) < 1e-8


def test_maml_zero_learning_rates_no_change():
    cfg = MamlConfig(inner_lr=0.0, outer_lr=0.0, meta_iterations=5,
                     task_batch_size=1, outer_optimizer="sgd")
    out = maml_run(np.array([1.0]), [ScalarTask()], cfg, seed=0)
    assert out[0] == 1.0


class ZeroLossTask:
    def support_batch(self, rng):
        return np.array([0])

    def query_batch(self, rng):
        return np.array([0])

    def loss_and_grad(self, theta, batch):
        return 0.0, np.zeros_like(theta)


def test_maml_zero_loss_leaves_params():
    cfg = MamlConfig(inner_lr=0.5, outer_lr=0.5, meta_iterations=10,
                     task_batch_size=1, outer_optimizer="sgd")
    theta0 = np.array([3.0, -1.0])
    out = maml_run(theta0, [ZeroLossTask()], cfg, seed=0)
    assert np.array_equal(out, theta0)


def test_maml_task_batch_size_validation():
    cfg = MamlConfig(inner_lr=0.1, outer_lr=0.1, meta_iterations=1,
                     task_batch_size=2)
    with pytest.raises(ConfigurationError):
        maml_run(np.array([1.0]), [ScalarTask()], cfg, seed=0)
    with pytest.raises(ConfigurationError):
        maml_run(np.array([1.0]), [], cfg, seed=0)


def maml_run_in_sequence(theta0, tasks, cfg, seed):
    """The loop ``maml_run`` ran before it computed part of each
    iteration's outer gradients in a forked child; kept as its oracle."""
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=np.float64, copy=True)
    opt = (nn.Adam(lr=cfg.outer_lr) if cfg.outer_optimizer == "adam"
           else nn.SGD(cfg.outer_lr))
    for _ in range(cfg.meta_iterations):
        chosen = sorted(rng.choice(len(tasks), size=cfg.task_batch_size,
                                   replace=False))
        outer = np.zeros_like(theta)
        for ti in chosen:
            task = tasks[ti]
            support_batches = [task.support_batch(rng)
                               for _ in range(cfg.inner_steps)]
            query_batch = task.query_batch(rng)
            if cfg.first_order:
                adapted = theta
                for b in support_batches:
                    _, g = task.loss_and_grad(adapted, b)
                    adapted = adapted - cfg.inner_lr * g
                _, gq = task.loss_and_grad(adapted, query_batch)
                outer += gq
            else:
                outer += _fd_outer_grad(theta, task, support_batches,
                                        query_batch, cfg.inner_lr)
        theta = opt.step(theta, outer)
    return theta


def net_tasks(before_step=lambda: None):
    """Three regression tasks on one small softplus net, its initial
    parameters, and a loss that calls ``before_step()`` first."""
    net = nn.net_new((3, 5, 2), "softplus", seed=1)
    rng = np.random.default_rng(5)

    def lag(theta, xb, yb):
        before_step()
        return nn.loss_and_grad(net, nn.squared_error_loss, xb, yb,
                                params=theta)

    return net.params, [ArrayTask(rng.normal(size=(20, 3)),
                                  rng.uniform(size=(20, 2)), lag, 6, rng)
                        for _ in range(3)]


@pytest.mark.parametrize("task_batch_size", [1, 2, 3])
@pytest.mark.parametrize("first_order", [True, False],
                         ids=["first-order", "second-order"])
def test_maml_run_matches_the_sequential_loop_bit_for_bit(first_order,
                                                          task_batch_size):
    theta0, tasks = net_tasks()
    cfg = MamlConfig(inner_lr=0.05, outer_lr=0.01, meta_iterations=6,
                     task_batch_size=task_batch_size, inner_steps=2,
                     first_order=first_order)
    out = maml_run(theta0, tasks, cfg, seed=3)
    assert out.tobytes() == maml_run_in_sequence(theta0, tasks, cfg,
                                                 seed=3).tobytes()
    assert not np.array_equal(out, theta0)


@pytest.mark.parametrize("failure", FAILURES)
def test_maml_child_failure_leaves_no_child(failure):
    """The child computes the later task's outer gradient: its error comes
    back with its type and message, its death as a RuntimeError, and an
    error in this process propagates once the child is reaped."""
    theta0, tasks = net_tasks(fail_in(failure))
    cfg = MamlConfig(inner_lr=0.05, outer_lr=0.01, meta_iterations=3,
                     task_batch_size=2)
    error, message = FAILURES[failure]
    with no_child_left(), pytest.raises(error, match=message):
        maml_run(theta0, tasks, cfg, seed=3)


# -- experience collection --------------------------------------------------

def test_collect_experience_record_count():
    sc = small_scenario(episode_s=200)  # 10 intervals, 4 intersections
    ds = collect_experience(lambda s: sc.make(s), FixedTimeController(),
                            episodes=1, rng=np.random.default_rng(0),
                            city_id="a", intervals=sc.intervals)
    assert len(ds) == 10 * 4
    sc2 = small_scenario(episode_s=3600)
    ds2 = collect_experience(lambda s: sc2.make(s), FixedTimeController(),
                             episodes=1, rng=np.random.default_rng(0),
                             city_id="a", intervals=sc2.intervals)
    assert len(ds2) == 180 * 4  # 3600 / 20 intervals per intersection


def test_collect_experience_deterministic():
    sc = small_scenario(episode_s=200)

    def collect():
        return collect_experience(lambda s: sc.make(s),
                                  MaxPressureController(), episodes=2,
                                  rng=np.random.default_rng(42),
                                  city_id="a", intervals=sc.intervals)

    d1, d2 = collect(), collect()
    assert len(d1) == len(d2)
    assert np.array_equal(d1.action, d2.action)
    assert np.array_equal(d1.state, d2.state)
    assert np.array_equal(d1.obs, d2.obs)


def test_collect_experience_zero_flow_states():
    sc = ScenarioSpec("empty", RoadNetwork(rows=2, cols=2), (), "SCHEMA_A",
                      episode_s=100, interval_s=20)
    ds = collect_experience(lambda s: sc.make(s), FixedTimeController(),
                            episodes=1, rng=np.random.default_rng(0),
                            city_id="e", intervals=sc.intervals)
    assert len(ds) == 5 * 4
    assert (ds.state.sum(axis=(1, 2)) == 0).all()
    assert (ds.state_next.sum(axis=(1, 2)) == 0).all()


def test_task_dataset_validation():
    with pytest.raises(ConfigurationError):
        TaskDataset("x", "SCHEMA_A", *(np.zeros((0, 12, 2)),) * 4)


# -- dynamics meta-training ---------------------------------------------

def collect_small_tasks():
    out = []
    for i, schema in enumerate(("SCHEMA_A", "SCHEMA_B")):
        sc = small_scenario(schema=schema, episode_s=400)
        out.append(collect_experience(
            lambda s, sc=sc: sc.make(s), MaxPressureController(), episodes=1,
            rng=np.random.default_rng(i), city_id=schema,
            intervals=sc.intervals))
    return out


def test_maml_train_reduces_prediction_error():
    tasks = collect_small_tasks()
    net = RoadNetwork(rows=2, cols=2)
    lanes = net.lanes_per_intersection
    dyn = DynamicsModel(default_dynamics_net(lanes, net.state_grids,
                                             hidden=(32,), seed=0),
                        lanes, net.state_grids)
    dist_cfg = DistanceConfig(0.8, net.state_grids, net.pass_capacity)
    before = dynamics_error(dyn, tasks[0], dist_cfg)
    cfg = MamlConfig(inner_lr=1e-4, outer_lr=1e-4, meta_iterations=60,
                     task_batch_size=2, outer_optimizer="adam")
    phi = maml_train(tasks, cfg, dyn, dist_cfg, seed=0)
    after = dynamics_error(DynamicsModel(dyn.net.with_params(phi), lanes,
                                         net.state_grids),
                           tasks[0], dist_cfg)
    assert np.all(np.isfinite(phi))
    assert after < before


def test_maml_train_without_iterations_builds_no_task(monkeypatch):
    """With ``meta_iterations=0`` nothing trains: no task's inputs are
    built, and the start parameters come back byte for byte."""
    built = []
    real = meta._dynamics_xy
    monkeypatch.setattr(meta, "_dynamics_xy",
                        lambda *args: built.append(1) or real(*args))
    net = RoadNetwork(rows=2, cols=2)
    lanes = net.lanes_per_intersection
    dyn = DynamicsModel(default_dynamics_net(lanes, net.state_grids,
                                             hidden=(32,), seed=0),
                        lanes, net.state_grids)
    cfg = MamlConfig(inner_lr=1e-4, outer_lr=1e-4, meta_iterations=0,
                     task_batch_size=2)
    phi = maml_train(collect_small_tasks(), cfg, dyn,
                     DistanceConfig(0.8, net.state_grids, net.pass_capacity),
                     seed=0)
    assert built == []
    assert phi is not dyn.net.params
    assert phi.tobytes() == dyn.net.params.tobytes()


def test_seq_pretrain_runs_and_is_finite():
    tasks = collect_small_tasks()
    net = RoadNetwork(rows=2, cols=2)
    lanes = net.lanes_per_intersection
    dyn = DynamicsModel(default_dynamics_net(lanes, net.state_grids,
                                             hidden=(32,), seed=0),
                        lanes, net.state_grids)
    dist_cfg = DistanceConfig(0.8, net.state_grids, net.pass_capacity)
    cfg = MamlConfig(inner_lr=1e-4, outer_lr=1e-4, meta_iterations=20,
                     task_batch_size=2)
    phi = seq_pretrain(tasks, cfg, dyn, dist_cfg, seed=0)
    assert phi.shape == dyn.net.params.shape
    assert np.all(np.isfinite(phi))


@pytest.mark.parametrize("train", [maml_train, seq_pretrain])
def test_dynamics_training_rejects_other_state_layout(train):
    # 8 lanes x 18 grids has as many cells as the model's 12 x 12
    m = 4
    ds = TaskDataset("wide", "SCHEMA_A", np.zeros((m, 8, 2)),
                     np.zeros((m, 8, 18)), np.ones(m, dtype=np.int64),
                     np.zeros((m, 8, 18)))
    dyn = DynamicsModel(default_dynamics_net(12, 12, hidden=(8,), seed=0),
                        12, 12)
    cfg = MamlConfig(inner_lr=1e-4, outer_lr=1e-4, meta_iterations=1,
                     task_batch_size=1)
    with pytest.raises(ShapeError):
        train([ds], cfg, dyn, DistanceConfig(0.8, 12, 4), seed=0)


@pytest.mark.parametrize("column", ["state", "obs"])
def test_phase_coded_rows_equal_the_whole_encoding(column):
    """The dynamics input over uint8 states, or the monolithic arm's
    float64 observations, gives for an epoch slice, a draw without
    replacement and the whole index range the bytes, dtype and shape of
    the same rows of the whole ``phase_encode``. ``ArrayTask`` splits its
    ``shape[0]`` rows and ``nn.fit`` reshapes by its ``shape[-1]`` as they
    do the whole encoding's, to the same bits."""
    ds = collect_small_tasks()[0]
    rows, m = getattr(ds, column), len(ds)
    assert rows.dtype == {"state": np.uint8, "obs": np.float64}[column]
    x, y = meta._dynamics_xy(ds, rows, *ds.state.shape[1:])
    whole = phase_encode(rows.reshape(m, -1), ds.action)
    assert (len(x), x.shape) == (m, whole.shape)
    rng = np.random.default_rng(0)
    draws = (next(nn.epoch_batches(rng, m, 32, 1)),
             rng.choice(m, size=32, replace=False), np.arange(m))
    for idx in draws:
        got, want = x[idx], whole[idx]
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    net = nn.net_new((x.shape[-1], 8, y.shape[-1]), "softplus", seed=0)

    def lag(theta, xb, yb):
        return nn.loss_and_grad(net, nn.squared_error_loss, xb, yb,
                                params=theta)

    lazy, eager = (ArrayTask(inputs, y, lag, 32, np.random.default_rng(1))
                   for inputs in (x, whole))
    assert lazy.support_idx.tobytes() == eager.support_idx.tobytes()
    batch = lazy.query_batch(np.random.default_rng(2))
    assert (lazy.loss_and_grad(net.params, batch)[1].tobytes()
            == eager.loss_and_grad(net.params, batch)[1].tobytes())
    fitted = [nn.fit(net, nn.squared_error_loss, inputs, y, nn.SGD(1e-3),
                     draws).params.tobytes() for inputs in (x, whole)]
    assert fitted[0] == fitted[1]


@pytest.mark.parametrize("train", [maml_train, seq_pretrain])
def test_dynamics_training_holds_no_encoded_copy_of_a_task(train):
    """Training on a 20,000-row task, one task per iteration so that no
    child forks, allocates less at its peak than one whole ``phase_encode``
    of the task's states would take."""
    lanes, n_grids, m = 4, 6, 20_000
    rng = np.random.default_rng(0)
    state = rng.integers(0, 3, size=(m, lanes, n_grids))
    action = rng.integers(1, len(PHASE_IDS) + 1, size=m)
    ds = TaskDataset("synthetic", "SCHEMA_A",
                     np.zeros((m, lanes, SCHEMA_DIMS["SCHEMA_A"])), state,
                     action, np.roll(state, 1, axis=0))
    eager_bytes = m * phase_encode(state[:1].reshape(1, -1), action[:1]).nbytes
    dyn = DynamicsModel(default_dynamics_net(lanes, n_grids, hidden=(16,),
                                             seed=0), lanes, n_grids)
    cfg = MamlConfig(inner_lr=1e-4, outer_lr=1e-4, meta_iterations=5,
                     task_batch_size=1)
    tracemalloc.start()
    try:
        train([ds], cfg, dyn, DistanceConfig(0.8, n_grids, 2), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < eager_bytes


# -- adaptation --------------------------------------------------------------

def planning_configs(net):
    """``adapt``'s value and distance settings at the desk defaults for a
    network's state layout."""
    return {"value_cfg": ValueConfig(2, 0.9, 0.8, net.state_grids,
                                     net.pass_capacity),
            "dist_cfg": DistanceConfig(0.8, net.state_grids,
                                       net.pass_capacity)}


def test_adapt_consumes_exact_budget_and_improves():
    target = small_scenario(schema="SCHEMA_C", episode_s=400)
    net = target.network
    lanes = net.lanes_per_intersection
    dyn = DynamicsModel(default_dynamics_net(lanes, net.state_grids,
                                             hidden=(32,), seed=1),
                        lanes, net.state_grids)
    factory = EnvFactory(target)
    cfg = AdaptConfig(lr=3e-3, target_episode_budget=2, epochs_per_episode=4)
    est, dyn_t = adapt(dyn.net.params, factory, cfg, "SCHEMA_C", seed=0,
                       dyn_hidden=(32,), estimator_hidden=(32, 32),
                       **planning_configs(net))
    assert factory.interactions == 2
    # held-out episode under fixed-time control (not charged to the budget)
    held = collect_experience(
        lambda s: factory.make(s, count=False), FixedTimeController(),
        episodes=1, rng=np.random.default_rng(9), city_id="held",
        intervals=target.intervals)
    assert factory.interactions == 2
    dist_cfg = DistanceConfig(0.8, net.state_grids, net.pass_capacity)
    err_adapted = dynamics_error(dyn_t, held, dist_cfg)
    err_phi = dynamics_error(dyn, held, dist_cfg)
    assert err_adapted < err_phi


def test_adapt_schema_mismatch():
    target = small_scenario(schema="SCHEMA_C", episode_s=100)
    factory = EnvFactory(target)
    dyn = default_dynamics_net(12, 12, hidden=(16,), seed=0)
    cfg = AdaptConfig(lr=1e-3, target_episode_budget=1)
    with pytest.raises(ConfigurationError):
        adapt(dyn.params, factory, cfg, "SCHEMA_A", seed=0, dyn_hidden=(16,),
              estimator_hidden=(8,), **planning_configs(target.network))


def test_adapt_budget_validation():
    with pytest.raises(ConfigurationError):
        AdaptConfig(lr=1e-3, target_episode_budget=0)


# by numpy's math path: SIMD_MATH is True where exp takes AVX-512 loops
GOLDEN_ADAPT_BY_PATH = {
    True: ("319186ae140615bd8e3d18ac7e0ac6cf9dc835b0c54646d6070081796fe4ddcf",
           "6278b406cf3220ad075a45a1902b3d35cb4e4555736613d31fcd619396188465"),
    False: ("474ffdca1fe5414572bce8009e42a076e7884ac1465ec46b23a6059cdbc71c00",
            "93c0dbe01e782dc235e4e4ed35cbe8dbb0a63557492234e931c7d41bf2af33e8"),
}
GOLDEN_ADAPT = GOLDEN_ADAPT_BY_PATH[SIMD_MATH]


def golden_adaptation(budget: int, **scored):
    """``adapt`` on a short city-c target with exploration on, within
    ``budget`` episodes; returns the sha256 of both nets' params."""
    target = desk_city_c(300)
    net = target.network
    phi = default_dynamics_net(net.lanes_per_intersection, net.state_grids,
                               hidden=(32,), seed=2).params
    cfg = AdaptConfig(lr=1e-3, target_episode_budget=budget,
                      epochs_per_episode=2, batch_size=64, epsilon0=0.3)
    return param_hashes(*adapt(
        phi, EnvFactory(target), cfg, target.schema, seed=4,
        dyn_hidden=(32,), estimator_hidden=(16,),
        value_cfg=ValueConfig(2, 0.9, 0.8, 12, 4),
        dist_cfg=DistanceConfig(0.8, 12, 4), **scored))


def param_hashes(*models) -> tuple[str, ...]:
    return tuple(hashlib.sha256(m.net.params.tobytes()).hexdigest()
                 for m in models)


def test_golden_adapt_pin():
    """The sha256 of the adapted estimator's and dynamics net's params,
    recorded when adaptation stepped both nets in one hand-written
    minibatch loop. While softplus was ``np.logaddexp`` the SIMD path read
    (15486399..., 9c761af4...) and the libm path as it does now."""
    assert golden_adaptation(2) == GOLDEN_ADAPT


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="X86_V4 names numpy's x86-64 AVX-512 loops")
def test_golden_adapt_pin_without_avx512():
    """With numpy's AVX-512 loops disabled, as on an x86-64 host without
    them, adaptation reads the libm path's pin."""
    code = ("from conftest import SIMD_MATH\n"
            "from test_meta import golden_adaptation\n"
            "print(SIMD_MATH, *golden_adaptation(2))")
    path = [str(Path(__file__).parent),
            str(Path(gridlight.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4",
               PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy does not know X86_V4 and kept its SIMD exp")
    assert tuple(out[1:]) == GOLDEN_ADAPT_BY_PATH[False]


def test_a_smaller_budget_is_a_prefix_of_a_larger_one():
    """``scored`` sees after episode b the models that a budget of b
    episodes ends with, bit for bit, and changes none of them."""
    seen = {}
    final = golden_adaptation(3, scored=lambda spent, est, dyn: seen.update(
        {spent: param_hashes(est, dyn)}))
    assert list(seen) == [1, 2, 3]
    assert seen[3] == final
    assert seen[2] == golden_adaptation(2) == GOLDEN_ADAPT
    assert seen[1] == golden_adaptation(1)


def spend_recorded_budget(monkeypatch, budget=3, run=run_episode):
    """``spend_budget`` on a short city-c target within ``budget``
    episodes, the estimator fitted in this process. Returns the episodes
    ``run`` recorded, each fit's (x, y) in order, and what ``scored`` got:
    (episodes spent, fits so far)."""
    episodes, fits, scored = [], [], []
    real_fit = nn.fit

    def recorded(*args, **kwargs):
        out = run(*args, **kwargs)
        episodes.append(out[1])
        return out

    def fit(net, loss_fn, x, y, opt, batches):
        fits.append((x, y))
        return real_fit(net, loss_fn, x, y, opt, batches)

    def in_process(fn):  # the child's fit, recorded here
        out = fn()
        return lambda: out

    monkeypatch.setattr(meta, "run_episode", recorded)
    monkeypatch.setattr(nn, "fit", fit)
    monkeypatch.setattr(meta, "_forked", in_process)
    target = desk_city_c(100)
    net = target.network
    lanes, n_grids = net.lanes_per_intersection, net.state_grids
    spend_budget(
        EnvFactory(target),
        AdaptConfig(lr=1e-3, target_episode_budget=budget,
                    epochs_per_episode=1, batch_size=64),
        StateEstimator(default_estimator_net(target.schema, n_grids, (8,),
                                             seed=0),
                       target.schema, lanes, n_grids),
        DynamicsModel(default_dynamics_net(lanes, n_grids, (16,), seed=1),
                      lanes, n_grids),
        **planning_configs(net), rng=np.random.default_rng(0),
        train_rng=np.random.default_rng(1),
        scored=lambda spent, est, dyn: scored.append((spent, len(fits))))
    return episodes, fits, scored


def assert_fits_see_episodes(episodes, fits):
    """The estimator's fit after episode b read the observations and states
    of episodes 1..b in order, and the dynamics fit their phase-coded
    states and next states, byte for byte."""
    for b in range(1, len(episodes) + 1):
        whole = {c: np.concatenate([getattr(ep, c) for ep in episodes[:b]])
                 for c in COLUMNS}
        m = len(whole["action"])
        (est_x, est_y), (dyn_x, dyn_y) = fits[2 * b - 2:2 * b]
        dyn_x = dyn_x[np.arange(len(dyn_x))]  # encoded when indexed
        for got, want in (
                (est_x, whole["obs"]), (est_y, whole["state"]),
                (dyn_x, phase_encode(whole["state"].reshape(m, -1),
                                     whole["action"])),
                (dyn_y, whole["state_next"].reshape(m, -1))):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


def test_spend_budget_trains_on_one_growing_dataset(monkeypatch):
    """After episode b, the estimator is fitted on the observations and
    states of episodes 1..b in order, and the dynamics net on their
    phase-coded states and next states, byte for byte; then ``scored``
    gets the count b."""
    episodes, fits, scored = spend_recorded_budget(monkeypatch)
    assert scored == [(1, 2), (2, 4), (3, 6)]
    assert_fits_see_episodes(episodes, fits)


def test_spend_budget_fills_its_records_in_place(monkeypatch):
    """No budget episode's records are copied through
    ``TaskDataset.concat``, yet every fit still sees episodes 1..b."""
    concats = []
    real = TaskDataset.concat
    monkeypatch.setattr(TaskDataset, "concat", classmethod(
        lambda cls, parts: concats.append(1) or real(parts)))
    episodes, fits, _ = spend_recorded_budget(monkeypatch)
    assert concats == []
    assert_fits_see_episodes(episodes, fits)


def test_spend_budget_refuses_an_episode_of_another_length(monkeypatch):
    """A budget episode must record intervals x nodes rows."""
    def short_second(*args, **kwargs):
        metrics, ep = run_episode(*args, **kwargs)
        if short_second.calls:
            ep = TaskDataset(ep.city_id, ep.schema_id,
                             *(getattr(ep, c)[1:] for c in COLUMNS))
        short_second.calls += 1
        return metrics, ep

    short_second.calls = 0
    with pytest.raises(ShapeError, match="budget episode 2 recorded 29 rows"):
        spend_recorded_budget(monkeypatch, budget=2, run=short_second)


def test_recorded_states_take_one_byte_per_count(monkeypatch):
    """The states of the collected source datasets (the later one through
    the forked child's pickle), of ``spend_budget``'s store and of the
    held-out episode hold one byte per count, none above the grid
    capacity."""
    cfg = replace(default_experiment(),
                  sources=(desk_city_a(100), desk_city_b(100)),
                  target=desk_city_c(100))
    recorded = (*collect_source_datasets(cfg, stage_seeds(0)["collect"]),
                heldout_episode(cfg.target))
    states = [getattr(ds, c) for ds in recorded for c in ("state",
                                                          "state_next")]
    _, fits, _ = spend_recorded_budget(monkeypatch, budget=2)
    states += [y for _, y in fits]  # views of the store's state columns
    assert len(states) == 10
    capacity = cfg.target.network.grid_capacity
    assert {src.network.grid_capacity for src in cfg.sources} == {capacity}
    for s in states:
        assert s.dtype == np.uint8 and s.nbytes == s.size
        assert 1 <= s.max() <= capacity


# -- the forked child of adaptation ------------------------------------------

def test_forked_returns_the_childs_result():
    wait = _forked(lambda: (os.getpid(), np.arange(3.0)))
    pid, values = wait()
    assert pid != os.getpid()
    assert values.tolist() == [0.0, 1.0, 2.0]
    assert_no_child_left()


def test_forked_reraises_the_childs_error_with_its_type_and_message():
    def fail():
        raise ConfigurationError("lr must be > 0, got -1")

    wait = _forked(fail)
    with pytest.raises(ConfigurationError) as exc:
        wait()
    assert str(exc.value) == "lr must be > 0, got -1"
    assert_no_child_left()


@pytest.mark.parametrize("die, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit-3", "sigkill"])
def test_forked_child_dying_without_a_result_raises(die, code):
    wait = _forked(die)
    with pytest.raises(RuntimeError,
                       match=rf"without a result \(exit code {code}\)"):
        wait()
    assert_no_child_left()


def test_child_answer_that_cannot_be_pickled_raises():
    """The answer's large array reaches the pipe before pickling fails at
    the lambda after it: the cut answer reads as a child that ended
    without a result."""
    child = _Child(lambda _: (np.zeros(1 << 20), lambda: None))
    try:
        child.ask(None)
        with pytest.raises(RuntimeError,
                           match=r"without a result \(exit code 1\)$"):
            child.answer()
    finally:
        child.close()
    assert_no_child_left()


def test_forked_runs_blas_on_one_thread_until_the_child_is_reaped():
    blas = _openblas_threads()
    if blas is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(2)
    try:
        wait = _forked(get_threads)
        during = get_threads()
        assert (during, wait(), get_threads()) == (1, 1, 2)
    finally:
        set_threads(before)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open descriptors")
def test_forked_closes_its_pipe_when_fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        _forked(lambda: None)
    assert len(os.listdir("/proc/self/fd")) == before


def short_adaptation(lr):
    """An adapt call on a 5-interval city-c target with small nets."""
    target = desk_city_c(100)
    net = target.network
    phi = default_dynamics_net(net.lanes_per_intersection, net.state_grids,
                               hidden=(16,), seed=2).params
    cfg = AdaptConfig(lr=lr, target_episode_budget=1, epochs_per_episode=2,
                      batch_size=16)
    return adapt(phi, EnvFactory(target), cfg, target.schema, seed=0,
                 dyn_hidden=(16,), estimator_hidden=(8,),
                 **planning_configs(net))


def test_adapt_reaps_the_child_when_the_dynamics_fit_raises(monkeypatch):
    parent, real_fit = os.getpid(), nn.fit

    def fit(*args):
        if os.getpid() == parent:
            raise RuntimeError("dynamics fit failed")
        time.sleep(0.2)  # the child is still fitting when the parent fails
        return real_fit(*args)

    monkeypatch.setattr(nn, "fit", fit)
    with pytest.raises(RuntimeError, match="dynamics fit failed"):
        short_adaptation(1e-3)
    assert_no_child_left()


def test_diverging_adaptation_raises_in_both_processes():
    """Adam moves every parameter by about ``lr`` per step, so two steps
    at 1e308 overflow both nets: the dynamics fit raises in this process,
    then the estimator's error from the child follows it."""
    with np.errstate(all="ignore"), \
            pytest.raises(ConfigurationError, match="NaN or Inf") as exc:
        short_adaptation(1e308)
    assert isinstance(exc.value.__context__, ConfigurationError)
    assert_no_child_left()


# -- offline estimator training ----------------------------------------------

# the desk configuration's estimator layers and adaptation batch size
DESK_ESTIMATOR = {"hidden": default_experiment().estimator_hidden,
                  "batch_size": default_experiment().adapt.batch_size}

def logged_pairs(schema="SCHEMA_A", episodes=1, episode_s=400):
    sc = small_scenario(schema=schema, episode_s=episode_s)
    return collect_experience(lambda s: sc.make(s), FixedTimeController(),
                              episodes=episodes, rng=np.random.default_rng(3),
                              city_id="log", intervals=sc.intervals)


def rows(ds, idx):
    """The dataset holding ``ds``'s rows at ``idx``."""
    return TaskDataset(ds.city_id, ds.schema_id,
                       *(getattr(ds, c)[idx] for c in COLUMNS))


def test_offline_train_overfits_single_pair():
    pairs = rows(logged_pairs(), [12] * 4)
    dist_cfg = DistanceConfig(0.8, 12, 4)
    est0 = offline_train_repr(pairs, "SCHEMA_A", epochs=0, lr=1e-2,
                              dist_cfg=dist_cfg, **DESK_ESTIMATOR)
    initial = training_loss(est0, pairs, dist_cfg)
    est = offline_train_repr(pairs, "SCHEMA_A", epochs=400, lr=1e-2,
                             dist_cfg=dist_cfg, **DESK_ESTIMATOR)
    final = training_loss(est, pairs, dist_cfg)
    assert final < 0.01 * initial


def test_offline_train_empty_log_rejected():
    # an empty log is refused as soon as it is built
    with pytest.raises(ConfigurationError):
        offline_train_repr(rows(logged_pairs(), []), "SCHEMA_A", epochs=1,
                           lr=1e-3, dist_cfg=DistanceConfig(0.8, 12, 4),
                           **DESK_ESTIMATOR)


def test_offline_train_schema_mismatch():
    pairs = logged_pairs("SCHEMA_B")
    with pytest.raises(ConfigurationError):
        offline_train_repr(pairs, "SCHEMA_A", epochs=1, lr=1e-3,
                           dist_cfg=DistanceConfig(0.8, 12, 4),
                           **DESK_ESTIMATOR)


def test_training_loss_schema_mismatch():
    est = StateEstimator(default_estimator_net("SCHEMA_A", 12, (32, 32),
                                               seed=0), "SCHEMA_A", 12, 12)
    with pytest.raises(ShapeError):
        training_loss(est, logged_pairs("SCHEMA_B"),
                      DistanceConfig(0.8, 12, 4))


@pytest.mark.parametrize("lanes,state_grids,pass_grids,discount", [
    (12, 12, 4, 0.8), (12, 12, 3, 0.5), (8, 8, 2, 1.0), (3, 6, 6, 0.9),
    (5, 16, 1, 0.7)])
def test_mean_distance_equals_row_loop_bit_for_bit(lanes, state_grids,
                                                    pass_grids, discount):
    """The batched mean distance is the row-by-row state_distance mean,
    float for float, on random predictions against integer states."""
    rng = np.random.default_rng(lanes * state_grids + pass_grids)
    cfg = DistanceConfig(discount, state_grids, pass_grids)
    for rows in (1, 7, 1080):
        pred = rng.normal(2.0, 3.0, (rows, lanes, state_grids))
        states = rng.integers(0, 5, (rows, lanes, state_grids))
        loop = sum(state_distance(p, s, cfg)
                   for p, s in zip(pred, states)) / rows
        assert _mean_distance(pred, states, cfg).hex() == loop.hex()


def test_offline_training_loss_monotone_small_lr():
    # full-batch plain gradient descent at lr=1e-4 on a frozen batch
    pairs = rows(logged_pairs(), slice(0, 40))
    dist_cfg = DistanceConfig(0.8, 12, 4)
    net0 = default_estimator_net("SCHEMA_A", 12, (32, 32), seed=5)
    loss_fn = block_distance_loss(dist_cfg, 12)
    full_batch = [np.arange(len(pairs))]
    losses = []
    for epochs in (0, 1, 2, 4, 8, 16):
        net = nn.fit(net0, loss_fn, pairs.obs, pairs.state, nn.SGD(1e-4),
                     full_batch * epochs)
        est = StateEstimator(net, "SCHEMA_A", 12, 12)
        losses.append(training_loss(est, pairs, dist_cfg))
    assert all(np.isfinite(losses))
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-9


def test_run_episode_matches_manual_loop():
    sc = small_scenario(episode_s=200)
    sim = sc.make(0)
    metrics, records = run_episode(sim, FixedTimeController(), sc.intervals,
                                   sc.interval_s, record=True, city_id="x")
    assert len(records) == sc.intervals * 4
    assert metrics.avg_travel_time_s >= 0.0
    assert set(records.action) <= set(range(1, 9))
    assert records.state.shape[1:] == (12, 12)
    assert records.obs.shape[1:] == (12, 2)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("intervals", [0, -1])
def test_run_episode_rejects_fewer_than_one_interval(intervals, record):
    sim = small_scenario().make(0)
    with pytest.raises(ConfigurationError, match="intervals must be >= 1"):
        run_episode(sim, FixedTimeController(), intervals, record=record)
    assert sim.clock == 0
