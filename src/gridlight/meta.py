"""Multi-city experience aggregation and adaptation.

Experience is columnar: a ``TaskDataset`` holds one row per intersection
per interval in stacked arrays (observations, states, phases and what
followed), built once per episode. Every training loop reads those arrays
directly: the dynamics net sees ``phase_encode``-d states, the estimator
sees each state's lane rows, and single-net loops go through ``nn.fit``.

``maml_run`` is the generic two-loop meta-trainer: per sampled task it takes
``inner_steps`` plain gradient steps on a support batch, evaluates the
adapted parameters on a query batch, and applies the summed outer gradient.
First-order mode evaluates the outer gradient at the adapted parameters;
exact second-order mode differentiates through the inner step by central
finite differences and is only practical for tiny test models. With two or
more tasks per iteration, a forked child process (``_Child``) computes the
later half of the outer gradients.

``adapt`` spends a fixed episode budget on a target city (``spend_budget``):
the dynamics model starts from the meta-trained parameters, the observation
estimator starts fresh, and both are fitted on everything collected so far
after each budgeted episode. The two fits are independent, so the estimator
is fitted in a forked child process (``_forked``) while the parent fits the
dynamics net over the same minibatches.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nn
from .errors import ConfigurationError, ShapeError
from .planner import (
    DistanceConfig,
    DynamicsModel,
    PlannerController,
    PolicyConfig,
    StateEstimator,
    ValueConfig,
    block_distance_loss,
    block_sums,
    default_dynamics_net,
    default_estimator_net,
    phase_encode,
    rowwise_block_distance_loss,
)
from .scenario import EnvFactory
from .sim import Sim
from .sim.network import SCHEMA_DIMS

COLUMNS = ("t", "obs", "state", "action", "state_next", "obs_next")


@dataclass
class TaskDataset:
    """All logged transitions for one city, one row per intersection per
    interval: the interval index ``t`` and ``action`` (m,), observations
    ``obs``/``obs_next`` (m, lanes, d_o) and true states
    ``state``/``state_next`` (m, lanes, N)."""

    city_id: str
    schema_id: str
    t: np.ndarray
    obs: np.ndarray
    state: np.ndarray
    action: np.ndarray
    state_next: np.ndarray
    obs_next: np.ndarray

    def __post_init__(self):
        if len(self.t) == 0:
            raise ConfigurationError(f"task dataset {self.city_id!r} is empty")
        if self.obs.shape[-1] != SCHEMA_DIMS.get(self.schema_id):
            raise ConfigurationError(
                f"dataset {self.city_id!r} has {self.obs.shape[-1]} "
                f"observation features, schema {self.schema_id!r} has "
                f"{SCHEMA_DIMS.get(self.schema_id)}"
            )

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def concat(cls, parts: Sequence["TaskDataset"]) -> "TaskDataset":
        """One dataset holding the rows of ``parts`` in order."""
        schemas = {p.schema_id for p in parts}
        if len(schemas) != 1:
            raise ConfigurationError(f"datasets mix schemas {schemas}")
        return cls(parts[0].city_id, parts[0].schema_id,
                   *(np.concatenate([getattr(p, c) for p in parts])
                     for c in COLUMNS))


def run_episode(sim: Sim, controller, intervals: int, interval_s: int = 20,
                record: bool = False, city_id: str = ""):
    """Drive one episode at the action-interval cadence.

    Returns (final metrics, transitions): a ``TaskDataset`` with one row
    per intersection per interval when recording is on, else an empty tuple.
    """
    controller.begin_episode(sim)
    obs, states = sim.snapshot()
    rows = []
    for t in range(intervals):
        acts = controller.decide(sim, t, obs)
        obs_next, states_next, _ = sim.step(acts, interval_s)
        if record:
            rows.extend((t, obs[node].values, states[node], acts[node],
                         states_next[node], obs_next[node].values)
                        for node in sim.nodes)
        obs, states = obs_next, states_next
    if not record:
        return sim.metrics(), ()
    return sim.metrics(), TaskDataset(
        city_id, sim.schema, *(np.array(col) for col in zip(*rows)))


def collect_experience(make_env: Callable[[int], Sim], controller,
                       episodes: int, rng: np.random.Generator,
                       city_id: str, intervals: int,
                       interval_s: int = 20) -> TaskDataset:
    """Run full episodes under the given behavior controller and log every
    per-intersection transition. Reproducible given an equally seeded rng
    and an equal-state controller."""
    if episodes < 1:
        raise ConfigurationError(f"episodes must be >= 1, got {episodes}")
    parts = []
    for _ in range(episodes):
        env = make_env(int(rng.integers(2 ** 31 - 1)))
        _, ep = run_episode(env, controller, intervals, interval_s,
                            record=True, city_id=city_id)
        parts.append(ep)
    return TaskDataset.concat(parts)


@dataclass(frozen=True)
class MamlConfig:
    """Two-loop meta-training hyperparameters."""

    inner_lr: float
    outer_lr: float
    meta_iterations: int
    task_batch_size: int
    inner_steps: int = 1
    first_order: bool = True
    batch_size: int = 256
    outer_optimizer: str = "adam"

    def __post_init__(self):
        if self.inner_lr < 0 or self.outer_lr < 0:
            raise ConfigurationError("learning rates must be >= 0")
        if self.meta_iterations < 0:
            raise ConfigurationError("meta_iterations must be >= 0")
        if self.task_batch_size < 1:
            raise ConfigurationError("task_batch_size must be >= 1")
        if self.inner_steps < 1:
            raise ConfigurationError("inner_steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.outer_optimizer not in ("sgd", "adam"):
            raise ConfigurationError(
                f"outer_optimizer must be 'sgd' or 'adam', "
                f"got {self.outer_optimizer!r}"
            )


class ArrayTask:
    """A meta-learning task over fixed (X, Y) arrays with a disjoint
    support/query split, half and half, and a supplied loss-and-gradient
    function."""

    def __init__(self, x: np.ndarray, y: np.ndarray,
                 loss_and_grad: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                         tuple[float, np.ndarray]],
                 batch_size: int, rng: np.random.Generator):
        self.x = x
        self.y = y
        self._loss_and_grad = loss_and_grad
        self.batch_size = batch_size
        n = x.shape[0]
        perm = rng.permutation(n)
        cut = max(1, round(n / 2))  # in [1, n - 1] once n > 1
        self.support_idx = perm[:cut]
        self.query_idx = perm[cut:] if n > 1 else perm

    def _draw(self, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if idx.size <= self.batch_size:
            return idx
        return rng.choice(idx, size=self.batch_size, replace=False)

    def support_batch(self, rng: np.random.Generator):
        return self._draw(self.support_idx, rng)

    def query_batch(self, rng: np.random.Generator):
        return self._draw(self.query_idx, rng)

    def loss_and_grad(self, theta: np.ndarray, batch: np.ndarray):
        return self._loss_and_grad(theta, self.x[batch], self.y[batch])


def _fd_outer_grad(theta: np.ndarray, task, support_batches, query_batch,
                   inner_lr: float, eps: float = 1e-6) -> np.ndarray:
    """Exact outer gradient through the inner adaptation, by central
    differences over the initial parameters. Test scale only."""

    def adapted_query_loss(t0: np.ndarray) -> float:
        t = t0
        for b in support_batches:
            _, g = task.loss_and_grad(t, b)
            t = t - inner_lr * g
        loss, _ = task.loss_and_grad(t, query_batch)
        return loss

    out = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tp[i] += eps
        up = adapted_query_loss(tp)
        tp[i] -= 2 * eps
        down = adapted_query_loss(tp)
        out[i] = (up - down) / (2 * eps)
    return out


def maml_run(theta0: np.ndarray, tasks: Sequence, cfg: MamlConfig,
             seed: int) -> np.ndarray:
    """Generic meta-training loop over tasks exposing ``support_batch``,
    ``query_batch``, and ``loss_and_grad``; returns the final parameters.

    Each iteration draws its tasks and their minibatches first. With two or
    more tasks, one forked ``_Child`` (the same for every iteration)
    computes the outer gradients of the later half of them from the
    parameters and the drawn indices while this process computes the
    first half; the gradients are summed in task order either way."""
    if not tasks:
        raise ConfigurationError("at least one task is required")
    if cfg.task_batch_size > len(tasks):
        raise ConfigurationError(
            f"task_batch_size ({cfg.task_batch_size}) exceeds the number of "
            f"tasks ({len(tasks)})"
        )
    rng = np.random.default_rng(seed)
    theta = np.array(theta0, dtype=np.float64, copy=True)
    opt = (nn.Adam(lr=cfg.outer_lr) if cfg.outer_optimizer == "adam"
           else nn.SGD(cfg.outer_lr))

    def outer_grad(theta, job) -> np.ndarray:
        ti, support_batches, query_batch = job
        task = tasks[ti]
        if not cfg.first_order:
            return _fd_outer_grad(theta, task, support_batches, query_batch,
                                  cfg.inner_lr)
        adapted = theta
        for b in support_batches:
            _, g = task.loss_and_grad(adapted, b)
            adapted = adapted - cfg.inner_lr * g
        return task.loss_and_grad(adapted, query_batch)[1]

    def outer_grads(request) -> list[np.ndarray]:
        theta, jobs = request
        return [outer_grad(theta, job) for job in jobs]

    child = (_Child(outer_grads)
             if cfg.task_batch_size > 1 and cfg.meta_iterations else None)
    try:
        for _ in range(cfg.meta_iterations):
            chosen = sorted(rng.choice(len(tasks), size=cfg.task_batch_size,
                                       replace=False))
            jobs = [(ti, [tasks[ti].support_batch(rng)
                          for _ in range(cfg.inner_steps)],
                     tasks[ti].query_batch(rng)) for ti in chosen]
            if child is None:
                grads = outer_grads((theta, jobs))
            else:
                cut = (len(jobs) + 1) // 2
                child.ask((theta, jobs[cut:]))
                grads = outer_grads((theta, jobs[:cut])) + child.answer()
            outer = np.zeros_like(theta)
            for g in grads:
                outer += g
            theta = opt.step(theta, outer)
    finally:
        if child is not None:
            child.close()
    return theta


def _dynamics_xy(ds: TaskDataset, lanes: int,
                 n_grids: int) -> tuple[np.ndarray, np.ndarray]:
    """Dynamics-net inputs (state and phase) and targets (next state) for
    a dynamics model over ``lanes`` x ``n_grids`` states."""
    if ds.state.shape[1:] != (lanes, n_grids):
        raise ShapeError(
            f"dataset {ds.city_id!r} has states of shape {ds.state.shape[1:]}, "
            f"the dynamics model expects ({lanes}, {n_grids})"
        )
    m = len(ds)
    return (phase_encode(ds.state.reshape(m, -1), ds.action),
            ds.state_next.reshape(m, -1))


def maml_train(tasks: Sequence[TaskDataset], cfg: MamlConfig,
               dyn: DynamicsModel, dist_cfg: DistanceConfig,
               seed: int) -> np.ndarray:
    """Meta-train the dynamics model across city datasets; returns the
    aggregated initialization parameters."""
    if not tasks:
        raise ConfigurationError("at least one task dataset is required")
    loss_fn = block_distance_loss(dist_cfg, dyn.lanes)
    rng = np.random.default_rng(seed)

    def lag(theta, xb, yb):
        return nn.loss_and_grad(dyn.net, loss_fn, xb, yb, params=theta)

    return maml_run(dyn.net.params, [
        ArrayTask(*_dynamics_xy(ds, dyn.lanes, dyn.state_grids), lag,
                  cfg.batch_size, rng) for ds in tasks], cfg, seed)


def seq_pretrain(tasks: Sequence[TaskDataset], cfg: MamlConfig,
                 dyn: DynamicsModel, dist_cfg: DistanceConfig,
                 seed: int) -> np.ndarray:
    """Ablation of the aggregator: plain minibatch gradient descent over the
    city datasets one after another, same per-step budget as the meta loop."""
    if not tasks:
        raise ConfigurationError("at least one task dataset is required")
    loss_fn = block_distance_loss(dist_cfg, dyn.lanes)
    rng = np.random.default_rng(seed)
    opt = nn.SGD(cfg.inner_lr)
    net = dyn.net
    for ds in tasks:
        net = nn.fit(net, loss_fn,
                     *_dynamics_xy(ds, dyn.lanes, dyn.state_grids), opt,
                     nn.sampled_batches(rng, len(ds), cfg.batch_size,
                                        cfg.meta_iterations))
    return net.params


@dataclass(frozen=True)
class AdaptConfig:
    """Fixed-budget target-city fine-tuning hyperparameters."""

    lr: float
    target_episode_budget: int
    epochs_per_episode: int = 20
    batch_size: int = 128
    epsilon0: float = 0.1
    epsilon_decay: float = 0.99

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr}")
        if self.target_episode_budget < 1:
            raise ConfigurationError(
                f"target_episode_budget must be >= 1, got "
                f"{self.target_episode_budget}"
            )
        if self.epochs_per_episode < 1:
            raise ConfigurationError("epochs_per_episode must be >= 1")
        if not 0.0 <= self.epsilon0 <= 1.0 or not 0.0 < self.epsilon_decay <= 1.0:
            raise ConfigurationError("invalid exploration schedule")


def spend_budget(env_factory: EnvFactory, cfg: AdaptConfig,
                 controller: Callable[[float, np.random.Generator], object],
                 train: Callable[[TaskDataset], None],
                 rng: np.random.Generator) -> None:
    """Run ``cfg.target_episode_budget`` recorded episodes, each on an env
    and under ``controller(epsilon, rng)`` seeded in that order from ``rng``;
    after each, epsilon decays and ``train`` gets every record so far."""
    scenario = env_factory.scenario
    episodes: list[TaskDataset] = []
    epsilon = cfg.epsilon0
    for _ in range(cfg.target_episode_budget):
        env = env_factory.make(int(rng.integers(2 ** 31 - 1)))
        ctrl = controller(epsilon,
                          np.random.default_rng(rng.integers(2 ** 31 - 1)))
        _, ep = run_episode(env, ctrl, scenario.intervals,
                            scenario.interval_s, record=True,
                            city_id=scenario.name)
        episodes.append(ep)
        epsilon *= cfg.epsilon_decay
        train(TaskDataset.concat(episodes))


def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions in this process, found
    by library name in ``/proc/self/maps``; None for another BLAS or
    without ``/proc``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("openblas", ""), ("openblas", "64_"),
                               ("scipy_openblas", "64_"),
                               ("scipy_openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _send(pipe, obj) -> None:
    """Write ``obj`` to ``pipe`` as one frame: its pickle's length, then
    the pickle."""
    data = pickle.dumps(obj)
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe):
    """The next frame's object from ``pipe``; EOFError when the writer
    closed its end before a whole frame arrived."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return pickle.loads(data)
    raise EOFError("the pipe closed before a whole frame arrived")


class _Child:
    """A forked child process (POSIX only) that answers requests: each
    object passed to ``ask`` goes to the child, which sends back
    ``serve(request)``, or the exception that raised; ``answer`` returns
    the next of these, or re-raises it with its type and message. Call
    ``close`` in a ``finally``: the child ends once its requests are
    closed, and ``close`` reaps it.

    Until the child is reaped, OpenBLAS runs one thread in each process:
    its threads spin while they wait for work, so two processes with a
    BLAS thread per CPU each slow each other down several times over."""

    def __init__(self, serve: Callable[[object], object]):
        self._blas = _openblas_threads()
        self._threads = self._blas[0]() if self._blas else 1
        self._code = None
        fds: list[int] = []  # requests (read, write), answers (read, write)
        try:
            fds += os.pipe()
            fds += os.pipe()
            self._set_blas_threads(1)
            self.pid = os.fork()
        except OSError:
            self._set_blas_threads(self._threads)
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(fds[1])
                os.close(fds[2])
                with open(fds[0], "rb") as requests, \
                        open(fds[3], "wb") as answers:
                    while True:
                        try:
                            request = _receive(requests)
                        except EOFError:
                            break
                        try:
                            out = (True, serve(request))
                        except BaseException as exc:
                            out = (False, exc)
                        _send(answers, out)
                code = 0
            finally:
                os._exit(code)  # skip atexit handlers and inherited stdio
        os.close(fds[0])
        os.close(fds[3])
        self._requests = open(fds[1], "wb")
        self._answers = open(fds[2], "rb")

    def _set_blas_threads(self, n: int) -> None:
        if self._blas:
            self._blas[1](n)

    def _ended(self) -> RuntimeError:
        return RuntimeError(f"forked child {self.pid} ended without a "
                            f"result (exit code {self.close()})")

    def ask(self, request) -> None:
        try:
            _send(self._requests, request)
        except BrokenPipeError:
            raise self._ended() from None

    def answer(self):
        try:
            ok, value = _receive(self._answers)
        except EOFError:
            raise self._ended() from None
        if not ok:
            raise value
        return value

    def close(self) -> int:
        """Close both pipes, reap the child, restore OpenBLAS's thread
        count, and return the child's exit code; a later call returns the
        same code."""
        if self._code is None:
            try:
                with contextlib.suppress(BrokenPipeError):  # a cut request
                    self._requests.close()
                self._answers.close()
                self._code = os.waitstatus_to_exitcode(
                    os.waitpid(self.pid, 0)[1])
            finally:
                self._set_blas_threads(self._threads)
        return self._code


def _forked(fn: Callable[[], object]) -> Callable[[], object]:
    """Start ``fn()`` in a forked ``_Child``. Returns ``wait()``, which
    reaps the child and returns what ``fn`` returned, or re-raises what it
    raised. Call ``wait()`` exactly once."""
    child = _Child(lambda _: fn())
    try:
        child.ask(None)
    except BaseException:
        child.close()
        raise

    def wait():
        try:
            return child.answer()
        finally:
            child.close()

    return wait


def adapt(phi: np.ndarray, env_factory: EnvFactory, cfg: AdaptConfig,
          schema_id: str, seed: int, *, dyn_hidden: tuple[int, ...],
          estimator_hidden: tuple[int, ...], value_cfg: ValueConfig,
          dist_cfg: DistanceConfig) -> tuple[StateEstimator, DynamicsModel]:
    """Adapt to a target city within an exact episode budget.

    The dynamics net starts from the meta-trained parameters, the estimator
    from scratch. After each budgeted episode (driven by the current
    epsilon-greedy planner) each net is fitted to its own block distance on
    all records collected so far, both over the same minibatches, drawn
    before either fit starts: the estimator in a forked child that sends back
    the fitted net and its Adam state, the dynamics net meanwhile in this
    process. No child outlives a call to ``train``, whether it returns or
    raises.
    """
    scenario = env_factory.scenario
    if schema_id != scenario.schema:
        raise ConfigurationError(
            f"schema {schema_id!r} does not match target scenario schema "
            f"{scenario.schema!r}"
        )
    net = scenario.network
    lanes = net.lanes_per_intersection
    n_grids = net.state_grids

    seeds = np.random.SeedSequence(seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    g_net = default_dynamics_net(lanes, n_grids, dyn_hidden,
                                 seed=int(init_rng.integers(2 ** 31 - 1)))
    f_net = default_estimator_net(schema_id, n_grids, estimator_hidden,
                                  seed=int(init_rng.integers(2 ** 31 - 1)))
    estimator = StateEstimator(f_net, schema_id, lanes, n_grids)
    dynamics = DynamicsModel(g_net.with_params(phi), lanes, n_grids)

    train_rng = np.random.default_rng(seeds[1])
    f_loss = rowwise_block_distance_loss(dist_cfg, lanes)
    g_loss = block_distance_loss(dist_cfg, lanes)
    opt_f = nn.Adam(lr=cfg.lr)
    opt_g = nn.Adam(lr=cfg.lr)

    def controller(epsilon, rng):
        return PlannerController(estimator, dynamics,
                                 PolicyConfig(epsilon=epsilon), value_cfg, rng)

    def train(ds: TaskDataset) -> None:
        nonlocal opt_f
        batches = list(nn.epoch_batches(train_rng, len(ds), cfg.batch_size,
                                        cfg.epochs_per_episode))
        wait = _forked(lambda: (nn.fit(estimator.net, f_loss, ds.obs,
                                       ds.state, opt_f, batches), opt_f))
        try:
            dynamics.net = nn.fit(dynamics.net, g_loss, *_dynamics_xy(
                ds, lanes, n_grids), opt_g, batches)
        finally:
            estimator.net, opt_f = wait()

    spend_budget(env_factory, cfg, controller, train,
                 np.random.default_rng(seeds[2]))
    return estimator, dynamics


def offline_train_repr(logged: TaskDataset, schema_id: str, epochs: int,
                       lr: float, *, dist_cfg: DistanceConfig,
                       hidden: tuple[int, ...] = (32, 32),
                       batch_size: int = 128,
                       seed: int = 0) -> StateEstimator:
    """Train the observation-to-state estimator purely on a logged
    dataset's observations and states; no environment interaction happens
    here."""
    if schema_id not in SCHEMA_DIMS:
        raise ConfigurationError(f"unknown observation schema {schema_id!r}")
    if logged.schema_id != schema_id:
        raise ConfigurationError(
            f"logged observations have schema {logged.schema_id!r}, "
            f"expected {schema_id!r}"
        )
    lanes, n_grids = logged.state.shape[1:]
    f_net = nn.fit(
        default_estimator_net(schema_id, n_grids, hidden, seed=seed),
        rowwise_block_distance_loss(dist_cfg, lanes), logged.obs,
        logged.state, nn.Adam(lr=lr),
        nn.epoch_batches(np.random.default_rng(seed), len(logged),
                         batch_size, epochs))
    return StateEstimator(f_net, schema_id, lanes, n_grids)


def _mean_distance(pred: np.ndarray, target: np.ndarray,
                   dist_cfg: DistanceConfig) -> float:
    """Mean ``state_distance`` over paired (lanes, N) states, bit for bit:
    one block-sum pass per side, and the rows' distances added in order."""
    sums = [block_sums(states, dist_cfg.state_grids, dist_cfg.pass_grids)
            for states in (pred, target)]
    d = sums[0] - sums[1]
    w = dist_cfg.block_discount ** np.arange(dist_cfg.blocks)
    return sum((w * d * d).sum(axis=1).tolist()) / len(target)


def training_loss(estimator: StateEstimator, logged: TaskDataset,
                  dist_cfg: DistanceConfig) -> float:
    """Mean estimator distance over a logged dataset's observations and
    states."""
    estimator.check(logged.schema_id, logged.obs.shape[1])
    obs = logged.obs
    pred = nn.forward(estimator.net, obs.reshape(-1, obs.shape[-1]))
    return _mean_distance(pred.reshape(logged.state.shape), logged.state,
                          dist_cfg)


def dynamics_error(dyn: DynamicsModel, ds: TaskDataset,
                   dist_cfg: DistanceConfig) -> float:
    """Mean one-step prediction distance over a dataset's transitions."""
    pred = nn.forward(dyn.net, _dynamics_xy(ds, dyn.lanes,
                                            dyn.state_grids)[0])
    return _mean_distance(pred.reshape(ds.state.shape), ds.state_next,
                          dist_cfg)
