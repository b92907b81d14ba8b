"""Multi-city experience aggregation and adaptation.

Experience is columnar: a ``TaskDataset`` holds one row per intersection
per interval in stacked arrays (observations, states, phases and what
followed), built once per episode. Every training loop reads those arrays
directly: the dynamics net sees ``phase_encode``-d states, encoded per
minibatch when it is drawn (``_PhaseCoded``), so no loop holds an encoded
copy of a dataset; the estimator sees each state's lane rows, and single-net
loops go through ``nn.fit``.

``maml_run`` is the generic two-loop meta-trainer: per sampled task it takes
``inner_steps`` plain gradient steps on a support batch, evaluates the
adapted parameters on a query batch, and applies the summed outer gradient.
First-order mode evaluates the outer gradient at the adapted parameters;
exact second-order mode differentiates through the inner step by central
finite differences and is only practical for tiny test models. With two or
more tasks per iteration, a forked child process (``_Child``) computes the
later half of the outer gradients.

``spend_budget`` is the one loop that spends a target city's episode
budget, for both arms of the ablation. Its records are arrays sized for the
whole budget after the first episode and filled in place, so no record is
copied again. After each budgeted episode it fits the dynamics net on
everything collected so far and, in a forked child process (``_forked``)
over the same minibatches, the ``StateEstimator``;
``adapt`` starts from the meta-trained dynamics parameters and a fresh
estimator. The monolithic ablation's ``_ObservationStates`` is not fitted.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import pickle
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nn
from .errors import ConfigurationError, Document, ShapeError
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

COLUMNS = ("obs", "state", "action", "state_next")


@dataclass
class TaskDataset:
    """All logged transitions for one city, one row per intersection per
    interval: observations ``obs`` (m, lanes, d_o), true states
    ``state``/``state_next`` (m, lanes, N) and the phase taken, ``action``
    (m,).

    States are occupancy counts as uint8, one byte per count, as
    ``Sim.snapshot`` builds them. Every consumer widens them to float64
    first; form a difference of states likewise in a signed float dtype,
    since ``state_next - state`` wraps in uint8."""

    city_id: str
    schema_id: str
    obs: np.ndarray
    state: np.ndarray
    action: np.ndarray
    state_next: np.ndarray

    def __post_init__(self):
        if len(self.action) == 0:
            raise ConfigurationError(f"task dataset {self.city_id!r} is empty")
        if self.obs.shape[-1] != SCHEMA_DIMS.get(self.schema_id):
            raise ConfigurationError(
                f"dataset {self.city_id!r} has {self.obs.shape[-1]} "
                f"observation features, schema {self.schema_id!r} has "
                f"{SCHEMA_DIMS.get(self.schema_id)}"
            )

    def __len__(self) -> int:
        return len(self.action)

    @classmethod
    def concat(cls, parts: Sequence["TaskDataset"]) -> "TaskDataset":
        """One dataset holding the rows of ``parts`` in order."""
        schemas = {p.schema_id for p in parts}
        if len(schemas) != 1:
            raise ConfigurationError(f"datasets mix schemas {schemas}")
        return cls(parts[0].city_id, parts[0].schema_id,
                   *(np.concatenate([getattr(p, c) for p in parts])
                     for c in COLUMNS))


class _IntervalObservations(Mapping):
    """A simulator's observations for the interval about to be decided,
    read-only. The first read builds all of them with one ``observe_all``
    call; any read after the simulator has stepped raises RuntimeError."""

    def __init__(self, sim: Sim):
        self._sim = sim
        self._clock = sim.clock
        self._obs = None

    def _built(self) -> dict:
        if self._sim.clock != self._clock:
            raise RuntimeError(
                f"observations of t={self._clock} s read after the simulator "
                f"stepped to t={self._sim.clock} s")
        if self._obs is None:
            self._obs = self._sim.observe_all()
        return self._obs

    def __getitem__(self, node):
        return self._built()[node]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())


def run_episode(sim: Sim, controller, intervals: int, interval_s: int = 20,
                record: bool = False, city_id: str = ""):
    """Drive one episode at the action-interval cadence.

    Returns (final metrics, transitions): a ``TaskDataset`` with one row
    per intersection per interval when recording is on, else an empty tuple.
    A recording episode takes a ``snapshot`` after every step. Otherwise
    no state is built, and ``controller.decide`` gets a read-only mapping
    that builds the interval's observations on its first read, so a
    controller that never reads them costs no observation either.
    """
    if intervals < 1:
        raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
    controller.begin_episode(sim)
    rows = []
    if record:
        obs, states = sim.snapshot()
    for t in range(intervals):
        acts = controller.decide(
            sim, t, obs if record else _IntervalObservations(sim))
        sim.step(acts, interval_s)
        if record:
            obs_next, states_next = sim.snapshot()
            rows.extend((obs[node].values, states[node], acts[node],
                         states_next[node]) for node in sim.nodes)
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
class MamlConfig(Document):
    """Two-loop meta-training hyperparameters."""

    where = "maml"

    inner_lr: float
    outer_lr: float
    meta_iterations: int
    task_batch_size: int
    inner_steps: int = 1
    first_order: bool = True
    batch_size: int = 256
    outer_optimizer: str = "adam"

    def __post_init__(self):
        for name in ("inner_lr", "outer_lr"):
            lr = getattr(self, name)
            if not 0 <= lr < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {lr}")
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
                   inner_lr: float) -> np.ndarray:
    """Exact outer gradient through the inner adaptation, by central
    differences (step 1e-6) over the initial parameters. Test scale only."""
    eps = 1e-6

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


class _PhaseCoded:
    """The ``phase_encode`` of flattened rows and their phases, encoded when
    indexed: ``x[idx]`` is ``phase_encode(rows[idx], actions[idx])``, the
    same bytes as rows ``idx`` of the whole encoding, which is never built.
    ``shape`` is that encoding's (rows, width)."""

    def __init__(self, rows: np.ndarray, actions: np.ndarray):
        self._rows, self._actions = rows, actions
        self.shape = (len(rows), phase_encode(rows[:0], actions[:0]).shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, idx) -> np.ndarray:
        return phase_encode(self._rows[idx], self._actions[idx])


def _dynamics_xy(ds: TaskDataset, rows: np.ndarray, lanes: int,
                 n_grids: int) -> tuple[_PhaseCoded, np.ndarray]:
    """Dynamics-net inputs (each of ``rows``, ``ds.state`` or in the
    monolithic ablation ``ds.obs``, flattened, and its phase, encoded per
    drawn batch) and targets (next state) for a dynamics model over
    ``lanes`` x ``n_grids`` states."""
    if ds.state.shape[1:] != (lanes, n_grids):
        raise ShapeError(
            f"dataset {ds.city_id!r} has states of shape {ds.state.shape[1:]}, "
            f"the dynamics model expects ({lanes}, {n_grids})"
        )
    m = len(ds)
    return (_PhaseCoded(rows.reshape(m, -1), ds.action),
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

    if cfg.meta_iterations:  # else maml_run returns theta0 untrained
        tasks = [ArrayTask(*_dynamics_xy(ds, ds.state, dyn.lanes,
                                         dyn.state_grids),
                           lag, cfg.batch_size, rng) for ds in tasks]
    return maml_run(dyn.net.params, tasks, cfg, seed)


def seq_pretrain(tasks: Sequence[TaskDataset], cfg: MamlConfig,
                 dyn: DynamicsModel, dist_cfg: DistanceConfig,
                 seed: int) -> np.ndarray:
    """Ablation of meta-training: plain minibatch gradient descent over the
    city datasets one after another, same per-step budget as the meta loop."""
    if not tasks:
        raise ConfigurationError("at least one task dataset is required")
    loss_fn = block_distance_loss(dist_cfg, dyn.lanes)
    rng = np.random.default_rng(seed)
    opt = nn.SGD(cfg.inner_lr)
    net = dyn.net
    for ds in tasks:
        net = nn.fit(net, loss_fn,
                     *_dynamics_xy(ds, ds.state, dyn.lanes, dyn.state_grids),
                     opt,
                     nn.sampled_batches(rng, len(ds), cfg.batch_size,
                                        cfg.meta_iterations))
    return net.params


@dataclass(frozen=True)
class AdaptConfig(Document):
    """Fixed-budget target-city fine-tuning hyperparameters."""

    where = "adapt"

    lr: float
    target_episode_budget: int
    epochs_per_episode: int = 20
    batch_size: int = 128
    epsilon0: float = 0.1
    epsilon_decay: float = 0.99

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigurationError(
                f"lr must be finite and > 0, got {self.lr}")
        if self.target_episode_budget < 1:
            raise ConfigurationError(
                f"target_episode_budget must be >= 1, got "
                f"{self.target_episode_budget}"
            )
        if self.epochs_per_episode < 1:
            raise ConfigurationError("epochs_per_episode must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.epsilon0 <= 1.0 or not 0.0 < self.epsilon_decay <= 1.0:
            raise ConfigurationError("invalid exploration schedule")


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


class _Child:
    """A forked child process (POSIX only) that answers requests: each
    object passed to ``ask`` goes to the child, which sends back
    ``serve(request)``, or the exception that raised; ``answer`` returns
    the next of these, or re-raises it with its type and message. Both go
    as pickles, one after another on a pipe. Call ``close`` in a
    ``finally``: the child ends once its requests are closed, and ``close``
    reaps it.

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
                            request = pickle.load(requests)
                        except EOFError:
                            break
                        try:
                            out = (True, serve(request))
                        except BaseException as exc:
                            out = (False, exc)
                        pickle.dump(out, answers)
                        answers.flush()
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
            pickle.dump(request, self._requests)
            self._requests.flush()
        except BrokenPipeError:
            raise self._ended() from None

    def answer(self):
        try:
            ok, value = pickle.load(self._answers)
        except (EOFError, pickle.UnpicklingError):
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


class _ObservationStates:
    """The monolithic estimator: each observation stands in for its state."""

    def estimate(self, observations) -> np.ndarray:
        return np.stack([obs.values for obs in observations])


def spend_budget(env_factory: EnvFactory, cfg: AdaptConfig,
                 estimator: StateEstimator | _ObservationStates,
                 dynamics: DynamicsModel, *, value_cfg: ValueConfig,
                 dist_cfg: DistanceConfig, rng: np.random.Generator,
                 train_rng: np.random.Generator,
                 scored: Callable | None = None) -> None:
    """Spend ``cfg.target_episode_budget`` recorded episodes on the target,
    training the models in place. Each episode runs on an env and under an
    epsilon-greedy ``PlannerController`` seeded in that order from ``rng``,
    and must record ``intervals`` x nodes rows (else ``ShapeError``); its
    rows go into arrays sized for the whole budget after episode 1, and the
    fits read views of episodes 1..b. Then epsilon decays, minibatches over
    every record so far are drawn from ``train_rng``, and each net is
    fitted over them to its block distance, with its own Adam kept across
    episodes: the dynamics net here, on the records' states (observations
    for ``_ObservationStates``, which is not fitted), and a
    ``StateEstimator`` meanwhile in a forked child.
    No child outlives an episode. Then ``scored``, if given, gets the count
    of episodes spent and both models, which it must not change."""
    scenario = env_factory.scenario
    lanes, n_grids = dynamics.lanes, dynamics.state_grids
    fit_estimator = isinstance(estimator, StateEstimator)
    f_loss = rowwise_block_distance_loss(dist_cfg, lanes)
    g_loss = block_distance_loss(dist_cfg, lanes)
    opt_f, opt_g = nn.Adam(lr=cfg.lr), nn.Adam(lr=cfg.lr)
    store = None  # each column's rows for the whole budget, filled in place
    epsilon = cfg.epsilon0
    for spent in range(1, cfg.target_episode_budget + 1):
        env = env_factory.make(int(rng.integers(2 ** 31 - 1)))
        ctrl = PlannerController(
            estimator, dynamics, PolicyConfig(epsilon=epsilon), value_cfg,
            np.random.default_rng(rng.integers(2 ** 31 - 1)))
        _, ep = run_episode(env, ctrl, scenario.intervals,
                            scenario.interval_s, record=True,
                            city_id=scenario.name)
        n = scenario.intervals * len(env.nodes)
        if len(ep) != n:
            raise ShapeError(
                f"budget episode {spent} recorded {len(ep)} rows, expected "
                f"{scenario.intervals} intervals x {len(env.nodes)} nodes")
        if store is None:
            store = {c: np.empty((cfg.target_episode_budget * n,
                                  *getattr(ep, c).shape[1:]),
                                 getattr(ep, c).dtype) for c in COLUMNS}
        for c in COLUMNS:
            store[c][(spent - 1) * n:spent * n] = getattr(ep, c)
        records = TaskDataset(ep.city_id, ep.schema_id,
                              *(store[c][:spent * n] for c in COLUMNS))
        del ep  # its rows are in the store; the fits need no second copy
        epsilon *= cfg.epsilon_decay
        batches = list(nn.epoch_batches(train_rng, len(records),
                                        cfg.batch_size,
                                        cfg.epochs_per_episode))
        wait = _forked(lambda: (nn.fit(estimator.net, f_loss, records.obs,
                                       records.state, opt_f, batches),
                                opt_f)) if fit_estimator else None
        try:
            dynamics.net = nn.fit(dynamics.net, g_loss, *_dynamics_xy(
                records, records.state if fit_estimator else records.obs,
                lanes, n_grids), opt_g, batches)
        finally:
            if wait is not None:
                estimator.net, opt_f = wait()
        if scored is not None:
            scored(spent, estimator, dynamics)


def adapt(phi: np.ndarray, env_factory: EnvFactory, cfg: AdaptConfig,
          schema_id: str, seed: int, *, dyn_hidden: tuple[int, ...],
          estimator_hidden: tuple[int, ...], value_cfg: ValueConfig,
          dist_cfg: DistanceConfig, scored: Callable | None = None
          ) -> tuple[StateEstimator, DynamicsModel]:
    """Adapt to a target city within an exact episode budget: ``spend_budget``
    with the dynamics net started from the meta-trained parameters ``phi``
    and the estimator from scratch. ``scored`` is as in ``spend_budget``.
    """
    scenario = env_factory.scenario
    if schema_id != scenario.schema:
        raise ConfigurationError(
            f"schema {schema_id!r} does not match target scenario schema "
            f"{scenario.schema!r}"
        )
    net = scenario.network
    lanes, n_grids = net.lanes_per_intersection, net.state_grids
    seeds = np.random.SeedSequence(seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    g_net = default_dynamics_net(lanes, n_grids, dyn_hidden,
                                 seed=int(init_rng.integers(2 ** 31 - 1)))
    f_net = default_estimator_net(schema_id, n_grids, estimator_hidden,
                                  seed=int(init_rng.integers(2 ** 31 - 1)))
    estimator = StateEstimator(f_net, schema_id, lanes, n_grids)
    dynamics = DynamicsModel(g_net.with_params(phi), lanes, n_grids)
    spend_budget(env_factory, cfg, estimator, dynamics, value_cfg=value_cfg,
                 dist_cfg=dist_cfg, rng=np.random.default_rng(seeds[2]),
                 train_rng=np.random.default_rng(seeds[1]), scored=scored)
    return estimator, dynamics


def offline_train_repr(logged: TaskDataset, schema_id: str, epochs: int,
                       lr: float, *, dist_cfg: DistanceConfig,
                       hidden: tuple[int, ...], batch_size: int,
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
    pred = dyn.predict_flat(ds.state.reshape(len(ds), -1), ds.action)
    return _mean_distance(pred.reshape(ds.state.shape), ds.state_next,
                          dist_cfg)
