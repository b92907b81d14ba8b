"""The benchmark's three workloads: pipeline, simulate and control.

Each workload builds its inputs from the workload seed, then runs rounds.
A round is the workload's unit of work:

* pipeline: one seed of ``modular_pipeline`` (collect -> meta-train ->
  adapt -> evaluate -> held-out) on the desk experiment, stage sizes scaled
  so that two seeds fit one run;
* simulate: 16 baseline episodes, four controllers on four scenarios;
* control: one greedy ``PlannerController`` episode on city-c.

Round ``r`` draws its inputs from ``SeedSequence([seed, r])``, so round 0 is
a pure function of the seed; fingerprints and ``travel_s`` come from it.
``recheck`` re-runs one operation of round 0 and compares; pipeline has
none, because each of its rounds re-runs its greedy evaluation from the
returned models and compares, and a full seed costs as much as a round.
All workloads call only the program's public API, and the decision timer
below is the benchmark's own pass-through controller.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .reference import clock, recent_speed

PROGRAM_MODULES = {
    "nn": "gridlight.nn",
    "sim": "gridlight.sim",
    "engine": "gridlight.sim.engine",
    "scenario": "gridlight.scenario",
    "planner": "gridlight.planner",
    "baselines": "gridlight.baselines",
    "meta": "gridlight.meta",
    "harness": "gridlight.harness",
    "runners": "gridlight.harness.runners",
}

# Stage sizes of the pipeline workload. The desk experiment collects 20
# episodes per source city, meta-trains for 150 iterations and trains 20
# epochs after each of the 5 budgeted episodes: about 40 s per seed, too
# long to repeat within one run. The episode budget and every network,
# scenario and episode length stay as in default_experiment().
PIPELINE_SCALE = {"collect_episodes": 4, "meta_iterations": 50,
                  "epochs_per_episode": 5}
# Greedy re-evaluations after each pipeline seed. The machine's speed
# changes within a second, and the reference slices (reference.py) only
# follow it on average over many episodes, so a run's decision latency is
# the mean over ten episodes, not two.
PIPELINE_EVAL_REPEATS = 5

SIM_METHODS = ("fixed_time", "sotl", "max_pressure", "random")
SIM_SCENARIOS = ("city-a", "city-b", "city-c", "saturated")
# simulate reports decision latency of this controller: the behaviour
# policy of source collection and the one baseline that queries queues.
SIM_DECIDE_METHOD = "max_pressure"

# control builds its models from this fixed seed, so every workload seed
# drives the same controller and only the traffic inputs change.
CONTROL_MODEL_SEED = 0
CONTROL_SETUP_EPOCHS = 5


class Program:
    """The program's modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "gridlight" or m.startswith("gridlight.")]:
            del sys.modules[name]
        for attr, mod in PROGRAM_MODULES.items():
            setattr(self, attr, importlib.import_module(mod))


def warm_up(p: Program) -> None:
    """Untimed: start the BLAS threads and fill caches before round 0, so
    the first round is not charged for them."""
    cfg = p.harness.default_experiment()
    target = cfg.target
    net = p.planner.default_dynamics_net(
        target.network.lanes_per_intersection, target.network.state_grids,
        cfg.dyn_hidden)
    x = np.zeros((256, net.layer_sizes[0]))
    y = np.zeros((256, net.layer_sizes[-1]))
    for _ in range(20):
        p.nn.loss_and_grad(net, p.nn.squared_error_loss, x, y)
    p.meta.run_episode(target.make(0), p.baselines.MaxPressureController(),
                       30, target.interval_s)


def jitter_flows(spec, rng: np.random.Generator):
    """The scenario with each flow's first arrival moved to a seeded offset
    within its headway; volumes, routes and networks are unchanged."""
    return replace(spec, flows=tuple(
        replace(f, start_s=f.start_s + int(rng.integers(f.headway_s)))
        for f in spec.flows))


class DecisionTimer:
    """Pass-through controller recording, per decide call, its wall time
    without reference slices and the machine's speed just before it
    (``recent_speed``; None when no slice ran yet)."""

    def __init__(self, inner):
        self.inner = inner
        self.samples: list[tuple[float, float | None]] = []

    def begin_episode(self, env) -> None:
        self.inner.begin_episode(env)

    def decide(self, env, interval_index: int, obs: dict) -> dict:
        speed = recent_speed()
        t0 = clock()
        acts = self.inner.decide(env, interval_index, obs)
        self.samples.append((clock() - t0, speed))
        return acts


@dataclass
class RoundResult:
    wall_s: float
    ticks: int
    travel_s: float
    decide_s: list[tuple[float, float | None]]  # (seconds, speed) pairs
    fingerprint: str
    ops: int
    details: dict = field(default_factory=dict)


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _episode_ticks(spec) -> int:
    return spec.intervals * spec.interval_s


class Pipeline:
    name = "pipeline"
    setups = 9

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.p = Program()
        self.base = self.p.harness.default_experiment()

    def config(self, r: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r]))
        b = self.base
        cfg = replace(
            b,
            sources=tuple(jitter_flows(s, rng) for s in b.sources),
            target=jitter_flows(b.target, rng),
            collect_episodes=PIPELINE_SCALE["collect_episodes"],
            maml=replace(b.maml,
                         meta_iterations=PIPELINE_SCALE["meta_iterations"]),
            adapt=replace(b.adapt, epochs_per_episode=PIPELINE_SCALE[
                "epochs_per_episode"]))
        return cfg, int(rng.integers(2 ** 31 - 1))

    def round(self, r: int, tracer=None) -> RoundResult:
        p = self.p
        cfg, pseed = self.config(r)
        t0 = clock()
        if tracer is None:
            metrics, art = p.runners.modular_pipeline(cfg, pseed)
        else:
            with tracer.span("bench.seed"):
                metrics, art = p.runners.modular_pipeline(cfg, pseed)
        wall = clock() - t0

        # Re-run the greedy evaluation from the returned models; each re-run
        # must reproduce the pipeline's metrics exactly, and they time
        # decisions.
        target = cfg.target
        vc = p.runners.value_config_for(cfg, target)
        decide, again = [], []
        for _ in range(PIPELINE_EVAL_REPEATS):
            timer = DecisionTimer(p.planner.PlannerController(
                art["estimator"], art["dynamics"],
                p.planner.PolicyConfig(epsilon=0.0), vc,
                np.random.default_rng(0)))
            sim = target.make(pseed)
            m, _ = p.meta.run_episode(sim, timer, target.intervals,
                                      target.interval_s)
            again.append(m)
            decide.extend(timer.samples)

        heldout = art["heldout_dist_adapted"]
        _check(art["interactions"] == cfg.adapt.target_episode_budget,
               f"pipeline used {art['interactions']} target episodes, "
               f"budget is {cfg.adapt.target_episode_budget}")
        _check(_finite(metrics.avg_travel_time_s, metrics.avg_queue_length,
                       heldout, art["heldout_dist_meta_init"]),
               "pipeline metrics are not finite")
        _check(all(m == metrics for m in again),
               f"greedy re-evaluations gave {again}, pipeline gave {metrics}")

        ticks = (sum(cfg.collect_episodes * _episode_ticks(s)
                     for s in cfg.sources)
                 + (cfg.adapt.target_episode_budget + 2)
                 * _episode_ticks(target))
        fp = _hash(metrics, heldout, art["heldout_dist_meta_init"],
                   art["interactions"], art["phi"].tobytes(),
                   art["estimator"].net.params.tobytes(),
                   art["dynamics"].net.params.tobytes(), sim.digest())
        return RoundResult(
            wall, ticks, metrics.avg_travel_time_s, decide, fp, ops=1,
            details={"pipeline_seed": pseed, "heldout_dist": heldout,
                     "heldout_dist_meta_init": art["heldout_dist_meta_init"],
                     "interactions": art["interactions"],
                     "avg_queue_length": metrics.avg_queue_length})


class Simulate:
    name = "simulate"
    setups = 9

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.p = Program()
        self.cities = {n: self.p.harness.DESK_CITIES[n]()
                       for n in SIM_SCENARIOS}

    def episodes(self, r: int):
        """(index, scenario spec, method, controller seed) per episode."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r]))
        out = []
        for name in SIM_SCENARIOS:
            spec = jitter_flows(self.cities[name], rng)
            for method in SIM_METHODS:
                out.append((len(out), spec, method,
                            int(rng.integers(2 ** 31 - 1))))
        return out

    def episode(self, spec, method: str, ctrl_seed: int):
        p = self.p
        timer = DecisionTimer(p.runners.baseline_controller(
            method, np.random.default_rng(ctrl_seed)))
        sim = spec.make(ctrl_seed)
        t0 = clock()
        m, _ = p.meta.run_episode(sim, timer, spec.intervals, spec.interval_s)
        wall = clock() - t0
        _check(_finite(m.avg_travel_time_s, m.avg_queue_length),
               f"{spec.name}/{method}: metrics are not finite")
        _check(0 <= sim.exited <= sim.entered <= len(sim.vehicles),
               f"{spec.name}/{method}: vehicle counts are inconsistent")
        return m, sim.digest(), timer.samples, wall

    def round(self, r: int, tracer=None) -> RoundResult:
        episodes = self.episodes(r)
        rows, digests, decide, walls = [], [], [], []
        for _, spec, method, cseed in episodes:
            m, digest, samples, wall = self.episode(spec, method, cseed)
            rows.append((spec.name, method, m.avg_travel_time_s,
                         m.avg_queue_length))
            digests.append(digest)
            walls.append(wall)
            if method == SIM_DECIDE_METHOD:
                decide.extend(samples)
        ticks = sum(_episode_ticks(s) for _, s, _, _ in episodes)
        travel = float(np.mean([row[2] for row in rows]))
        return RoundResult(sum(walls), ticks, travel, decide,
                           _hash(rows, digests), ops=len(rows),
                           details={"rows": rows, "digests": digests})

    def recheck(self, r: int, first: RoundResult) -> bool:
        k = self.seed % (len(SIM_SCENARIOS) * len(SIM_METHODS))
        _, spec, method, cseed = self.episodes(r)[k]
        m, digest, _, _ = self.episode(spec, method, cseed)
        row = (spec.name, method, m.avg_travel_time_s, m.avg_queue_length)
        return (row == first.details["rows"][k]
                and digest == first.details["digests"][k])


class Control:
    name = "control"
    setups = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        p = self.p = Program()
        cfg = p.harness.default_experiment()
        target = self.target = cfg.target
        net = target.network
        lanes, grids = net.lanes_per_intersection, net.state_grids
        self.vc = p.runners.value_config_for(cfg, target)
        g0 = p.planner.default_dynamics_net(lanes, grids, cfg.dyn_hidden,
                                            seed=CONTROL_MODEL_SEED)
        self.estimator, self.dynamics = p.meta.adapt(
            g0.params, p.scenario.EnvFactory(target),
            p.meta.AdaptConfig(lr=cfg.adapt.lr, target_episode_budget=1,
                               epochs_per_episode=CONTROL_SETUP_EPOCHS),
            target.schema, CONTROL_MODEL_SEED,
            dyn_hidden=cfg.dyn_hidden, estimator_hidden=cfg.estimator_hidden,
            value_cfg=self.vc,
            dist_cfg=p.runners.dist_config_for(cfg, target))
        digest = _hash(self.estimator.net.params.tobytes(),
                       self.dynamics.net.params.tobytes())
        _check(getattr(self, "model_digest", digest) == digest,
               "control set-up built different models on a repeat")
        self.model_digest = digest

    def round(self, r: int, tracer=None) -> RoundResult:
        p = self.p
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, r]))
        spec = jitter_flows(self.target, rng)
        timer = DecisionTimer(p.planner.PlannerController(
            self.estimator, self.dynamics, p.planner.PolicyConfig(epsilon=0.0),
            self.vc, np.random.default_rng(0)))
        sim = spec.make(r)
        t0 = clock()
        m, _ = p.meta.run_episode(sim, timer, spec.intervals, spec.interval_s)
        wall = clock() - t0
        _check(_finite(m.avg_travel_time_s, m.avg_queue_length),
               "control metrics are not finite")
        return RoundResult(
            wall, _episode_ticks(spec), m.avg_travel_time_s, timer.samples,
            _hash(self.model_digest, m, sim.digest()), ops=1,
            details={"avg_queue_length": m.avg_queue_length})

    def recheck(self, r: int, first: RoundResult) -> bool:
        return self.round(r).fingerprint == first.fingerprint


WORKLOADS = {w.name: w for w in (Pipeline, Simulate, Control)}
