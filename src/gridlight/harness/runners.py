"""Experiment runners: the main method comparison, the budget table (every
pipeline method after each target episode of the budget), the model
complexity sweep, single-source transfer matrix, and offline estimator
training.

Every runner is reproducible from (config, seeds): all randomness descends
from the per-seed SeedSequence, and CSV outputs carry no timestamps. Wall
times (``timed``) go to ``report.json`` only.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .. import nn
from ..baselines import (
    EpsilonMixController,
    FixedTimeController,
    MaxPressureController,
    RandomController,
    SotlController,
)
from ..errors import ConfigurationError
from ..meta import (
    TaskDataset,
    _ObservationStates,
    _dynamics_xy,
    _forked,
    _mean_distance,
    adapt,
    collect_experience,
    dynamics_error,
    maml_train,
    offline_train_repr,
    run_episode,
    seq_pretrain,
    spend_budget,
    training_loss,
)
from ..planner import (
    DistanceConfig,
    DynamicsModel,
    PlannerController,
    PolicyConfig,
    StateEstimator,
    ValueConfig,
    block_distance_loss,
    default_dynamics_net,
    default_estimator_net,
)
from ..scenario import EnvFactory, ScenarioSpec
from ..sim.engine import MetricsReport
from ..sim.network import PHASE_IDS, SCHEMA_DIMS
from .config import BASELINE_METHODS, PIPELINE_METHODS, ExperimentConfig
from . import io


@dataclass
class RunReport:
    """Per-seed metric rows plus their mean and sample standard deviation."""

    method: str
    rows: list[dict]
    mean_travel: float
    std_travel: float
    mean_queue: float
    std_queue: float
    config_digest: str
    wall_clock_s: float
    extras: dict

    @classmethod
    def from_rows(cls, method: str, rows: list[dict], digest: str,
                  extras: dict | None = None) -> "RunReport":
        travel = np.array([r["avg_travel_time"] for r in rows], dtype=float)
        queue = np.array([r["avg_queue_length"] for r in rows], dtype=float)
        std = (float(np.std(travel, ddof=1)), float(np.std(queue, ddof=1))) \
            if len(rows) > 1 else (0.0, 0.0)
        return cls(method, rows, float(travel.mean()), std[0],
                   float(queue.mean()), std[1], digest, 0.0, extras or {})


def value_config_for(cfg: ExperimentConfig, scenario: ScenarioSpec,
                     estimator=None) -> ValueConfig:
    net = scenario.network
    # the monolithic arm's net reads observations, so it cannot roll forward
    horizon = 0 if isinstance(estimator, _ObservationStates) else cfg.horizon
    return ValueConfig(horizon, cfg.step_discount, cfg.block_discount,
                       net.state_grids, net.pass_capacity)


def dist_config_for(cfg: ExperimentConfig, scenario: ScenarioSpec) -> DistanceConfig:
    net = scenario.network
    return DistanceConfig(cfg.dist_discount, net.state_grids,
                          net.pass_capacity)


def baseline_controller(method: str, rng: np.random.Generator):
    makers = {"fixed_time": FixedTimeController, "sotl": SotlController,
              "max_pressure": MaxPressureController,
              "random": lambda: RandomController(rng)}
    if method not in makers:
        raise ConfigurationError(f"{method!r} is not a baseline method")
    return makers[method]()


def evaluate_controller(scenario: ScenarioSpec, controller,
                        seed: int) -> MetricsReport:
    sim = scenario.make(seed)
    metrics, _ = run_episode(sim, controller, scenario.intervals,
                             scenario.interval_s)
    return metrics


def metrics_row(scenario: ScenarioSpec, seed: int, method: str,
                metrics: MetricsReport) -> dict:
    return {
        "scenario": scenario.name,
        "seed": seed,
        "method": method,
        "avg_travel_time": metrics.avg_travel_time_s,
        "avg_queue_length": metrics.avg_queue_length,
    }


@contextlib.contextmanager
def timed(timings: dict, phase: str):
    """Add the wall seconds the block takes (``time.perf_counter``) to
    ``timings[phase]``, also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0


# -- the modular pipeline ------------------------------------------------------


def collect_source_datasets(cfg: ExperimentConfig,
                            seed_seq) -> list[TaskDataset]:
    """Source-city experience under max-pressure control with epsilon-random
    phases mixed in for coverage, one dataset per ``cfg.sources`` entry.

    Each source draws from its own child of ``seed_seq``, so a forked child
    collects the later half of the sources while this process collects
    the first half (with one source, this process collects it)."""
    jobs = list(zip(cfg.sources, seed_seq.spawn(len(cfg.sources))))

    def collect(jobs) -> list[TaskDataset]:
        datasets = []
        for src, seq in jobs:
            child = np.random.default_rng(seq)
            behavior = EpsilonMixController(
                MaxPressureController(), cfg.behavior_epsilon,
                np.random.default_rng(child.integers(2 ** 31 - 1)))
            datasets.append(collect_experience(
                lambda s, src=src: src.make(s), behavior, cfg.collect_episodes,
                np.random.default_rng(child.integers(2 ** 31 - 1)),
                city_id=src.name, intervals=src.intervals,
                interval_s=src.interval_s))
        return datasets

    cut = (len(jobs) + 1) // 2
    if cut == len(jobs):
        return collect(jobs)
    wait = _forked(lambda: collect(jobs[cut:]))
    try:
        first = collect(jobs[:cut])
    finally:
        later = wait()
    return first + later


def _draw_seed(seq: np.random.SeedSequence) -> int:
    return int(np.random.default_rng(seq).integers(2 ** 31 - 1))


def stage_seeds(seed: int) -> dict:
    """Seed material of each modular pipeline stage for one run seed: the
    collection SeedSequence, and integer seeds for the dynamics-net
    initialization, meta-training and adaptation."""
    collect_seq, net_seq, train_seq, adapt_seq = \
        np.random.SeedSequence([seed, 17]).spawn(4)
    return {"collect": collect_seq, "net": _draw_seed(net_seq),
            "train": _draw_seed(train_seq), "adapt": _draw_seed(adapt_seq)}


def meta_train_stage(cfg: ExperimentConfig, seed: int,
                     datasets: list[TaskDataset]):
    """Aggregate the source datasets into an initialization of the
    target-shaped dynamics model, by ``seq_pretrain`` for a ``seq_pretrain``
    config and ``maml_train`` otherwise; returns that model."""
    seeds = stage_seeds(seed)
    lanes = cfg.target.network.lanes_per_intersection
    n_grids = cfg.target.network.state_grids
    g0 = DynamicsModel(default_dynamics_net(lanes, n_grids, cfg.dyn_hidden,
                                            seed=seeds["net"]),
                       lanes, n_grids)
    train = seq_pretrain if cfg.method == "seq_pretrain" else maml_train
    phi = train(datasets, cfg.maml, g0, dist_config_for(cfg, cfg.target),
                seeds["train"])
    return DynamicsModel(g0.net.with_params(phi), lanes, n_grids)


def adapt_stage(cfg: ExperimentConfig, seed: int, init: DynamicsModel,
                scored=None):
    """Adapt ``init`` to the target city within the episode budget, passing
    ``scored`` to ``meta.adapt``; returns (estimator, dynamics, target
    interactions consumed)."""
    factory = EnvFactory(cfg.target)
    estimator, dynamics = adapt(
        init.net.params, factory, cfg.adapt, cfg.target.schema, stage_seeds(seed)["adapt"],
        dyn_hidden=cfg.dyn_hidden, estimator_hidden=cfg.estimator_hidden,
        value_cfg=value_config_for(cfg, cfg.target),
        dist_cfg=dist_config_for(cfg, cfg.target), scored=scored)
    return estimator, dynamics, factory.interactions


def evaluate_planner(cfg: ExperimentConfig, estimator: StateEstimator,
                     dynamics: DynamicsModel, seed: int):
    """One greedy planner episode on the target, charged to no budget: its
    metrics, and extras with its decisions per phase id (``phase_counts``)."""
    vc = value_config_for(cfg, cfg.target, estimator)
    controller = PlannerController(estimator, dynamics,
                                   PolicyConfig(epsilon=0.0), vc,
                                   np.random.default_rng(0))
    metrics = evaluate_controller(cfg.target, controller, seed)
    return metrics, {"phase_counts": {
        str(p): n for p, n in controller.phase_counts.items()}}


HELDOUT_KEYS = ("heldout_dist_adapted", "heldout_dist_meta_init",
                "heldout_dist_estimator", "heldout_dist_persistence")


def heldout_episode(target: ScenarioSpec) -> TaskDataset:
    """One recorded fixed-time episode of the target, charged to no budget.
    The simulator draws nothing from its seed, so it serves every seed."""
    return collect_experience(
        lambda s: target.make(s), FixedTimeController(), episodes=1,
        rng=np.random.default_rng(20_000), city_id="heldout",
        intervals=target.intervals, interval_s=target.interval_s)


def heldout_references(cfg: ExperimentConfig, held: TaskDataset,
                       meta_init: DynamicsModel) -> dict:
    """The ``HELDOUT_KEYS`` distances on ``held`` that adaptation does not
    change: ``meta_init``'s dynamics error and persistence's (s' = s)."""
    dist_cfg = dist_config_for(cfg, cfg.target)
    return {"heldout_dist_meta_init": dynamics_error(meta_init, held, dist_cfg),
            "heldout_dist_persistence": _mean_distance(
                held.state, held.state_next, dist_cfg)}


def planner_score(cfg: ExperimentConfig, seed: int, held: TaskDataset,
                  references: dict, estimator: StateEstimator,
                  dynamics: DynamicsModel):
    """``evaluate_planner`` with the ``HELDOUT_KEYS`` distances on ``held``
    in its extras: the adapted model's and the estimator's, and the
    ``heldout_references``."""
    dist_cfg = dist_config_for(cfg, cfg.target)
    metrics, extras = evaluate_planner(cfg, estimator, dynamics, seed)
    return metrics, {
        **extras, **references,
        "heldout_dist_adapted": dynamics_error(dynamics, held, dist_cfg),
        "heldout_dist_estimator": training_loss(estimator, held, dist_cfg)}


def modular_pipeline(cfg: ExperimentConfig, seed: int):
    """Collect -> meta-train -> adapt -> score, for one seed: the
    full-budget case of ``run_budget_table``'s ``modular`` method. Returns
    (metrics, artifacts): the models, the interaction count,
    ``planner_score``'s extras, and each phase's wall seconds (``timings``:
    ``collect_s``, ``meta_train_s``, ``adapt_s``, ``heldout_s`` for the
    held-out episode, and ``evaluate_s`` for ``planner_score``)."""
    timings: dict = {}
    with timed(timings, "collect_s"):
        datasets = collect_source_datasets(cfg, stage_seeds(seed)["collect"])
    with timed(timings, "meta_train_s"):
        meta_init = meta_train_stage(cfg, seed, datasets)
    # meta-training, over the datasets, is the seed's peak of memory; freed
    # here, they do not add to adaptation's records, which need only meta_init
    del datasets
    with timed(timings, "adapt_s"):
        estimator, dynamics, interactions = adapt_stage(cfg, seed, meta_init)
    with timed(timings, "heldout_s"):
        held = heldout_episode(cfg.target)
    with timed(timings, "evaluate_s"):
        metrics, extras = planner_score(
            cfg, seed, held, heldout_references(cfg, held, meta_init),
            estimator, dynamics)
    return metrics, {"interactions": interactions, **extras,
                     "estimator": estimator, "dynamics": dynamics,
                     "phi": meta_init.net.params, "meta_init": meta_init,
                     "timings": timings}


# -- the non-modular ablation ---------------------------------------------------


def _carry_trailing_layers(src: nn.Net, dst: nn.Net) -> nn.Net:
    """Copy every layer after the first from src into dst; the first layer
    keeps dst's fresh initialization (input widths differ per city). Both
    nets have the same hidden and output sizes, so the rest aligns."""
    params = dst.params.copy()
    src_off = (src.layer_sizes[0] + 1) * src.layer_sizes[1]
    dst_off = (dst.layer_sizes[0] + 1) * dst.layer_sizes[1]
    params[dst_off:] = src.params[src_off:]
    return dst.with_params(params)


def monolithic_adapt(cfg: ExperimentConfig, seed: int,
                     datasets: list[TaskDataset], scored=None):
    """Train one observation-to-next-state net per source dataset in
    sequence, carrying the trailing layers across cities and into the
    target, then fine-tune it by ``meta.spend_budget``, planning at horizon
    0 (see ``value_config_for``). ``scored`` is as in
    ``meta.adapt``; returns (estimator, dynamics, interactions)."""
    target = cfg.target
    # skip the first child, so the other three keep their spawn keys
    _, net_seq, train_seq, adapt_seq = \
        np.random.SeedSequence([seed, 29]).spawn(4)
    lanes = target.network.lanes_per_intersection
    n_grids = target.network.state_grids
    net_rng = np.random.default_rng(net_seq)
    train_rng = np.random.default_rng(train_seq)
    dist_cfg = dist_config_for(cfg, target)
    loss_fn = block_distance_loss(dist_cfg, lanes)

    def fresh_net(schema_id: str, prev: nn.Net | None) -> nn.Net:
        d_o = SCHEMA_DIMS[schema_id]
        sizes = (lanes * d_o + len(PHASE_IDS), *cfg.dyn_hidden, lanes * n_grids)
        net = nn.net_new(sizes, "softplus",
                         seed=int(net_rng.integers(2 ** 31 - 1)))
        return net if prev is None else _carry_trailing_layers(prev, net)

    net = None
    for ds in datasets:
        net = nn.fit(fresh_net(ds.schema_id, net), loss_fn,
                     *_dynamics_xy(ds, ds.obs, lanes, n_grids),
                     nn.Adam(lr=cfg.maml.outer_lr),
                     nn.sampled_batches(train_rng, len(ds), cfg.maml.batch_size,
                                        cfg.maml.meta_iterations))
    est = _ObservationStates()
    dyn = DynamicsModel(fresh_net(target.schema, net), lanes, n_grids)
    adapt_rng = np.random.default_rng(adapt_seq)
    factory = EnvFactory(target)
    spend_budget(factory, cfg.adapt, est, dyn,
                 value_cfg=value_config_for(cfg, target, est),
                 dist_cfg=dist_cfg, rng=adapt_rng, train_rng=adapt_rng,
                 scored=scored)
    return est, dyn, factory.interactions


def monolithic_pipeline(cfg: ExperimentConfig, seed: int):
    """``monolithic_adapt`` on the sources ``modular_pipeline`` collects,
    then ``evaluate_planner``: ``run_budget_table``'s full-budget case."""
    est, dyn, interactions = monolithic_adapt(
        cfg, seed, collect_source_datasets(cfg, stage_seeds(seed)["collect"]))
    metrics, extras = evaluate_planner(cfg, est, dyn, seed)
    return metrics, {"interactions": interactions, "net": dyn.net, **extras}


# -- runners -------------------------------------------------------------------


def seed_rows(cfg: ExperimentConfig) -> tuple[list[dict], dict]:
    """Run ``cfg.method`` once per seed on ``cfg.target``: one metrics row
    per seed, and the pipeline methods' per-seed extras keyed by seed."""
    rows = []
    per_seed = {}
    for seed in cfg.seeds:
        if cfg.method in BASELINE_METHODS:
            ctrl = baseline_controller(
                cfg.method, np.random.default_rng([seed, 3]))
            metrics = evaluate_controller(cfg.target, ctrl, seed)
        else:
            metrics, art = (monolithic_pipeline if cfg.method == "monolithic"
                            else modular_pipeline)(cfg, seed)
            per_seed[str(seed)] = {k: v for k, v in art.items() if k in (
                "interactions", "timings", "phase_counts", *HELDOUT_KEYS)}
        rows.append(metrics_row(cfg.target, seed, cfg.method, metrics))
    return rows, per_seed


def write_outputs(cfg: ExperimentConfig, name: str, t0: float,
                  tables: dict, report: dict) -> float:
    """Write each of ``tables`` (file name -> (columns, rows)) as a CSV,
    ``report`` with ``wall_clock_s`` (seconds since ``t0``) as
    ``report.json``, and ``manifest.json``, all under ``<out_dir>/<name>/``.
    Returns the wall seconds."""
    wall = time.perf_counter() - t0
    base = f"{cfg.out_dir}/{name}"
    for file, (columns, rows) in tables.items():
        io.write_csv(f"{base}/{file}", columns, rows)
    io.write_json(f"{base}/report.json", {**report, "wall_clock_s": wall})
    io.write_manifest(f"{base}/manifest.json", cfg.to_json(), cfg.seeds)
    return wall


def run_main(cfg: ExperimentConfig) -> RunReport:
    """The core comparison: run the configured method once per seed on the
    target scenario and aggregate metrics."""
    t0 = time.perf_counter()
    rows, per_seed = seed_rows(cfg)
    report = RunReport.from_rows(cfg.method, rows,
                                 io.config_digest(cfg.to_json()),
                                 {"per_seed": per_seed})
    report.wall_clock_s = write_outputs(
        cfg, f"main-{cfg.method}", t0,
        {"metrics.csv": (io.METRICS_COLUMNS, rows)}, asdict(report))
    return report


BUDGET_METHODS = ("modular", "seq_pretrain", "no_sources", "monolithic")


def run_budget_table(cfg: ExperimentConfig) -> dict:
    """One ``budget/metrics.csv`` row per (method of ``BUDGET_METHODS``,
    budget b = 1..B, seed). Per seed, every method trains on one source
    collection and adapts once, scored after each episode: a budget of b
    spends, bit for bit, the first b episodes of B. ``no_sources`` is
    ``modular`` with ``maml.meta_iterations=0``. Flags in ``report.json``
    are informational: three desk seeds cannot certify them."""
    if cfg.method not in PIPELINE_METHODS:
        raise ConfigurationError(
            f"run_budget_table requires a pipeline method, got {cfg.method!r}")
    # every method's config is built, and so checked, before any runs
    variants = dict(zip(BUDGET_METHODS, (
        replace(cfg, method="modular"), replace(cfg, method="seq_pretrain"),
        replace(cfg, method="modular",
                maml=replace(cfg.maml, meta_iterations=0)),
        replace(cfg, method="monolithic"))))
    t0 = time.perf_counter()
    held = heldout_episode(cfg.target)
    rows, per_seed = [], {name: {} for name in variants}
    for seed in cfg.seeds:
        datasets = collect_source_datasets(cfg, stage_seeds(seed)["collect"])
        for name, sub in variants.items():
            budgets = {}

            def add(spent, metrics, extras):
                rows.append({**metrics_row(cfg.target, seed, name, metrics),
                             "budget": spent, "heldout_dist_adapted":
                                 extras.get("heldout_dist_adapted", "")})
                budgets[str(spent)] = extras

            if name == "monolithic":
                *_, interactions = monolithic_adapt(
                    sub, seed, datasets, lambda spent, est, dyn: add(
                        spent, *evaluate_planner(sub, est, dyn, seed)))
            else:
                meta_init = meta_train_stage(sub, seed, datasets)
                references = heldout_references(sub, held, meta_init)
                *_, interactions = adapt_stage(
                    sub, seed, meta_init, scored=lambda spent, est, dyn: add(
                        spent, *planner_score(sub, seed, held, references,
                                              est, dyn)))
            per_seed[name][str(seed)] = {"interactions": interactions,
                                         "budgets": budgets}
    rows.sort(key=lambda r: (BUDGET_METHODS.index(r["method"]), r["budget"]))

    def beats(other, spent, key="avg_travel_time") -> bool:
        mean = [np.mean([r[key] for r in rows if (r["method"], r["budget"])
                         == (m, spent)]) for m in ("modular", other)]
        return bool(mean[0] <= mean[1])

    full = cfg.adapt.target_episode_budget
    report = {"per_seed": per_seed,
              "directional_expectations": {
                  "modular_beats_monolithic": beats("monolithic", full),
                  "maml_beats_sequential": beats("seq_pretrain", full)},
              "maml_beats_no_sources": {
                  str(b): beats("no_sources", b, "heldout_dist_adapted")
                  for b in range(1, full + 1)}}
    write_outputs(cfg, "budget", t0, {"metrics.csv": (
        ("scenario", "method", "budget", "seed", "avg_travel_time",
         "avg_queue_length", "heldout_dist_adapted"), rows)}, report)
    return {"rows": rows, **report}


SUMMARY_KEYS = ("mean_travel", "std_travel", "mean_queue", "std_queue")


def run_complexity_sweep(cfg: ExperimentConfig, width_scales=(0.5, 1.0),
                         depths=(2, 3)) -> list[dict]:
    """Repeat the main run across dynamics-net widths and depths, reporting
    parameter counts alongside the metrics."""
    if not width_scales or not depths:
        raise ConfigurationError("sweep grid must be nonempty")
    for ws in width_scales:
        if not 0.0 < ws < np.inf:
            raise ConfigurationError(
                f"widths must be finite and > 0, got {ws}")
    for depth in depths:
        if depth < 1:
            raise ConfigurationError(f"depths must be >= 1, got {depth}")
    t0 = time.perf_counter()
    results = []
    lanes = cfg.target.network.lanes_per_intersection
    n_grids = cfg.target.network.state_grids
    for ws in width_scales:
        for depth in depths:
            hidden = tuple(max(8, int(round(128 * ws))) for _ in range(depth))
            est_hidden = tuple(max(4, int(round(32 * ws)))
                               for _ in range(min(depth, 2)))
            sub = replace(cfg, dyn_hidden=hidden, estimator_hidden=est_hidden,
                          out_dir=f"{cfg.out_dir}/sweep-w{ws}-d{depth}")
            dyn_params = default_dynamics_net(lanes, n_grids,
                                              hidden).params.size
            est_params = default_estimator_net(cfg.target.schema, n_grids,
                                               est_hidden).params.size
            report = run_main(sub)
            results.append({
                "width_scale": ws, "depth": depth, "dyn_hidden": list(hidden),
                "param_count": dyn_params + est_params,
                "dyn_param_count": dyn_params,
                "estimator_param_count": est_params,
                **{k: getattr(report, k) for k in SUMMARY_KEYS}})
    write_outputs(cfg, "sweep", t0,
                  {"summary.csv": (("width_scale", "depth", "param_count",
                                    *SUMMARY_KEYS), results)},
                  {"grid": results})
    return results


def run_source_selection(cfg: ExperimentConfig) -> dict:
    """Every ordered (source, target) city pair: meta-train on the single
    source, adapt to the target, and tabulate against the baselines."""
    pool = list(cfg.sources) + [cfg.target]
    if len(pool) < 2:
        raise ConfigurationError("source selection needs >= 2 scenarios")
    names = [s.name for s in pool]
    if len(set(names)) < len(names):
        raise ConfigurationError(
            f"source selection keys cells by scenario name; {names} repeat")
    t0 = time.perf_counter()
    # every pair's config is built, and so checked, before any pair runs
    pairs = [(src.name, dst.name,
              replace(cfg, sources=(src,), target=dst, method="modular",
                      maml=replace(cfg.maml, task_batch_size=1)))
             for src in pool for dst in pool if src.name != dst.name]
    cells: dict[tuple[str, str], dict] = {}
    rows = []
    for a, b, sub in pairs:
        pair_rows, _ = seed_rows(sub)
        rows += [{"source": a, "target": b, **r} for r in pair_rows]
        pair = RunReport.from_rows(sub.method, pair_rows, "")
        cells[(a, b)] = {"mean_travel": pair.mean_travel,
                         "std_travel": pair.std_travel,
                         "mean_queue": pair.mean_queue}
    baseline_rows: dict[str, dict] = {}
    for method in ("fixed_time", "max_pressure"):
        for dst in pool:
            (row,), _ = seed_rows(replace(cfg, sources=(), target=dst,
                                          method=method,
                                          seeds=cfg.seeds[:1]))
            baseline_rows.setdefault(method, {})[dst.name] = {
                "mean_travel": row["avg_travel_time"],
                "mean_queue": row["avg_queue_length"]}
    matrix_rows = [{"source": a, **{  # "/" on the diagonal
        b: "/" if a == b else f"{cells[(a, b)]['mean_travel']:.2f}"
        for b in names}} for a in names]
    write_outputs(cfg, "source-matrix", t0,
                  {"cells.csv": (("source", "target", "seed",
                                  "avg_travel_time", "avg_queue_length"), rows),
                   "matrix.csv": (("source", *names), matrix_rows)},
                  {"cells": {f"{a}->{b}": v for (a, b), v in cells.items()},
                   "baselines": baseline_rows})
    return {"cells": cells, "baselines": baseline_rows, "matrix": matrix_rows}


def run_offline_case(cfg: ExperimentConfig) -> dict:
    """Train the estimator on one episode of fixed-time logs only, pair it
    with the online-adapted dynamics model, and compare three ways: online
    planner, offline-estimator planner, and fixed-time control. The online
    planner is the ``modular`` pipeline's, whatever ``cfg.method``."""
    cfg = replace(cfg, method="modular")
    t0 = time.perf_counter()
    target = cfg.target
    rows = []
    per_seed = {}
    for seed in cfg.seeds:
        metrics_online, art = modular_pipeline(cfg, seed)
        interactions_before = art["interactions"]

        factory = EnvFactory(target, interactions=interactions_before)
        log_rng = np.random.default_rng([seed, 77])
        logged = collect_experience(
            lambda s: factory.make(s, count=False), FixedTimeController(),
            episodes=1, rng=log_rng, city_id=target.name,
            intervals=target.intervals, interval_s=target.interval_s)
        est_off = offline_train_repr(
            logged, target.schema, epochs=cfg.adapt.epochs_per_episode * 2,
            lr=cfg.adapt.lr, hidden=cfg.estimator_hidden,
            batch_size=cfg.adapt.batch_size,
            dist_cfg=dist_config_for(cfg, target), seed=seed)

        metrics_off, off = evaluate_planner(cfg, est_off, art["dynamics"],
                                            seed)
        metrics_fixed = evaluate_controller(
            target, FixedTimeController(), seed)

        if factory.interactions != interactions_before:
            raise RuntimeError(
                "offline training consumed environment interactions")
        per_seed[str(seed)] = {"interactions": factory.interactions,
                               **{k: art[k] for k in HELDOUT_KEYS},
                               "phase_counts": art["phase_counts"],
                               "phase_counts_offline": off["phase_counts"]}
        for method, m in (("modular", metrics_online),
                          ("modular_offline", metrics_off),
                          ("fixed_time", metrics_fixed)):
            rows.append(metrics_row(target, seed, method, m))
    by_method = {m: float(np.mean([r["avg_travel_time"] for r in rows
                                   if r["method"] == m]))
                 for m in ("modular", "modular_offline", "fixed_time")}
    write_outputs(cfg, "offline", t0,
                  {"metrics.csv": (io.METRICS_COLUMNS, rows)},
                  {"mean_travel_by_method": by_method, "per_seed": per_seed})
    return {"rows": rows, "mean_travel_by_method": by_method,
            "per_seed": per_seed}
