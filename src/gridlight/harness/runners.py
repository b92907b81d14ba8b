"""Experiment runners: the main method comparison, ablations, the model
complexity sweep, single-source transfer matrix, offline estimator training,
and the data-volume curve.

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
    _forked,
    adapt,
    collect_experience,
    dynamics_error,
    maml_train,
    offline_train_repr,
    run_episode,
    seq_pretrain,
    spend_budget,
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
    phase_encode,
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

    def to_json(self) -> dict:
        return asdict(self)


def value_config_for(cfg: ExperimentConfig, scenario: ScenarioSpec) -> ValueConfig:
    net = scenario.network
    return ValueConfig(cfg.horizon, cfg.step_discount, cfg.block_discount,
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
                     datasets: list[TaskDataset], *, aggregator: str = "maml"):
    """Aggregate the source datasets into an initialization of the
    target-shaped dynamics model; returns (g0, phi)."""
    if aggregator not in ("maml", "seq"):
        raise ConfigurationError(f"unknown aggregator {aggregator!r}")
    seeds = stage_seeds(seed)
    lanes = cfg.target.network.lanes_per_intersection
    n_grids = cfg.target.network.state_grids
    g0 = DynamicsModel(default_dynamics_net(lanes, n_grids, cfg.dyn_hidden,
                                            seed=seeds["net"]),
                       lanes, n_grids)
    train = maml_train if aggregator == "maml" else seq_pretrain
    phi = train(datasets, cfg.maml, g0, dist_config_for(cfg, cfg.target),
                seeds["train"])
    return g0, phi


def adapt_stage(cfg: ExperimentConfig, seed: int, phi: np.ndarray):
    """Adapt ``phi`` to the target city within the episode budget; returns
    (estimator, dynamics, target interactions consumed)."""
    factory = EnvFactory(cfg.target)
    estimator, dynamics = adapt(
        phi, factory, cfg.adapt, cfg.target.schema, stage_seeds(seed)["adapt"],
        dyn_hidden=cfg.dyn_hidden, estimator_hidden=cfg.estimator_hidden,
        value_cfg=value_config_for(cfg, cfg.target),
        dist_cfg=dist_config_for(cfg, cfg.target))
    return estimator, dynamics, factory.interactions


def evaluate_planner(cfg: ExperimentConfig, estimator: StateEstimator,
                     dynamics: DynamicsModel, seed: int) -> MetricsReport:
    """One greedy planner episode on the target, not charged to the budget."""
    controller = PlannerController(estimator, dynamics,
                                   PolicyConfig(epsilon=0.0),
                                   value_config_for(cfg, cfg.target),
                                   np.random.default_rng(0))
    return evaluate_controller(cfg.target, controller, seed)


def modular_pipeline(cfg: ExperimentConfig, seed: int, *,
                     aggregator: str = "maml"):
    """Collect -> meta-train -> adapt -> evaluate greedily, for one seed.

    Returns (metrics, artifacts). Artifacts include the adapted models, the
    meta-trained initialization, the exact interaction count, held-out
    dynamics errors for the adapted and un-fine-tuned models, and the wall
    seconds of each phase (``timings``: ``collect_s``, ``meta_train_s``,
    ``adapt_s``, ``evaluate_s`` and ``heldout_s``).

    A forked child runs the held-out episode and both dynamics errors while
    this process runs the greedy evaluation, so ``heldout_s`` is the wait
    for that child after the evaluation.
    """
    target = cfg.target
    timings: dict = {}
    with timed(timings, "collect_s"):
        datasets = collect_source_datasets(cfg, stage_seeds(seed)["collect"])
    with timed(timings, "meta_train_s"):
        g0, phi = meta_train_stage(cfg, seed, datasets, aggregator=aggregator)
    del datasets  # adaptation, the peak of memory, needs only phi
    with timed(timings, "adapt_s"):
        estimator, dynamics, interactions = adapt_stage(cfg, seed, phi)

    def heldout_errors() -> tuple[float, float]:
        held = collect_experience(
            lambda s: target.make(s), FixedTimeController(),
            episodes=1, rng=np.random.default_rng(20_000 + seed),
            city_id="heldout", intervals=target.intervals,
            interval_s=target.interval_s)
        dist_cfg = dist_config_for(cfg, target)
        return (dynamics_error(dynamics, held, dist_cfg),
                dynamics_error(DynamicsModel(g0.net.with_params(phi), g0.lanes,
                                             g0.state_grids), held, dist_cfg))

    wait = _forked(heldout_errors)
    try:
        with timed(timings, "evaluate_s"):
            metrics = evaluate_planner(cfg, estimator, dynamics, seed)
    finally:
        with timed(timings, "heldout_s"):
            err_adapted, err_meta = wait()

    artifacts = {
        "interactions": interactions,
        "heldout_dist_adapted": err_adapted,
        "heldout_dist_meta_init": err_meta,
        "estimator": estimator,
        "dynamics": dynamics,
        "phi": phi,
        "g0": g0,
        "timings": timings,
    }
    return metrics, artifacts


# -- the non-modular ablation ---------------------------------------------------


class _ObservationStates:
    """The monolithic estimator: each observation stands in for its state."""

    def estimate(self, observations) -> np.ndarray:
        return np.stack([obs.values for obs in observations])


def _monolithic_xy(ds: TaskDataset) -> tuple[np.ndarray, np.ndarray]:
    """Observation-and-phase inputs and next-state targets."""
    m = len(ds)
    return (phase_encode(ds.obs.reshape(m, -1), ds.action),
            ds.state_next.reshape(m, -1))


def _carry_trailing_layers(src: nn.Net, dst: nn.Net) -> nn.Net:
    """Copy every layer after the first from src into dst; the first layer
    keeps dst's fresh initialization (input widths differ per city)."""
    params = dst.params.copy()
    src_off = (src.layer_sizes[0] + 1) * src.layer_sizes[1]
    dst_off = (dst.layer_sizes[0] + 1) * dst.layer_sizes[1]
    if src.params.size - src_off != params.size - dst_off:
        raise ConfigurationError(
            "trailing layers of source and destination nets do not align")
    params[dst_off:] = src.params[src_off:]
    return dst.with_params(params)


def monolithic_pipeline(cfg: ExperimentConfig, seed: int):
    """Train one observation-to-next-state net per source city in sequence,
    carrying the trailing layers across cities and into the target, then
    fine-tune within the same episode budget, planning at horizon 0."""
    target = cfg.target
    ss = np.random.SeedSequence([seed, 29])
    collect_seq, net_seq, train_seq, adapt_seq = ss.spawn(4)
    datasets = collect_source_datasets(cfg, collect_seq)

    lanes = target.network.lanes_per_intersection
    n_grids = target.network.state_grids
    net_rng = np.random.default_rng(net_seq)
    train_rng = np.random.default_rng(train_seq)
    loss_fn = block_distance_loss(dist_config_for(cfg, target), lanes)

    def fresh_net(schema_id: str, prev: nn.Net | None) -> nn.Net:
        d_o = SCHEMA_DIMS[schema_id]
        sizes = (lanes * d_o + len(PHASE_IDS), *cfg.dyn_hidden, lanes * n_grids)
        net = nn.net_new(sizes, "softplus",
                         seed=int(net_rng.integers(2 ** 31 - 1)))
        return net if prev is None else _carry_trailing_layers(prev, net)

    net = None
    for ds in datasets:
        net = nn.fit(fresh_net(ds.schema_id, net), loss_fn, *_monolithic_xy(ds),
                     nn.Adam(lr=cfg.maml.outer_lr),
                     nn.sampled_batches(train_rng, len(ds), cfg.maml.batch_size,
                                        cfg.maml.meta_iterations))
    dyn = DynamicsModel(fresh_net(target.schema, net), lanes, n_grids)
    vc = replace(value_config_for(cfg, target), horizon=0)
    adapt_rng = np.random.default_rng(adapt_seq)
    opt = nn.Adam(lr=cfg.adapt.lr)

    def controller(epsilon, rng):
        return PlannerController(_ObservationStates(), dyn,
                                 PolicyConfig(epsilon=epsilon), vc, rng)

    def train(ds: TaskDataset) -> None:
        dyn.net = nn.fit(dyn.net, loss_fn, *_monolithic_xy(ds), opt,
                         nn.epoch_batches(adapt_rng, len(ds),
                                          cfg.adapt.batch_size,
                                          cfg.adapt.epochs_per_episode))

    factory = EnvFactory(target)
    spend_budget(factory, cfg.adapt, controller, train, adapt_rng)
    metrics = evaluate_controller(
        target, controller(0.0, np.random.default_rng(0)), seed)
    return metrics, {"interactions": factory.interactions, "net": dyn.net}


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
        elif cfg.method == "monolithic":
            metrics, art = monolithic_pipeline(cfg, seed)
            per_seed[str(seed)] = {"interactions": art["interactions"]}
        elif cfg.method in PIPELINE_METHODS:
            modular = cfg.method == "modular"
            metrics, art = modular_pipeline(
                cfg, seed, aggregator="maml" if modular else "seq")
            keys = ("interactions", "timings") + (
                ("heldout_dist_adapted", "heldout_dist_meta_init")
                if modular else ())
            per_seed[str(seed)] = {k: art[k] for k in keys}
        else:
            raise ConfigurationError(f"unknown method {cfg.method!r}")
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
    cfg.validate()
    t0 = time.perf_counter()
    rows, per_seed = seed_rows(cfg)
    report = RunReport.from_rows(cfg.method, rows,
                                 io.config_digest(cfg.to_json()),
                                 {"per_seed": per_seed})
    report.wall_clock_s = write_outputs(
        cfg, f"main-{cfg.method}", t0,
        {"metrics.csv": (io.METRICS_COLUMNS, rows)}, report.to_json())
    return report


def run_ablation(cfg: ExperimentConfig) -> dict[str, RunReport]:
    """Modular vs monolithic vs sequential pretraining, paired per seed.

    Directional expectations (modular beats monolithic, meta-aggregation
    beats sequential) are recorded as informational flags, not hard
    failures: a three-seed desk run cannot certify them."""
    if cfg.method not in PIPELINE_METHODS:
        raise ConfigurationError(
            f"run_ablation requires a pipeline method, got {cfg.method!r}")
    cfg.validate()
    t0 = time.perf_counter()
    reports = {}
    for method in PIPELINE_METHODS:
        sub = cfg.with_method(method)
        rows, _ = seed_rows(sub)
        reports[method] = RunReport.from_rows(
            method, rows, io.config_digest(sub.to_json()))
    directional = {
        "modular_beats_monolithic":
            reports["modular"].mean_travel <= reports["monolithic"].mean_travel,
        "maml_beats_sequential":
            reports["modular"].mean_travel <= reports["seq_pretrain"].mean_travel,
    }
    all_rows = [row for r in reports.values() for row in r.rows]
    write_outputs(cfg, "ablation", t0,
                  {"metrics.csv": (io.METRICS_COLUMNS, all_rows)},
                  {"variants": {m: r.to_json() for m, r in reports.items()},
                   "directional_expectations": directional})
    return reports


SUMMARY_KEYS = ("mean_travel", "std_travel", "mean_queue", "std_queue")


def run_complexity_sweep(cfg: ExperimentConfig, width_scales=(0.5, 1.0),
                         depths=(2, 3)) -> list[dict]:
    """Repeat the main run across dynamics-net widths and depths, reporting
    parameter counts alongside the metrics."""
    if not width_scales or not depths:
        raise ConfigurationError("sweep grid must be nonempty")
    cfg.validate()
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
    cfg.validate()
    pool = list(cfg.sources) + [cfg.target]
    if len(pool) < 2:
        raise ConfigurationError("source selection needs >= 2 scenarios")
    t0 = time.perf_counter()
    cells: dict[tuple[str, str], dict] = {}
    rows = []
    for src in pool:
        for dst in pool:
            if src.name == dst.name:
                continue
            sub = replace(cfg, sources=(src,), target=dst, method="modular",
                          maml=replace(cfg.maml, task_batch_size=1))
            pair_rows, _ = seed_rows(sub)
            rows += [{"source": src.name, "target": dst.name, **r}
                     for r in pair_rows]
            pair = RunReport.from_rows(sub.method, pair_rows, "")
            cells[(src.name, dst.name)] = {"mean_travel": pair.mean_travel,
                                           "std_travel": pair.std_travel,
                                           "mean_queue": pair.mean_queue}
    baseline_rows: dict[str, dict] = {}
    for method in ("fixed_time", "max_pressure"):
        for dst in pool:
            (row,), _ = seed_rows(replace(cfg, target=dst, method=method,
                                          seeds=cfg.seeds[:1]))
            baseline_rows.setdefault(method, {})[dst.name] = {
                "mean_travel": row["avg_travel_time"],
                "mean_queue": row["avg_queue_length"]}
    names = [s.name for s in pool]
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
    planner, offline-estimator planner, and fixed-time control."""
    cfg.validate()
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

        metrics_off = evaluate_planner(cfg, est_off, art["dynamics"], seed)
        metrics_fixed = evaluate_controller(
            target, FixedTimeController(), seed)

        if factory.interactions != interactions_before:
            raise RuntimeError(
                "offline training consumed environment interactions")
        per_seed[str(seed)] = {"interactions": factory.interactions}
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


def run_data_volume_curve(cfg: ExperimentConfig,
                          fractions=(0.25, 0.5, 1.0)) -> list[dict]:
    """Adaptation quality versus interaction budget: run the pipeline at a
    ceiling-rounded fraction of the configured episode budget
    (``cfg.adapt.target_episode_budget``) and emit one CSV row per
    (fraction, seed). The fraction-1.0 rows are ``run_main``'s."""
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigurationError(f"fractions must be in (0, 1], got {f}")
    cfg.validate()
    t0 = time.perf_counter()
    rows = []
    for frac in fractions:
        budget = int(np.ceil(frac * cfg.adapt.target_episode_budget))
        sub = replace(cfg, method="modular", adapt=replace(
            cfg.adapt, target_episode_budget=budget))
        rows += [{"fraction": frac, "budget_episodes": budget,
                  "seed": r["seed"], "travel_time": r["avg_travel_time"],
                  "queue_length": r["avg_queue_length"]}
                 for r in seed_rows(sub)[0]]
    write_outputs(cfg, "curve", t0,
                  {"curve.csv": (("fraction", "budget_episodes", "seed",
                                  "travel_time", "queue_length"), rows)},
                  {"rows": rows})
    return rows
