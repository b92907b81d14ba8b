"""Harness tests: config validation, runner outputs, persistence round
trips, and byte-level reproducibility of CSV outputs."""

import hashlib
import json
import re
import time
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import FAILURES, SIMD_MATH, fail_in, no_child_left
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight import meta, nn
from gridlight.baselines import (
    EpsilonMixController,
    FixedTimeController,
    MaxPressureController,
)
from gridlight.errors import ConfigurationError
from gridlight.harness import io, runners
from gridlight.harness.config import (
    DESK_CITIES,
    METHODS,
    ExperimentConfig,
    default_experiment,
    desk_city_a,
    desk_city_b,
    desk_city_c,
)
from gridlight.harness.runners import (
    collect_source_datasets,
    dist_config_for,
    modular_pipeline,
    monolithic_adapt,
    monolithic_pipeline,
    run_budget_table,
    run_complexity_sweep,
    run_main,
    run_offline_case,
    run_source_selection,
    stage_seeds,
)
from gridlight.meta import (
    COLUMNS,
    AdaptConfig,
    MamlConfig,
    TaskDataset,
    _mean_distance,
    collect_experience,
    dynamics_error,
    training_loss,
)
from gridlight.planner import (
    DynamicsModel,
    StateEstimator,
    default_dynamics_net,
    default_estimator_net,
    phase_encode,
)
from gridlight.scenario import ScenarioSpec
from gridlight.sim import Flow, RoadNetwork, Sim
from gridlight.sim.network import (
    APPROACHES,
    HEADING_DELTA,
    HEADING_OF_APPROACH,
    MOVEMENTS,
    PHASE_IDS,
    SCHEMA_DIMS,
    TURN,
    origin_node,
    trace_route,
)


def tiny_config(tmp_path, method="modular", seeds=(0,), episode_s=300):
    """Desk cities shrunk to a few intervals so runners finish in seconds."""
    return ExperimentConfig(
        sources=(desk_city_a(episode_s), desk_city_b(episode_s)),
        target=desk_city_c(episode_s),
        method=method,
        maml=MamlConfig(inner_lr=2e-4, outer_lr=1e-3, meta_iterations=8,
                        task_batch_size=2, outer_optimizer="adam",
                        batch_size=64),
        adapt=AdaptConfig(lr=1e-3, target_episode_budget=2,
                          epochs_per_episode=2, batch_size=64),
        seeds=seeds,
        out_dir=str(tmp_path / "runs"),
        collect_episodes=2,
        dyn_hidden=(32,),
        estimator_hidden=(16,),
    )


def test_config_validation_schema_overlap(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigurationError):
        replace(cfg, target=replace(cfg.target, schema="SCHEMA_A"))


def test_config_validation_unknown_method(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigurationError):
        replace(cfg, method="dqn")
    with pytest.raises(ConfigurationError):
        replace(cfg, seeds=())


_outside_unit = st.one_of(st.floats(max_value=-1e-9),
                          st.floats(min_value=1.0, exclude_min=True),
                          st.just(float("nan")))

# each field ExperimentConfig checks: bad values, and a pattern of the
# message that names the field
_BAD_FIELDS = {
    "method": (st.text(max_size=8).filter(lambda m: m not in METHODS),
               "method"),
    "seeds": (st.one_of(st.just(()), st.lists(
        st.integers(-9, 9), min_size=1, max_size=3).filter(
            lambda s: min(s) < 0).map(tuple)), "seed"),
    "sources": (st.just(()), "source scenario"),
    "target": (st.sampled_from((desk_city_a, desk_city_b)).map(
        lambda make: make()), "target schema"),
    "collect_episodes": (st.integers(max_value=0), "collect_episodes"),
    "horizon": (st.integers(max_value=-1), "horizon"),
    **{name: (_outside_unit, name) for name in (
        "behavior_epsilon", "step_discount", "block_discount",
        "dist_discount")},
    **{name: (st.lists(st.integers(-3, 64), min_size=1, max_size=3).filter(
        lambda h: min(h) < 1).map(tuple), name)
       for name in ("dyn_hidden", "estimator_hidden")},
}


def _as_document(value):
    return value.to_json() if isinstance(value, ScenarioSpec) else (
        list(value) if isinstance(value, tuple) else value)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_checks_every_field_when_built(data):
    """A bad value is refused however the config is built: directly, by
    ``replace`` and from a document, each time naming its field."""
    field = data.draw(st.sampled_from(sorted(_BAD_FIELDS)))
    values, names = _BAD_FIELDS[field]
    value = data.draw(values)
    base = default_experiment()
    kwargs = {f.name: getattr(base, f.name) for f in fields(base)}
    doc = {**base.to_json(), field: _as_document(value)}
    for build in (lambda: ExperimentConfig(**{**kwargs, field: value}),
                  lambda: replace(base, **{field: value}),
                  lambda: ExperimentConfig.from_json(doc)):
        with pytest.raises(ConfigurationError, match=names):
            build()


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path)
    doc = cfg.to_json()
    back = ExperimentConfig.from_json(doc)
    assert back.to_json() == doc
    assert io.config_digest(doc) == io.config_digest(back.to_json())

    # omitted sections load as the built-in desk configuration's
    partial = {k: v for k, v in doc.items() if k not in ("maml", "adapt")}
    loaded = ExperimentConfig.from_json(partial)
    assert loaded.maml == default_experiment().maml
    assert loaded.adapt == default_experiment().adapt


def test_config_rejects_unknown_keys(tmp_path):
    doc = tiny_config(tmp_path).to_json()
    for bad in ({**doc, "collect_episode": 3},
                {**doc, "maml": {**doc["maml"], "meta_iteration": 0}},
                {**doc, "adapt": {**doc["adapt"], "budget": 1}}):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            ExperimentConfig.from_json(bad)


def test_config_casts_hidden_sizes(tmp_path):
    doc = tiny_config(tmp_path).to_json()
    as_text = ExperimentConfig.from_json(
        {**doc, "dyn_hidden": ["32"], "estimator_hidden": ["16", 8]})
    as_ints = ExperimentConfig.from_json(
        {**doc, "dyn_hidden": [32], "estimator_hidden": [16, 8]})
    assert as_text == as_ints
    assert as_text.dyn_hidden == (32,)
    assert (io.config_digest(as_text.to_json())
            == io.config_digest(as_ints.to_json()))
    for bad in (["x"], [0], [16, -4], "32", 32, [None]):
        with pytest.raises(ConfigurationError, match="dyn_hidden"):
            ExperimentConfig.from_json({**doc, "dyn_hidden": bad})


def test_config_scalars_refuse_values_of_another_type(tmp_path):
    doc = tiny_config(tmp_path).to_json()
    for flag in (False, True):
        cfg = ExperimentConfig.from_json(
            {**doc, "maml": {**doc["maml"], "first_order": flag}})
        assert cfg.maml.first_order is flag
    # a string "false" cast to bool would read as True
    for bad in ("false", "true", 0, 1, None):
        with pytest.raises(ConfigurationError, match="first_order"):
            ExperimentConfig.from_json(
                {**doc, "maml": {**doc["maml"], "first_order": bad}})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json({**doc, "collect_episodes": "many"})


def test_config_float_fields_refuse_booleans(tmp_path):
    doc = tiny_config(tmp_path).to_json()
    for bad, name in (({"adapt": {**doc["adapt"], "lr": True}}, "lr"),
                      ({"maml": {**doc["maml"], "inner_lr": False}},
                       "inner_lr"),
                      ({"step_discount": True}, "step_discount")):
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be a float"):
            ExperimentConfig.from_json({**doc, **bad})


def test_config_integer_fields_refuse_non_integers(tmp_path):
    doc = tiny_config(tmp_path).to_json()
    target = doc["target"]
    network, flow = target["network"], target["flows"][0]
    for bad in ({"collect_episodes": 2.7}, {"collect_episodes": True},
                {"maml": {**doc["maml"], "meta_iterations": 1.9}},
                {"seeds": [0.5, "1"]}, {"seeds": ["x"]},
                {"dyn_hidden": [16.5]},
                {"target": {**target, "episode_s": 300.5}},
                {"target": {**target, "network": {**network, "rows": "x"}}},
                {"target": {**target, "flows": [{**flow, "headway_s": 1.5}]}}):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            ExperimentConfig.from_json({**doc, **bad})
    # whole numbers read however they are written
    cfg = ExperimentConfig.from_json(
        {**doc, "collect_episodes": 3.0, "seeds": [1, "2"]})
    assert (cfg.collect_episodes, cfg.seeds) == (3, (1, 2))


def _numbers(doc):
    """(object or list, key) of each number in document ``doc``."""
    for key, value in (doc.items() if isinstance(doc, dict)
                       else enumerate(doc)):
        if isinstance(value, (dict, list)):
            yield from _numbers(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield doc, key


@pytest.mark.parametrize("spell", [str, float], ids=["string", "float"])
def test_numbers_read_however_they_are_written(spell):
    """Every number in the desk document, integers in lists included,
    reads the same written as a numeric string (``"2"``, ``"0.9"``), and
    every integer written as a float (``2.0``)."""
    doc = default_experiment().to_json()
    for part, key in list(_numbers(doc)):
        part[key] = spell(part[key])
    assert ExperimentConfig.from_json(doc) == default_experiment()


# io.config_digest of each desk document as written before every document
# had one reader. Manifests compare these digests, so a drift in ``to_json``
# would make meta-train refuse the datasets that collect wrote.
_DESK_DIGESTS = {
    "modular": "74802f7b605fd9c7d45d934c3fdedde28fa5f0e07870cb449af84d0ce1d0aea2",
    "monolithic":
        "5fd92865ad11dd7b67ebc4f4ec93084c4f711424e5e73d84716946084036fab6",
    "seq_pretrain":
        "067dfe14b1032253d5576152db07cf94aafab8abeb93f2fdc7cd146bd73db353",
    "fixed_time":
        "2427935c1e2288be86d8fe969246a244cff8e4e9f2a92c297ed06338d22871ef",
    "sotl": "9f6835783bc3967d674970fe05cbec3e9cce9d4809c7f66b1a1b50d69710bb22",
    "max_pressure":
        "fc2f15f9a8e5d5b4749bf706192d526d4b02df22a8826e13a0eb8a570934f16f",
    "random": "367a00fa267617e12f91ed13969fb2bd3284546f924f01009551fdd650e803d0",
    "city-a": "3bfd6aa1ec023c2467090bc323daca451fa9f44b40ebaed1b8e0509fbc1fc66f",
    "city-b": "0cc18b02573c8cf1ac3d3478bfddf4cf1943d4de27b1eabab63350a04b02694b",
    "city-c": "3147cf55481a6d75e96b9416c4127c0dc88e4c6787d5a8b91e30ae7e86114c81",
    "saturated":
        "2a2ab972eb9d84d59064990c88e931a6e2528f4c481a61ed9b86e69bcef7ee10",
}


def test_desk_document_digests_are_pinned():
    written = {**{m: default_experiment(m).to_json() for m in METHODS},
               **{name: make().to_json() for name, make in DESK_CITIES.items()}}
    assert {name: io.config_digest(doc) for name, doc in written.items()} \
        == _DESK_DIGESTS


_unit = st.floats(0.0, 1.0)
_positive = st.integers(1, 512)


@st.composite
def _experiments(draw):
    base = default_experiment()
    method = draw(st.sampled_from(METHODS))
    return replace(
        base,
        method=method,
        maml=replace(base.maml, inner_lr=draw(st.floats(0.0, 1.0)),
                     outer_lr=draw(st.floats(0.0, 1.0)),
                     meta_iterations=draw(st.integers(0, 1000)),
                     # MAML, the meta-training of every method but
                     # seq_pretrain, draws at most one task per source
                     task_batch_size=draw(
                         _positive if method == "seq_pretrain"
                         else st.integers(1, len(base.sources))),
                     inner_steps=draw(_positive),
                     first_order=draw(st.booleans()),
                     batch_size=draw(_positive),
                     outer_optimizer=draw(st.sampled_from(("sgd", "adam")))),
        adapt=replace(base.adapt, lr=draw(st.floats(1e-9, 1.0)),
                      target_episode_budget=draw(_positive),
                      epochs_per_episode=draw(_positive),
                      batch_size=draw(_positive), epsilon0=draw(_unit),
                      epsilon_decay=draw(st.floats(1e-9, 1.0))),
        seeds=tuple(draw(st.lists(st.integers(0, 2 ** 31 - 1), min_size=1,
                                  max_size=4))),
        out_dir=draw(st.text(min_size=1, max_size=12)),
        collect_episodes=draw(_positive),
        behavior_epsilon=draw(_unit),
        horizon=draw(st.integers(0, 5)),
        step_discount=draw(_unit),
        block_discount=draw(_unit),
        dist_discount=draw(_unit),
        dyn_hidden=tuple(draw(st.lists(_positive, min_size=1, max_size=3))),
        estimator_hidden=tuple(draw(st.lists(_positive, min_size=1,
                                             max_size=3))),
    )


@settings(max_examples=60, deadline=None)
@given(_experiments())
def test_config_document_roundtrip(cfg):
    """Any valid config written as JSON text reads back equal, with the same
    digest."""
    doc = json.loads(json.dumps(cfg.to_json()))
    back = ExperimentConfig.from_json(doc)
    assert back == cfg
    assert io.config_digest(back.to_json()) == io.config_digest(cfg.to_json())


def _readme_json_block(start: str) -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    return next(b for b in blocks if b.lstrip().startswith(start))


def test_readme_documents_load():
    """README's scenario and experiment examples load; with the desk cities
    in its <scenario> places the experiment example is the desk config."""
    scenario = ScenarioSpec.from_json(
        json.loads(_readme_json_block('{\n  "name"')))
    assert scenario.name == "city-c"
    block = _readme_json_block('{\n  "sources"')
    for name in ("city-a", "city-b", "city-c"):
        block = block.replace(
            "<scenario>", json.dumps(DESK_CITIES[name]().to_json()), 1)
    assert ExperimentConfig.from_json(json.loads(block)) == default_experiment()


def test_run_main_unknown_method_fails_before_compute(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigurationError):
        run_main(replace(cfg, method="nope"))


def test_run_main_fixed_time_identical_across_seeds(tmp_path):
    cfg = tiny_config(tmp_path, method="fixed_time", seeds=(0, 1, 2))
    report = run_main(cfg)
    travels = {r["avg_travel_time"] for r in report.rows}
    queues = {r["avg_queue_length"] for r in report.rows}
    assert len(travels) == 1  # deterministic controller, fixed flows
    assert len(queues) == 1
    assert report.std_travel == 0.0
    assert report.std_queue == 0.0
    csv_path = Path(cfg.out_dir) / "main-fixed_time" / "metrics.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "scenario,seed,method,avg_travel_time,avg_queue_length"
    assert len(lines) == 4


@pytest.mark.parametrize("method", ["max_pressure", "modular", "monolithic",
                                    "seq_pretrain"])
def test_run_main_csv_bytes_reproducible(tmp_path, method):
    seeds = (0, 1) if method == "max_pressure" else (0,)
    cfg = tiny_config(tmp_path, method=method, seeds=seeds)
    csv_path = Path(cfg.out_dir) / f"main-{method}" / "metrics.csv"
    run_main(cfg)
    first = csv_path.read_bytes()
    run_main(cfg)
    assert csv_path.read_bytes() == first


def assert_phase_counts(counts, cfg):
    """``counts`` holds one greedy target episode's decisions per phase,
    keyed by phase id as a string: one decision per node per interval."""
    net = cfg.target.network
    assert set(counts) == {str(p) for p in PHASE_IDS}
    assert sum(counts.values()) == cfg.target.intervals * net.rows * net.cols


# sha256 of the tiny modular run's metrics.csv, recorded before the phase
# timings existed: wall times must not reach the CSV
GOLDEN_MODULAR_CSV = \
    "aced7d5b36b6bbd51963f9430289dd78646550856c1a6b07c4f900d9309e6549"


def test_run_main_modular_reports_interactions(tmp_path):
    """Interaction counts and per-phase wall seconds reach report.json;
    metrics.csv has the bytes it had before the timings existed."""
    cfg = tiny_config(tmp_path, seeds=(0,))
    report = run_main(cfg)
    per_seed = report.extras["per_seed"]["0"]
    assert per_seed["interactions"] == cfg.adapt.target_episode_budget
    assert np.isfinite(report.mean_travel)
    out = Path(cfg.out_dir) / "main-modular"
    written = json.loads((out / "report.json").read_text()
                         )["extras"]["per_seed"]["0"]
    timings = written["timings"]
    assert written["phase_counts"] == per_seed["phase_counts"]
    assert_phase_counts(written["phase_counts"], cfg)
    assert set(timings) == {"collect_s", "meta_train_s", "adapt_s",
                            "evaluate_s", "heldout_s"}
    for name in ("adapted", "meta_init", "estimator", "persistence"):
        assert np.isfinite(per_seed[f"heldout_dist_{name}"])
    assert all(t > 0 for t in timings.values())
    assert sum(timings.values()) <= report.wall_clock_s
    assert hashlib.sha256((out / "metrics.csv").read_bytes()
                          ).hexdigest() == GOLDEN_MODULAR_CSV


# sha256 of each runner's CSVs on the tiny config with seeds 0 and 1,
# recorded before the runners shared one seed loop and one output writer.
# The offline case's was recorded after its estimator took the config's
# batch size (64, not 128); before, it was cc8d7b7f... The budget table's
# replaced the ablation's (18e4a0b1...) and the data-volume curve's
# (99b14c11...).
GOLDEN_RUNNER_CSVS = {
    "main-modular/metrics.csv":
        "62b8fdd546a0a873faa122843c69551597f244162f2cab1044117dbf12d4221a",
    "main-max_pressure/metrics.csv":
        "627d9b4f90683c3675105a670f51150249bfdfef116917192321ee432ecf8673",
    "budget/metrics.csv":
        "1714c7760842ef032f9797abfa499fa9c06684c61fe64062abe924a07f351559",
    "sweep/summary.csv":
        "1c177ebff00f88ffcde2d4dd5eeb1305cea938d519db2107dcb509e963b6287b",
    "source-matrix/cells.csv":
        "29ba8e2e26819ab9149f308de24c5377654bba44227ab691a7d5dc41c63ba246",
    "source-matrix/matrix.csv":
        "956100bc6de2f3cc3a1b95bcef721728e7c4f0e79e2fdc4ae81dce0a6ffb819a",
    "offline/metrics.csv":
        "50d652150a6a8d425c8387e9b70ddbdcad387daadc90bd796111438e599f96d3",
}


def test_every_runner_output_pinned(tmp_path):
    """Each runner's CSV bytes on the tiny config, and in each runner's
    directory a report.json with its wall time and a manifest.json with
    the digest of the config it ran."""
    cfg = tiny_config(tmp_path, seeds=(0, 1))
    max_pressure = replace(cfg, method="max_pressure")
    run_main(cfg)
    run_main(max_pressure)
    run_budget_table(cfg)
    run_complexity_sweep(cfg, width_scales=(0.25,), depths=(1,))
    run_source_selection(cfg)
    run_offline_case(cfg)
    out = Path(cfg.out_dir)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_RUNNER_CSVS} == GOLDEN_RUNNER_CSVS
    for name in ("main-modular", "main-max_pressure", "budget", "sweep",
                 "source-matrix", "offline"):
        ran = max_pressure if name == "main-max_pressure" else cfg
        report = json.loads((out / name / "report.json").read_text())
        assert report["wall_clock_s"] > 0
        manifest = json.loads((out / name / "manifest.json").read_text())
        assert manifest["config_digest"] == io.config_digest(ran.to_json())


def test_run_budget_table_outputs(tmp_path):
    """Per method and seed, report.json keeps the interaction count and,
    for every budget, run's per-seed record: the greedy evaluation's
    ``phase_counts``, and the held-out distances for every method but
    ``monolithic``, whose CSV field is blank."""
    cfg = tiny_config(tmp_path, seeds=(0,))
    table = run_budget_table(cfg)
    budget = cfg.adapt.target_episode_budget
    lines = (Path(cfg.out_dir) / "budget" / "metrics.csv").read_text(
        ).strip().split("\n")
    assert lines[0] == ("scenario,method,budget,seed,avg_travel_time,"
                        "avg_queue_length,heldout_dist_adapted")
    assert [line.split(",")[1:3] for line in lines[1:]] == [
        [m, str(b)] for m in runners.BUDGET_METHODS
        for b in range(1, budget + 1)]
    report = json.loads((Path(cfg.out_dir) / "budget" / "report.json")
                        .read_text())
    assert set(report["per_seed"]) == set(runners.BUDGET_METHODS)
    assert set(report["maml_beats_no_sources"]) == {"1", "2"}
    assert set(report["directional_expectations"]) == {
        "modular_beats_monolithic", "maml_beats_sequential"}
    for row, line in zip(table["rows"], lines[1:]):
        assert np.isfinite(row["avg_travel_time"])
        per_seed = report["per_seed"][row["method"]]["0"]
        assert per_seed["interactions"] == budget
        extras = per_seed["budgets"][str(row["budget"])]
        assert_phase_counts(extras["phase_counts"], cfg)
        heldout = {k: v for k, v in extras.items() if k.startswith("heldout")}
        if row["method"] == "monolithic":
            assert heldout == {} and line.endswith(",")
        else:
            assert set(heldout) == set(runners.HELDOUT_KEYS)
            assert all(np.isfinite(v) for v in heldout.values())
            assert line.endswith(f",{heldout['heldout_dist_adapted']:.6f}")


# rows of the ablation's metrics.csv and the data-volume curve's curve.csv
# (fraction, budget, seed, travel, queue) on the tiny config with seeds 0
# and 1, recorded before the budget table replaced both runners
ABLATION_ROWS = (
    "city-c,0,modular,147.367347,1.175000",
    "city-c,1,modular,148.178571,1.209259",
    "city-c,0,seq_pretrain,83.943878,0.277778",
    "city-c,1,seq_pretrain,143.331633,1.118519")
CURVE_ROWS = (
    "0.250000,1,0,144.678571,1.139815",
    "0.250000,1,1,144.719388,1.152778",
    "1.000000,2,0,147.367347,1.175000",
    "1.000000,2,1,148.178571,1.209259")


def test_budget_table_reproduces_the_runs_it_replaces(tmp_path):
    """At budget B, the table's modular and seq_pretrain rows are the old
    ablation's and its held-out distances are run's; its modular rows at
    budgets 1 and 2 are the old curve's; each no_sources row is run's with
    ``maml.meta_iterations=0`` at that budget; and its budget-B monolithic
    rows are run's, now that monolithic trains on modular's sources."""
    cfg = tiny_config(tmp_path, seeds=(0, 1))
    table = run_budget_table(cfg)
    report = json.loads((Path(cfg.out_dir) / "budget" / "report.json")
                        .read_text())

    def fields(row, *columns):
        return ",".join(io._fmt(row[c]) for c in columns)

    def rows(method, budget):
        return [r for r in table["rows"]
                if (r["method"], r["budget"]) == (method, budget)]

    assert [fields(r, *io.METRICS_COLUMNS) for method in ("modular",
            "seq_pretrain") for r in rows(method, 2)] == list(ABLATION_ROWS)
    assert [fields(r, "budget", "seed", "avg_travel_time",
                   "avg_queue_length") for b in (1, 2)
            for r in rows("modular", b)] == [
        row.split(",", 1)[1] for row in CURVE_ROWS]
    no_sources = replace(cfg, maml=replace(cfg.maml, meta_iterations=0))
    for method, budget, sub in (
            ("modular", 2, cfg), ("seq_pretrain", 2,
                                  replace(cfg, method="seq_pretrain")),
            ("monolithic", 2, replace(cfg, method="monolithic")),
            ("no_sources", 1, replace(no_sources, adapt=replace(
                cfg.adapt, target_episode_budget=1))),
            ("no_sources", 2, no_sources)):
        run = run_main(replace(sub, out_dir=str(tmp_path / method / str(
            budget))))
        assert [fields(r, "seed", "avg_travel_time", "avg_queue_length")
                for r in rows(method, budget)] == [
            fields(r, "seed", "avg_travel_time", "avg_queue_length")
            for r in run.rows]
        for seed, extras in run.extras["per_seed"].items():
            budgets = report["per_seed"][method][seed]["budgets"]
            assert {k: v for k, v in extras.items()
                    if k not in ("interactions", "timings")} \
                == budgets[str(budget)]
GOLDEN_MONOLITHIC = (
    {True: "8c1c4280c61399567377f2243a0ff614fbd2d3cc2c7d9fed6e55bcaa3bdc65a5",
     False: "3b38efd1b672c62faee6afbce3ad1c6ba78b7c39808d388f352c7bcf1612d411"
     }[SIMD_MATH],
    145.7704081632653, 1.1453703703703704)


def test_golden_monolithic_pin(tmp_path):
    """The final monolithic net's params (sha256) and its greedy episode's
    metrics on the tiny config, recorded when monolithic first trained on
    the sources modular collects; before, it collected its own, and the pin
    read (468d7606..., 145.16836734693877, 1.1388888888888888). The sha
    is by numpy's math path (``conftest.SIMD_MATH``); while softplus was
    ``np.logaddexp`` the SIMD path read 1f48a8e6... and the libm path as
    it does now."""
    metrics, art = monolithic_pipeline(tiny_config(tmp_path), 0)
    assert (hashlib.sha256(art["net"].params.tobytes()).hexdigest(),
            metrics.avg_travel_time_s,
            metrics.avg_queue_length) == GOLDEN_MONOLITHIC


def test_monolithic_arm_plans_at_horizon_zero_under_any_horizon(tmp_path):
    """The monolithic net reads observations, so its planner cannot roll
    forward: under the tiny config's horizon 2, ``monolithic_adapt`` runs
    and ``evaluate_planner`` scores it, bit for bit as under horizon 0."""
    cfg = tiny_config(tmp_path, episode_s=100)
    assert cfg.horizon == 2
    datasets = collect_source_datasets(cfg, stage_seeds(0)["collect"])
    runs = []
    for sub in (cfg, replace(cfg, horizon=0)):
        est, dyn, interactions = monolithic_adapt(sub, 0, datasets)
        metrics, _ = runners.evaluate_planner(sub, est, dyn, 0)
        runs.append((dyn.net.params.tobytes(), interactions, metrics))
    assert runs[0] == runs[1]
    assert runs[0][1] == cfg.adapt.target_episode_budget


def test_monolithic_adapt_fits_one_net_on_the_growing_observations(
        tmp_path, monkeypatch):
    """The monolithic arm spends its budget in ``meta.spend_budget`` too:
    after episode b it fits its one net, in this process, on the
    phase-coded observations and next states of episodes 1..b, and it
    forks nothing, having no estimator to fit."""
    cfg = replace(tiny_config(tmp_path, "monolithic", episode_s=100),
                  horizon=0)
    datasets = collect_source_datasets(cfg, stage_seeds(0)["collect"])
    episodes, fits, forks = [], [], []
    real_episode, real_fit = meta.run_episode, nn.fit

    def recorded(*args, **kwargs):
        out = real_episode(*args, **kwargs)
        episodes.append(out[1])
        return out

    def fit(net, loss_fn, x, y, opt, batches):
        fits.append((x, y))
        return real_fit(net, loss_fn, x, y, opt, batches)

    monkeypatch.setattr(meta, "run_episode", recorded)
    monkeypatch.setattr(nn, "fit", fit)
    monkeypatch.setattr(meta, "_forked",
                        hooked(meta._forked, lambda: forks.append(1)))
    monolithic_adapt(cfg, 0, datasets)
    budget = cfg.adapt.target_episode_budget
    assert forks == []
    assert len(episodes) == budget
    assert len(fits) == len(datasets) + budget  # pretraining, then adapting
    for b, (x, y) in enumerate(fits[len(datasets):], 1):
        whole = {c: np.concatenate([getattr(ep, c) for ep in episodes[:b]])
                 for c in COLUMNS}
        m = len(whole["action"])
        x = x[np.arange(len(x))]  # the input is encoded when indexed
        assert x.tobytes() == phase_encode(whole["obs"].reshape(m, -1),
                                           whole["action"]).tobytes()
        assert y.tobytes() == whole["state_next"].reshape(m, -1).tobytes()


def test_budget_table_computes_the_reference_distances_once(tmp_path,
                                                            monkeypatch):
    """``heldout_dist_meta_init`` and ``heldout_dist_persistence`` do not
    change with the budget: per method and seed, the meta-trained model's
    dynamics error and persistence's distance are computed once, and the
    adapted model's after each of the B episodes."""
    cfg = tiny_config(tmp_path, seeds=(0, 1), episode_s=100)
    inits, errors, persistence = [], [], []
    real_stage, real_error = runners.meta_train_stage, runners.dynamics_error

    def stage(*args):
        inits.append(real_stage(*args))
        return inits[-1]

    def error(dyn, *args):
        errors.append(dyn)
        return real_error(dyn, *args)

    monkeypatch.setattr(runners, "meta_train_stage", stage)
    monkeypatch.setattr(runners, "dynamics_error", error)
    monkeypatch.setattr(runners, "_mean_distance", hooked(
        runners._mean_distance, lambda: persistence.append(1)))
    run_budget_table(cfg)
    budget = cfg.adapt.target_episode_budget
    assert len(inits) == 3 * len(cfg.seeds)  # every method but monolithic
    on_init = [i for dyn in errors for i, init in enumerate(inits)
               if dyn is init]
    assert on_init == list(range(len(inits)))
    assert len(errors) == len(inits) * (1 + budget)
    assert len(persistence) == len(inits)


def test_run_budget_table_requires_pipeline_method(tmp_path):
    cfg = tiny_config(tmp_path, method="fixed_time")
    with pytest.raises(ConfigurationError, match="requires a pipeline"):
        run_budget_table(cfg)


def test_complexity_sweep_param_counts(tmp_path):
    cfg = tiny_config(tmp_path, seeds=(0,))
    results = run_complexity_sweep(cfg, width_scales=(0.25,), depths=(1, 2))
    assert len(results) == 2
    for entry in results:
        lanes = cfg.target.network.lanes_per_intersection
        n = cfg.target.network.state_grids
        width = max(8, int(round(128 * entry["width_scale"])))
        sizes = [lanes * n + 8] + [width] * entry["depth"] + [lanes * n]
        assert entry["dyn_param_count"] == nn.param_count(sizes)
        assert np.isfinite(entry["mean_travel"])
        cell = json.loads((Path(cfg.out_dir) / f"sweep-w0.25-d{entry['depth']}"
                           / "main-modular" / "report.json").read_text())
        assert_phase_counts(cell["extras"]["per_seed"]["0"]["phase_counts"],
                            cfg)
    assert (Path(cfg.out_dir) / "sweep" / "summary.csv").exists()


def test_complexity_sweep_empty_grid(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigurationError):
        run_complexity_sweep(cfg, width_scales=(), depths=(2,))


def test_source_selection_matrix(tmp_path):
    cfg = tiny_config(tmp_path, seeds=(0,))
    out = run_source_selection(cfg)
    assert len(out["cells"]) == 6  # 3 scenarios -> 6 ordered pairs
    names = [s.name for s in cfg.sources] + [cfg.target.name]
    for row in out["matrix"]:
        assert row[row["source"]] == "/"  # diagonal absent
    matrix_csv = Path(cfg.out_dir) / "source-matrix" / "matrix.csv"
    assert matrix_csv.exists()
    assert "fixed_time" in out["baselines"]
    for name in names:
        assert name in out["baselines"]["fixed_time"]


def test_source_selection_checks_every_pair_before_running(
        tmp_path, monkeypatch):
    """A pool where two scenarios share a schema holds a pair that cannot
    run modular; it is refused before the first pair runs."""
    cfg = tiny_config(tmp_path, method="fixed_time")
    cfg = replace(cfg, target=replace(cfg.target, schema="SCHEMA_A"))
    steps = []
    monkeypatch.setattr(Sim, "step", lambda *a, **k: steps.append(1))
    with pytest.raises(ConfigurationError, match="target schema"):
        run_source_selection(cfg)
    assert steps == []
    assert not Path(cfg.out_dir).exists()


def test_source_selection_baselines_run_without_sources(tmp_path,
                                                       monkeypatch):
    """The baselines' configs carry no sources, so a seq_pretrain pool whose
    task_batch_size exceeds its sources, which only MAML would read, is not
    refused after every pair has run."""
    cfg = tiny_config(tmp_path, method="seq_pretrain")
    cfg = replace(cfg, maml=replace(cfg.maml, task_batch_size=3))
    row = {"seed": 0, "avg_travel_time": 1.0, "avg_queue_length": 0.0}
    monkeypatch.setattr(runners, "seed_rows", lambda sub: ([row], {}))
    out = run_source_selection(cfg)
    assert set(out["baselines"]) == {"fixed_time", "max_pressure"}


def test_offline_case_runs_with_zero_extra_interactions(tmp_path):
    cfg = tiny_config(tmp_path, seeds=(0,))
    out = run_offline_case(cfg)
    assert set(out["mean_travel_by_method"]) == {"modular", "modular_offline",
                                                 "fixed_time"}
    assert out["per_seed"]["0"]["interactions"] == cfg.adapt.target_episode_budget
    csv_path = Path(cfg.out_dir) / "offline" / "metrics.csv"
    assert len(csv_path.read_text().strip().split("\n")) == 1 + 3
    # the online modular run's held-out distances reach report.json
    report = json.loads((Path(cfg.out_dir) / "offline" / "report.json")
                        .read_text())
    for key in runners.HELDOUT_KEYS:
        assert report["per_seed"]["0"][key] == out["per_seed"]["0"][key]
        assert np.isfinite(out["per_seed"]["0"][key])
    # and both greedy planner episodes' decisions per phase
    for key in ("phase_counts", "phase_counts_offline"):
        assert report["per_seed"]["0"][key] == out["per_seed"]["0"][key]
        assert_phase_counts(report["per_seed"]["0"][key], cfg)


def test_offline_case_runs_modular_whatever_the_method(tmp_path):
    """The online planner comes from the modular pipeline, so a
    seq_pretrain document gives the modular document's rows."""
    rows = [run_offline_case(tiny_config(tmp_path / m, method=m))["rows"]
            for m in ("modular", "seq_pretrain")]
    assert rows[0] == rows[1]


def test_offline_case_trains_with_the_configured_estimator(tmp_path,
                                                         monkeypatch):
    from gridlight.harness import runners

    seen = {}
    train = runners.offline_train_repr

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return train(*args, **kwargs)

    monkeypatch.setattr(runners, "offline_train_repr", spy)
    cfg = tiny_config(tmp_path)
    run_offline_case(cfg)
    assert (seen["batch_size"], seen["hidden"]) == (
        cfg.adapt.batch_size, cfg.estimator_hidden) == (64, (16,))


def test_offline_case_rejects_counted_offline_interactions(tmp_path,
                                                           monkeypatch):
    from gridlight.harness import runners
    from gridlight.scenario import EnvFactory

    class CountingFactory(EnvFactory):
        def make(self, seed, count=True):
            return super().make(seed, count=True)

    monkeypatch.setattr(runners, "EnvFactory", CountingFactory)
    with pytest.raises(RuntimeError, match="interactions"):
        run_offline_case(tiny_config(tmp_path, seeds=(0,)))


def test_data_volume_curve_budgets(tmp_path):
    """The table's rows at each budget b are run's with
    ``target_episode_budget=b``: one adaptation yields every budget."""
    cfg = tiny_config(tmp_path, seeds=(0,))
    cfg = replace(cfg, adapt=replace(cfg.adapt, target_episode_budget=3))
    table = run_budget_table(cfg)
    assert [r["budget"] for r in table["rows"]
            if r["method"] == "modular"] == [1, 2, 3]
    for budget in (1, 3):
        (main,) = run_main(replace(cfg, adapt=replace(
            cfg.adapt, target_episode_budget=budget))).rows
        (row,) = [r for r in table["rows"]
                  if (r["method"], r["budget"]) == ("modular", budget)]
        assert (row["avg_travel_time"], row["avg_queue_length"]) == (
            main["avg_travel_time"], main["avg_queue_length"])


def test_checkpoint_roundtrip(tmp_path):
    est = StateEstimator(default_estimator_net("SCHEMA_C", 12, (32, 32),
                                               seed=1),
                         "SCHEMA_C", 12, 12)
    dyn = DynamicsModel(default_dynamics_net(12, 12, (16,), seed=2), 12, 12)
    path = tmp_path / "ck.json"
    io.save_checkpoint(path, est, dyn,
                       provenance={"source_cities": ["a"], "meta_iters": 5,
                                   "seed": 0})
    ck = io.load_checkpoint(path)
    assert np.array_equal(ck["estimator"].net.params, est.net.params)
    assert np.array_equal(ck["dynamics"].net.params, dyn.net.params)
    assert ck["provenance"]["meta_iters"] == 5


def test_checkpoint_rejects_nonfinite(tmp_path):
    dyn = DynamicsModel(default_dynamics_net(12, 12, (16,), seed=2), 12, 12)
    path = tmp_path / "ck.json"
    io.save_checkpoint(path, None, dyn, {})
    doc = json.loads(path.read_text())
    doc["dyn"]["params"][0] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError):
        io.load_checkpoint(path)


def _small_dataset() -> TaskDataset:
    sc = desk_city_a(episode_s=100)
    return collect_experience(lambda s: sc.make(s), FixedTimeController(),
                              episodes=1, rng=np.random.default_rng(0),
                              city_id="a", intervals=sc.intervals)


def test_dataset_npz_roundtrip(tmp_path):
    ds = _small_dataset()
    path = io.dataset_path(tmp_path, ds.city_id)
    assert path == tmp_path / "a.npz"
    io.save_dataset(path, ds)
    with zipfile.ZipFile(path) as archive:
        assert sorted((i.filename, i.compress_type)
                      for i in archive.infolist()) == sorted(
            (f"{name}.npy", zipfile.ZIP_STORED)
            for name in ("city_id", "schema_id", *COLUMNS))
    back = io.load_dataset(path)
    assert (back.city_id, back.schema_id) == (ds.city_id, ds.schema_id)
    assert type(back.city_id) is str and type(back.schema_id) is str
    for column in COLUMNS:
        got, want = getattr(back, column), getattr(ds, column)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_dataset_saves_are_byte_identical(tmp_path, monkeypatch):
    """A save a day later writes the same bytes: every entry carries one
    fixed date, not the clock's."""
    ds = _small_dataset()
    io.save_dataset(tmp_path / "now.npz", ds)
    later = time.time() + 86_400
    monkeypatch.setattr(time, "time", lambda: later)
    io.save_dataset(tmp_path / "tomorrow.npz", ds)
    assert (tmp_path / "now.npz").read_bytes() == \
        (tmp_path / "tomorrow.npz").read_bytes()
    with zipfile.ZipFile(tmp_path / "tomorrow.npz") as archive:
        assert {i.date_time for i in archive.infolist()} == {
            (1980, 1, 1, 0, 0, 0)}


def _other_rows(a):
    return a[:-1]


def _other_lanes(a):
    return a[:, :-1]


def _at_index_5(value):
    def put(a):
        a = a.copy()
        a.flat[5] = value
        return a
    return put


def _not_an_archive(path, columns):
    path.write_text("not an archive\n")


def _cut_archive(path, columns):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _bare_npy(path, columns):
    with path.open("wb") as fh:
        np.save(fh, columns["state"])


def _without_state(path, columns):
    np.savez(path, **{k: v for k, v in columns.items() if k != "state"})


@pytest.mark.parametrize("damage, message", [
    (_not_an_archive, "not an archive$"),
    (_cut_archive, "not an archive$"),
    (_bare_npy, "not an archive$"),
    (_without_state, "state: .*state is not a file in the archive"),
    ({"state": lambda a: a.astype(np.float64)},
     r"state must be a 3-D uint8 array .* got a 3-D float64 one"),
    ({"state": lambda a: a + 0.5},
     r"state must be a 3-D uint8 array .* got a 3-D float64 one"),
    ({"state_next": lambda a: a.astype(np.int64)},
     r"state_next must be a 3-D uint8 array .* got a 3-D int64 one"),
    ({"obs": _at_index_5(np.nan)}, "obs must be finite"),
    ({"obs": _at_index_5(-np.inf)}, "obs must be finite"),
    ({"obs": lambda a: a[0]}, r"obs must be a 3-D float64 array .* got a 2-D"),
    ({"action": _at_index_5(0)},
     "action 0 is no phase id"),
    ({"action": _at_index_5(9)},
     "action 9 is no phase id"),
    ({"action": _other_rows},
     r"action must be .* whose shape begins \(20,\), .* shape \(19,\)"),
    ({"state_next": _other_rows}, r"begins \(20, 12, 12\), .* \(19, 12, 12\)"),
    ({"state_next": _other_lanes}, r"begins \(20, 12, 12\), .* \(20, 11, 12\)"),
    ({"obs": _other_rows}, r"obs must .* begins \(20, 12\), .* \(19, 12, 2\)"),
    ({"obs": _other_lanes}, r"obs must .* begins \(20, 12\), .* \(20, 11, 2\)"),
    ({"city_id": lambda a: np.array(5)},
     "city_id must be a 0-D str_ array .* got a 0-D int64 one"),
    ({"city_id": lambda a: np.array(["a", "b"])},
     "city_id must be a 0-D str_ array .* got a 1-D <U1 one"),
    ({"schema_id": lambda a: np.array("SCHEMA_C")},
     "has 2 observation features, schema 'SCHEMA_C' has"),
    ({c: (lambda a: a[:0]) for c in COLUMNS}, "task dataset 'a' is empty"),
], ids=["not-an-archive", "cut-archive", "bare-npy", "missing-state",
        "float-states", "fractional-states", "wide-next-states", "nan-obs",
        "inf-obs", "obs-rank-2", "action-0", "action-9", "action-rows",
        "state-next-rows", "state-next-lanes", "obs-rows", "obs-lanes",
        "city-id-int", "city-id-two", "schema-of-another-width", "empty"])
def test_dataset_load_names_the_damaged_entry(tmp_path, damage, message):
    """Each refusal of ``io.load_dataset``, on a file whose other entries
    are the ones ``save_dataset`` wrote, is a ConfigurationError naming the
    file and what is wrong."""
    ds = _small_dataset()
    path = tmp_path / "a.npz"
    io.save_dataset(path, ds)
    columns = {"city_id": np.array(ds.city_id),
               "schema_id": np.array(ds.schema_id),
               **{c: getattr(ds, c) for c in COLUMNS}}
    if callable(damage):
        damage(path, columns)
    else:
        np.savez(path, **{k: damage.get(k, lambda a: a)(v)
                          for k, v in columns.items()})
    with pytest.raises(ConfigurationError) as refused:
        io.load_dataset(path)
    assert str(path) in str(refused.value)
    assert re.search(message, str(refused.value)), str(refused.value)


def test_scenario_json_roundtrip():
    for make in DESK_CITIES.values():
        sc = make()
        back = ScenarioSpec.from_json(sc.to_json())
        assert back == sc
        assert back.network.to_json()["N"] == 12
        assert back.network.to_json()["n"] == 4


@st.composite
def _flows(draw, net: RoadNetwork):
    """A flow from any boundary edge whose route leaves the grid: a few
    drawn movements, then straight on to the edge."""
    side = draw(st.sampled_from(APPROACHES))
    index = draw(st.integers(0, (net.cols if side in "NS" else net.rows) - 1))
    node, heading = origin_node(net, (side, index)), HEADING_OF_APPROACH[side]
    route = []
    while net.on_grid(node):
        movement = (draw(st.sampled_from(MOVEMENTS)) if len(route) < 6
                    else "through")
        route.append(movement)
        heading = TURN[heading][movement]
        dr, dc = HEADING_DELTA[heading]
        node = (node[0] + dr, node[1] + dc)
    start = draw(st.integers(-100, 3600))
    flow = Flow((side, index), tuple(route), start,
                start + draw(st.integers(1, 3600)), draw(st.integers(1, 120)))
    trace_route(net, flow)  # raises unless the route leaves the grid
    return flow


@st.composite
def _scenarios(draw):
    """Any valid scenario: network shape and lane discretization, flows,
    schema, episode and interval lengths, and seed."""
    n = draw(st.integers(1, 4))
    state_grids = n * draw(st.integers(1, 4))
    net = RoadNetwork(rows=draw(st.integers(1, 4)),
                      cols=draw(st.integers(1, 4)),
                      state_grids=state_grids, pass_capacity=n,
                      grid_capacity=draw(st.integers(1, 8)),
                      lane_grids=draw(st.integers(state_grids,
                                                  3 * state_grids)))
    interval_s = draw(st.integers(1, 60))
    return ScenarioSpec(
        name=draw(st.text(max_size=12)), network=net,
        flows=tuple(draw(st.lists(_flows(net), max_size=4))),
        schema=draw(st.sampled_from(sorted(SCHEMA_DIMS))),
        episode_s=draw(st.integers(interval_s, 7200)), interval_s=interval_s,
        seed=draw(st.integers(0, 2 ** 63 - 1)))


@settings(max_examples=60, deadline=None)
@given(_scenarios(), st.lists(_scenarios(), max_size=3))
def test_scenario_document_roundtrip(target, sources):
    """Any valid scenario written as JSON text reads back equal, alone and
    as an experiment's target and sources."""
    doc = json.loads(json.dumps(target.to_json()))
    assert ScenarioSpec.from_json(doc) == target
    base = default_experiment("fixed_time")
    cfg = replace(base, target=target, sources=tuple(sources),
                  maml=replace(base.maml, task_batch_size=1))
    back = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert (back.target, back.sources) == (target, tuple(sources))


@st.composite
def _any_flows(draw, net: RoadNetwork):
    """A flow from any side and index, on the grid or off it, with a route
    that may leave the grid early or end inside it; or one that fits."""
    if draw(st.booleans()):
        return draw(_flows(net))
    side = draw(st.sampled_from(APPROACHES))
    index = draw(st.integers(-1, max(net.rows, net.cols)))
    route = draw(st.lists(st.sampled_from(MOVEMENTS), min_size=1, max_size=6))
    return Flow((side, index), tuple(route), 0, 60, 5)


def _refusal(check):
    """The message ``check()`` raises ``ConfigurationError`` with, or None."""
    try:
        check()
    except ConfigurationError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scenarios_refuse_exactly_the_flows_trace_route_refuses(data):
    net = RoadNetwork(rows=data.draw(st.integers(1, 4)),
                      cols=data.draw(st.integers(1, 4)))
    flows = data.draw(st.lists(_any_flows(net), min_size=1, max_size=3))
    first = next(filter(None, (_refusal(lambda f=f: trace_route(net, f))
                               for f in flows)), None)
    assert _refusal(lambda: ScenarioSpec("s", net, tuple(flows),
                                         "BASE")) == first


def test_flow_documents_refuse_malformed_origins():
    flow = desk_city_c().to_json()["flows"][0]
    for bad in (["N", 0, 1], ["N"], "N0", 3, None):
        with pytest.raises(ConfigurationError, match="origin"):
            Flow.from_json({**flow, "origin": bad})


def test_documents_refuse_malformed_shapes(tmp_path):
    doc = desk_city_c().to_json()
    flow = doc["flows"][0]
    for bad, message in (
            ({**doc, "flows": [{**flow, "route": 5}]}, "route must be a list"),
            ({**doc, "flows": [{**flow, "route": "through"}]},
             "route must be a list"),
            ({**doc, "flows": 5}, "flows must be a list"),
            ({**doc, "flows": [5]}, "flow document must be an object"),
            ({**doc, "network": 3}, "network document must be an object"),
            ([doc], "scenario document must be an object")):
        with pytest.raises(ConfigurationError, match=message):
            ScenarioSpec.from_json(bad)
    cfg = tiny_config(tmp_path).to_json()
    for bad, message in (({**cfg, "sources": 5}, "sources must be a list"),
                         ({**cfg, "maml": 5}, "maml must be an object"),
                         ([cfg], "experiment config must be an object")):
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig.from_json(bad)


def test_scenario_documents_reject_unknown_keys(tmp_path):
    doc = desk_city_c().to_json()
    network, flow = doc["network"], doc["flows"][0]
    for bad, where in (({**doc, "episode_secs": 600}, "scenario"),
                       ({**doc, "network": {**network, "lane_grid": 40}},
                        "network"),
                       ({**doc, "network": {**network, "state_grids": 12}},
                        "network"),
                       ({**doc, "flows": [{**flow, "headway": 5}]}, "flow")):
        with pytest.raises(ConfigurationError, match=f"{where} .*unknown keys"):
            ScenarioSpec.from_json(bad)
        cfg = tiny_config(tmp_path).to_json()
        with pytest.raises(ConfigurationError, match="unknown keys"):
            ExperimentConfig.from_json({**cfg, "target": bad})


# -- the pipeline's forked children -------------------------------------------

def collect_in_sequence(cfg, seed_seq):
    """The loop ``collect_source_datasets`` ran before a forked child
    collected the later half of the sources; kept as its oracle."""
    datasets = []
    for src in cfg.sources:
        child = np.random.default_rng(seed_seq.spawn(1)[0])
        behavior = EpsilonMixController(
            MaxPressureController(), cfg.behavior_epsilon,
            np.random.default_rng(child.integers(2 ** 31 - 1)))
        datasets.append(collect_experience(
            lambda s, src=src: src.make(s), behavior, cfg.collect_episodes,
            np.random.default_rng(child.integers(2 ** 31 - 1)),
            city_id=src.name, intervals=src.intervals,
            interval_s=src.interval_s))
    return datasets


def hooked(real, hook):
    """``real``, calling ``hook()`` first."""
    def call(*args, **kwargs):
        hook()
        return real(*args, **kwargs)
    return call


@pytest.mark.parametrize("n_sources", [1, 2, 3])
def test_collect_source_datasets_matches_the_sequential_loop(
        tmp_path, monkeypatch, n_sources):
    """The forked child collects the later half of the sources; with one
    source nothing is forked."""
    cities = (desk_city_a(100), desk_city_b(100), desk_city_c(100))
    cfg = replace(tiny_config(tmp_path, method="seq_pretrain"),
                  sources=cities[:n_sources])
    forks = []
    monkeypatch.setattr(runners, "_forked",
                        hooked(runners._forked, lambda: forks.append(1)))
    seqs = [np.random.SeedSequence([7, 17]) for _ in range(2)]
    got = collect_source_datasets(cfg, seqs[0])
    want = collect_in_sequence(cfg, seqs[1])
    assert len(forks) == (n_sources > 1)
    assert [ds.city_id for ds in got] == [c.name for c in cities[:n_sources]]
    for a, b in zip(got, want, strict=True):
        assert (a.city_id, a.schema_id) == (b.city_id, b.schema_id)
        for c in COLUMNS:
            x, y = getattr(a, c), getattr(b, c)
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()
    assert seqs[0].n_children_spawned == seqs[1].n_children_spawned


@pytest.mark.parametrize("failure", FAILURES)
def test_collect_child_failure_leaves_no_child(tmp_path, monkeypatch,
                                               failure):
    monkeypatch.setattr(runners, "collect_experience", hooked(
        runners.collect_experience, fail_in(failure)))
    error, message = FAILURES[failure]
    with no_child_left(), pytest.raises(error, match=message):
        collect_source_datasets(tiny_config(tmp_path, episode_s=100),
                                np.random.SeedSequence(0))


def test_heldout_errors_match_the_sequential_computation(tmp_path):
    cfg = tiny_config(tmp_path, episode_s=100)
    target = cfg.target
    _, art = modular_pipeline(cfg, 0)
    held = collect_experience(
        lambda s: target.make(s), FixedTimeController(), episodes=1,
        rng=np.random.default_rng(20_000), city_id="heldout",
        intervals=target.intervals, interval_s=target.interval_s)
    meta_init, dist_cfg = art["meta_init"], dist_config_for(cfg, target)
    assert meta_init.net.params.tobytes() == art["phi"].tobytes()
    assert art["heldout_dist_adapted"] == dynamics_error(
        art["dynamics"], held, dist_cfg)
    assert art["heldout_dist_meta_init"] == dynamics_error(
        meta_init, held, dist_cfg)
    assert art["heldout_dist_estimator"] == training_loss(
        art["estimator"], held, dist_cfg)
    assert art["heldout_dist_persistence"] == _mean_distance(
        held.state, held.state_next, dist_cfg)


def test_heldout_episode_does_not_depend_on_the_seed(tmp_path):
    """The budget table collects the held-out episode once for every run
    seed, which holds while the simulator draws nothing from its seed."""
    target = tiny_config(tmp_path, episode_s=100).target
    held = runners.heldout_episode(target)
    other = collect_experience(
        lambda s: target.make(s), FixedTimeController(), episodes=1,
        rng=np.random.default_rng(7), city_id="heldout",
        intervals=target.intervals, interval_s=target.interval_s)
    for c in COLUMNS:
        assert getattr(held, c).tobytes() == getattr(other, c).tobytes()


def test_distances_on_uint8_states_equal_those_on_int64_states(tmp_path):
    """Every distance reads the uint8 states the simulator records as the
    same floats as an int64 copy of them: each consumer widens to float64
    before it subtracts."""
    cfg = tiny_config(tmp_path, episode_s=100)
    net = cfg.target.network
    lanes, n_grids = net.lanes_per_intersection, net.state_grids
    held = runners.heldout_episode(cfg.target)
    wide = TaskDataset(held.city_id, held.schema_id, held.obs,
                       held.state.astype(np.int64), held.action,
                       held.state_next.astype(np.int64))
    assert held.state.dtype == held.state_next.dtype == np.uint8
    dist_cfg = dist_config_for(cfg, cfg.target)
    dyn = DynamicsModel(default_dynamics_net(lanes, n_grids, (16,), seed=1),
                        lanes, n_grids)
    est = StateEstimator(default_estimator_net(cfg.target.schema, n_grids,
                                               (8,), seed=0),
                         cfg.target.schema, lanes, n_grids)
    narrow_pred = held.state_next.astype(np.float64) + 0.25
    for measure in (
            lambda ds: _mean_distance(narrow_pred, ds.state_next, dist_cfg),
            lambda ds: dynamics_error(dyn, ds, dist_cfg),
            lambda ds: training_loss(est, ds, dist_cfg),
            lambda ds: runners.heldout_references(cfg, ds, dyn)):
        assert measure(held) == measure(wide)
