"""Harness tests: config validation, runner outputs, persistence round
trips, and byte-level reproducibility of CSV outputs."""

import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import FAILURES, fail_in, no_child_left
from hypothesis import given, settings
from hypothesis import strategies as st

from gridlight import nn
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
    monolithic_pipeline,
    run_ablation,
    run_complexity_sweep,
    run_data_volume_curve,
    run_main,
    run_offline_case,
    run_source_selection,
)
from gridlight.meta import (
    COLUMNS,
    AdaptConfig,
    MamlConfig,
    collect_experience,
    dynamics_error,
)
from gridlight.planner import DynamicsModel, StateEstimator, default_dynamics_net, default_estimator_net
from gridlight.scenario import ScenarioSpec
from gridlight.sim import Flow


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
    bad = replace(cfg, target=replace(cfg.target, schema="SCHEMA_A"))
    with pytest.raises(ConfigurationError):
        bad.validate()


def test_config_validation_unknown_method(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigurationError):
        replace(cfg, method="dqn").validate()
    with pytest.raises(ConfigurationError):
        replace(cfg, seeds=()).validate()


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


_unit = st.floats(0.0, 1.0)
_positive = st.integers(1, 512)


@st.composite
def _experiments(draw):
    base = default_experiment()
    return replace(
        base,
        method=draw(st.sampled_from(METHODS)),
        maml=replace(base.maml, inner_lr=draw(st.floats(0.0, 1.0)),
                     outer_lr=draw(st.floats(0.0, 1.0)),
                     meta_iterations=draw(st.integers(0, 1000)),
                     task_batch_size=draw(_positive),
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
    timings = json.loads((out / "report.json").read_text()
                         )["extras"]["per_seed"]["0"]["timings"]
    assert set(timings) == {"collect_s", "meta_train_s", "adapt_s",
                            "evaluate_s", "heldout_s"}
    assert all(t > 0 for t in timings.values())
    assert sum(timings.values()) <= report.wall_clock_s
    assert hashlib.sha256((out / "metrics.csv").read_bytes()
                          ).hexdigest() == GOLDEN_MODULAR_CSV


# sha256 of each runner's CSVs on the tiny config with seeds 0 and 1,
# recorded before the runners shared one seed loop and one output writer.
# The offline case's was recorded after its estimator took the config's
# batch size (64, not 128); before, it was cc8d7b7f...
GOLDEN_RUNNER_CSVS = {
    "main-modular/metrics.csv":
        "62b8fdd546a0a873faa122843c69551597f244162f2cab1044117dbf12d4221a",
    "main-max_pressure/metrics.csv":
        "627d9b4f90683c3675105a670f51150249bfdfef116917192321ee432ecf8673",
    "ablation/metrics.csv":
        "18e4a0b1bfaa8738e04334eea5d9325a291aa77b22356c224b0958c302dd10d1",
    "sweep/summary.csv":
        "1c177ebff00f88ffcde2d4dd5eeb1305cea938d519db2107dcb509e963b6287b",
    "source-matrix/cells.csv":
        "29ba8e2e26819ab9149f308de24c5377654bba44227ab691a7d5dc41c63ba246",
    "source-matrix/matrix.csv":
        "956100bc6de2f3cc3a1b95bcef721728e7c4f0e79e2fdc4ae81dce0a6ffb819a",
    "offline/metrics.csv":
        "50d652150a6a8d425c8387e9b70ddbdcad387daadc90bd796111438e599f96d3",
    "curve/curve.csv":
        "99b14c11c3971f2ae385a2b9740a6e70063592bb50880a196d7a083ceb87e3db",
}


def test_every_runner_output_pinned(tmp_path):
    """Each runner's CSV bytes on the tiny config, and in each runner's
    directory a report.json with its wall time and a manifest.json with
    the digest of the config it ran."""
    cfg = tiny_config(tmp_path, seeds=(0, 1))
    max_pressure = cfg.with_method("max_pressure")
    run_main(cfg)
    run_main(max_pressure)
    run_ablation(cfg)
    run_complexity_sweep(cfg, width_scales=(0.25,), depths=(1,))
    run_source_selection(cfg)
    run_offline_case(cfg)
    run_data_volume_curve(cfg)
    out = Path(cfg.out_dir)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_RUNNER_CSVS} == GOLDEN_RUNNER_CSVS
    for name in ("main-modular", "main-max_pressure", "ablation", "sweep",
                 "source-matrix", "offline", "curve"):
        ran = max_pressure if name == "main-max_pressure" else cfg
        report = json.loads((out / name / "report.json").read_text())
        assert report["wall_clock_s"] > 0
        manifest = json.loads((out / name / "manifest.json").read_text())
        assert manifest["config_digest"] == io.config_digest(ran.to_json())


def test_run_ablation_outputs(tmp_path):
    cfg = tiny_config(tmp_path, seeds=(0,))
    reports = run_ablation(cfg)
    assert set(reports) == {"modular", "monolithic", "seq_pretrain"}
    for rep in reports.values():
        assert np.isfinite(rep.mean_travel)
        assert len(rep.rows) == 1
    csv_path = Path(cfg.out_dir) / "ablation" / "metrics.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 1 + 3  # header + one row per variant per seed


GOLDEN_MONOLITHIC = (
    "468d7606c9a7f19c3384860d6c3003d42ca0862de78e090213ed1c6f29f27bbe",
    145.16836734693877, 1.1388888888888888)


def test_golden_monolithic_pin(tmp_path):
    """The final monolithic net's params (sha256) and its greedy episode's
    metrics on the tiny config, recorded when the ablation had a controller
    and a budget loop of its own."""
    metrics, art = monolithic_pipeline(tiny_config(tmp_path), 0)
    assert (hashlib.sha256(art["net"].params.tobytes()).hexdigest(),
            metrics.avg_travel_time_s,
            metrics.avg_queue_length) == GOLDEN_MONOLITHIC


def test_run_ablation_requires_pipeline_method(tmp_path):
    cfg = tiny_config(tmp_path, method="fixed_time")
    with pytest.raises(ConfigurationError):
        run_ablation(cfg)


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


def test_offline_case_runs_with_zero_extra_interactions(tmp_path):
    cfg = tiny_config(tmp_path, seeds=(0,))
    out = run_offline_case(cfg)
    assert set(out["mean_travel_by_method"]) == {"modular", "modular_offline",
                                                 "fixed_time"}
    assert out["per_seed"]["0"]["interactions"] == cfg.adapt.target_episode_budget
    csv_path = Path(cfg.out_dir) / "offline" / "metrics.csv"
    assert len(csv_path.read_text().strip().split("\n")) == 1 + 3


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
    cfg = tiny_config(tmp_path, seeds=(0,))
    cfg = replace(cfg, adapt=replace(cfg.adapt, target_episode_budget=4))
    rows = run_data_volume_curve(cfg, fractions=(0.25, 0.5, 1.0))
    budgets = sorted({r["budget_episodes"] for r in rows})
    assert budgets == [1, 2, 4]  # ceiling of fraction * the config's 4
    csv_path = Path(cfg.out_dir) / "curve" / "curve.csv"
    header = csv_path.read_text().split("\n")[0]
    assert header == "fraction,budget_episodes,seed,travel_time,queue_length"
    # the full budget is the one run spends, so its row is run's row
    full = rows[-1]
    assert (full["fraction"], full["budget_episodes"]) == (1.0, 4)
    (main,) = run_main(cfg).rows
    assert (full["travel_time"], full["queue_length"]) == (
        main["avg_travel_time"], main["avg_queue_length"])
    with pytest.raises(ConfigurationError):
        run_data_volume_curve(cfg, fractions=(0.0,))


def test_checkpoint_roundtrip(tmp_path):
    est = StateEstimator(default_estimator_net("SCHEMA_C", 12, seed=1),
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


def test_dataset_jsonl_roundtrip(tmp_path):
    from gridlight.baselines import FixedTimeController
    from gridlight.meta import collect_experience

    sc = desk_city_a(episode_s=100)
    ds = collect_experience(lambda s: sc.make(s), FixedTimeController(),
                            episodes=1, rng=np.random.default_rng(0),
                            city_id="a", intervals=sc.intervals)
    path = tmp_path / "a.jsonl"
    io.save_dataset(path, ds)
    back = io.load_dataset(path)
    assert len(back) == len(ds)
    assert back.schema_id == ds.schema_id
    for column in ("t", "obs", "state", "action", "state_next", "obs_next"):
        assert np.array_equal(getattr(back, column), getattr(ds, column))


def test_dataset_load_names_the_damaged_line(tmp_path):
    from gridlight.baselines import FixedTimeController
    from gridlight.meta import collect_experience

    sc = desk_city_a(episode_s=100)
    ds = collect_experience(lambda s: sc.make(s), FixedTimeController(),
                            episodes=1, rng=np.random.default_rng(0),
                            city_id="a", intervals=sc.intervals)
    path = tmp_path / "a.jsonl"
    io.save_dataset(path, ds)
    lines = path.read_text().splitlines(keepends=True)
    row = json.loads(lines[2])
    del row["state"]
    for damaged, message in (
            (lines[:2] + [lines[2][:40]], "line 3: Unterminated string"),
            (lines[:2] + [json.dumps(row) + "\n"] + lines[3:],
             r"line 3 is missing fields \['state'\]")):
        path.write_text("".join(damaged))
        with pytest.raises(ConfigurationError, match=message):
            io.load_dataset(path)


def test_scenario_json_roundtrip():
    for make in DESK_CITIES.values():
        sc = make()
        back = ScenarioSpec.from_json(sc.to_json())
        assert back == sc
        assert back.network.to_json()["N"] == 12
        assert back.network.to_json()["n"] == 4


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
    cfg = replace(tiny_config(tmp_path), sources=cities[:n_sources])
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
    g0, dist_cfg = art["g0"], dist_config_for(cfg, target)
    meta_init = DynamicsModel(g0.net.with_params(art["phi"]), g0.lanes,
                              g0.state_grids)
    assert art["heldout_dist_adapted"] == dynamics_error(
        art["dynamics"], held, dist_cfg)
    assert art["heldout_dist_meta_init"] == dynamics_error(
        meta_init, held, dist_cfg)


@pytest.mark.parametrize("failure", FAILURES)
def test_heldout_child_failure_leaves_no_child(tmp_path, monkeypatch,
                                               failure):
    """The held-out child computes the dynamics errors while this process
    runs the greedy evaluation."""
    hook = fail_in(failure)
    for name in ("dynamics_error", "evaluate_planner"):
        monkeypatch.setattr(runners, name, hooked(getattr(runners, name),
                                                  hook))
    error, message = FAILURES[failure]
    with no_child_left(), pytest.raises(error, match=message):
        modular_pipeline(tiny_config(tmp_path, episode_s=100), 0)
