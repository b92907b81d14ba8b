"""CLI tests: subcommand wiring, exit codes, config loading, and output
files. Uses a shrunken config document to keep runs fast."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridlight.cli import main
from gridlight.harness import io
from gridlight.harness.config import desk_city_a, desk_city_b, desk_city_c
from gridlight.planner import (
    DynamicsModel,
    StateEstimator,
    default_dynamics_net,
    default_estimator_net,
)
from gridlight.sim import Sim


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "sources": [desk_city_a(300).to_json(), desk_city_b(300).to_json()],
        "target": desk_city_c(300).to_json(),
        "method": "fixed_time",
        "maml": {"inner_lr": 2e-4, "outer_lr": 1e-3, "meta_iterations": 5,
                 "task_batch_size": 2, "batch_size": 64,
                 "outer_optimizer": "adam"},
        "adapt": {"lr": 1e-3, "target_episode_budget": 1,
                  "epochs_per_episode": 2, "batch_size": 64},
        "seeds": [0],
        "out_dir": str(tmp_path / "out"),
        "collect_episodes": 1,
        "dyn_hidden": [32],
        "estimator_hidden": [16],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_exit_zero(config_path, tmp_path, capsys):
    rc = main(["--config", str(config_path), "simulate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "travel=" in out
    assert (Path(json.loads(config_path.read_text())["out_dir"])
            / "simulate" / "metrics.csv").exists()


def test_simulate_bad_method_exit_two(config_path):
    rc = main(["--config", str(config_path), "simulate", "--method", "dqn"])
    assert rc == 2


def test_missing_config_file_exit_one(tmp_path):
    rc = main(["--config", str(tmp_path / "nope.json"), "simulate"])
    assert rc != 0


def test_source_matrix_without_seeds_exit_two(config_path, capsys):
    doc = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**doc, "seeds": []}))
    rc = main(["--config", str(config_path), "source-matrix"])
    assert rc == 2
    assert "at least one seed" in capsys.readouterr().err


def test_malformed_config_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"method": "fixed_time"}))  # no target
    rc = main(["--config", str(path), "simulate"])
    assert rc == 2


def test_malformed_flow_origin_exit_two(config_path, capsys):
    doc = json.loads(config_path.read_text())
    target = doc["target"]
    flows = [{**target["flows"][0], "origin": ["N", 0, 1]}]
    config_path.write_text(json.dumps(
        {**doc, "target": {**target, "flows": flows}}))
    rc = main(["--config", str(config_path), "simulate"])
    assert rc == 2
    assert "origin" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [{"route": 5}, {"route": "through"}])
def test_malformed_flow_route_exit_two(config_path, capsys, edit):
    doc = json.loads(config_path.read_text())
    target = doc["target"]
    flows = [{**target["flows"][0], **edit}]
    config_path.write_text(json.dumps(
        {**doc, "target": {**target, "flows": flows}}))
    rc = main(["--config", str(config_path), "simulate"])
    assert rc == 2
    assert "route must be a list" in capsys.readouterr().err


def _fails_to_parse(kind):
    def fails(text):
        try:
            kind(text)
        except ValueError:
            return True
        return False
    return st.text(max_size=4).filter(fails)


_SMALL_LIST = st.lists(st.integers(-3, 3), max_size=2)
_SMALL_DICT = st.dictionaries(st.text(max_size=2), st.integers(-3, 3),
                              max_size=2)
_NOT_AN_OBJECT = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                           st.text(max_size=4), _SMALL_LIST)
_NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                        st.text(max_size=4), _SMALL_DICT)
_NOT_AN_INT = st.one_of(
    st.none(), st.booleans(), _fails_to_parse(int), _SMALL_LIST, _SMALL_DICT,
    st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()))
_NOT_A_FLOAT = st.one_of(st.none(), st.booleans(), _fails_to_parse(float),
                         _SMALL_LIST, _SMALL_DICT)

# per document kind: its required keys, and the bad values each field takes
_MALFORMED_FIELDS = {
    "experiment": (("target", "method"), {
        "collect_episodes": _NOT_AN_INT, "horizon": _NOT_AN_INT,
        "behavior_epsilon": _NOT_A_FLOAT, "dist_discount": _NOT_A_FLOAT,
        "sources": _NOT_A_LIST, "dyn_hidden": _NOT_A_LIST,
        "seeds": st.lists(_NOT_AN_INT, min_size=1, max_size=2),
        "maml": _NOT_AN_OBJECT, "adapt": _NOT_AN_OBJECT}),
    "scenario": (("network", "schema"), {
        "episode_s": _NOT_AN_INT, "interval_s": _NOT_AN_INT,
        "seed": _NOT_AN_INT, "flows": _NOT_A_LIST,
        "network": _NOT_AN_OBJECT}),
    "network": (("rows", "cols"), {
        key: _NOT_AN_INT for key in ("rows", "cols", "lanes_per_approach",
                                     "N", "n", "grid_capacity",
                                     "lane_grids")}),
    "flow": (("origin", "route", "start_s", "end_s", "headway_s"), {
        "start_s": _NOT_AN_INT, "end_s": _NOT_AN_INT,
        "headway_s": _NOT_AN_INT, "route": _NOT_A_LIST,
        "origin": st.one_of(_NOT_A_LIST, st.lists(st.just("N"), max_size=3)
                            .filter(lambda o: len(o) != 2))}),
}


@st.composite
def _malformed_documents(draw, doc):
    """``doc`` with one document inside it (the experiment itself, a
    scenario, its network, or one of its flows) made malformed: not an
    object, given an unknown key, missing a required key, or holding a
    value of the wrong type."""
    doc = json.loads(json.dumps(doc))
    kind = draw(st.sampled_from(sorted(_MALFORMED_FIELDS)))
    scenario = draw(st.sampled_from(("target", "sources")))
    parent, key = None, None
    if kind != "experiment":
        parent, key = ((doc, "target") if scenario == "target"
                       else (doc["sources"], 0))
        if kind == "network":
            parent, key = parent[key], "network"
        elif kind == "flow":
            parent, key = parent[key]["flows"], draw(st.integers(0, 2))
    part = doc if parent is None else parent[key]
    required, bad_values = _MALFORMED_FIELDS[kind]
    how = draw(st.sampled_from(("not_object", "unknown", "missing", "value")))
    if how == "not_object":
        part = draw(_NOT_AN_OBJECT)
    elif how == "unknown":
        part[draw(st.text(min_size=1, max_size=6)
                  .filter(lambda k: k not in part))] = draw(st.integers())
    elif how == "missing":
        del part[draw(st.sampled_from(required))]
    else:
        field = draw(st.sampled_from(sorted(bad_values)))
        part[field] = draw(bad_values[field])
    if parent is None:
        return part
    parent[key] = part
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_documents_exit_two(config_path, data):
    """A malformed experiment, scenario, network or flow document is a
    configuration error (exit 2), never a runtime failure (exit 1)."""
    doc = json.loads(config_path.read_text())
    bad = data.draw(_malformed_documents(doc))
    path = config_path.with_name("malformed.json")
    path.write_text(json.dumps(bad))
    assert main(["--config", str(path), "simulate"]) == 2


def _checkpoint_doc(tmp_path) -> dict:
    """A well-formed adapted checkpoint for the city-c target, as JSON."""
    net = desk_city_c(300).network
    lanes, grids = net.lanes_per_intersection, net.state_grids
    path = tmp_path / "ck.json"
    io.save_checkpoint(
        path, StateEstimator(default_estimator_net("SCHEMA_C", grids, (16,)),
                             "SCHEMA_C", lanes, grids),
        DynamicsModel(default_dynamics_net(lanes, grids, (32,)), lanes,
                      grids), {})
    return json.loads(path.read_text())


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("edit, message", [
    (lambda d: _without(d, "dyn"), "checkpoint is missing fields ['dyn']"),
    (lambda d: [d], "checkpoint must be an object, got list"),
    (lambda d: {**d, "dyn": _without(d["dyn"], "lanes")},
     "checkpoint dyn is missing fields ['lanes']"),
    (lambda d: {**d, "dyn": 5}, "checkpoint dyn must be an object"),
    (lambda d: {**d, "dyn": {**d["dyn"], "lanes": 2.5}},
     "dyn lanes must be an integer"),
    (lambda d: {**d, "repr": {**d["repr"], "state_grids": "x"}},
     "repr state_grids must be an integer"),
    (lambda d: {**d, "repr": _without(d["repr"], "schema_id")},
     "checkpoint repr is missing fields ['schema_id']"),
    (lambda d: {**d, "dyn": {**d["dyn"], "layer_sizes": 5}},
     "dyn layer_sizes must be a list"),
    (lambda d: {**d, "dyn": {**d["dyn"], "params": d["dyn"]["params"][1:]}},
     "dyn: parameter vector has length"),
    (lambda d: {**d, "dyn": {**d["dyn"], "params": "x"}}, "dyn: could not"),
], ids=["no-dyn", "list", "dyn-without-lanes", "dyn-not-object",
        "fractional-lanes", "string-state-grids", "repr-without-schema",
        "layer-sizes-not-list", "short-params", "string-params"])
def test_evaluate_malformed_checkpoint_exit_two(config_path, tmp_path,
                                                capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(_checkpoint_doc(tmp_path))))
    rc = main(["--config", str(config_path), "evaluate", "--checkpoint",
               str(path)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def count_steps(monkeypatch):
    """The number of ``Sim.step`` calls made so far, as a one-item list."""
    calls, step = [0], Sim.step

    def counted(*args, **kwargs):
        calls[0] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(Sim, "step", counted)
    return calls


def test_old_checkpoint_with_planning_fields_evaluates(config_path, tmp_path):
    """Checkpoints once also stored value, distance and policy settings;
    such a document still loads, and evaluate plans with the config's."""
    doc = {**_checkpoint_doc(tmp_path), "value_params": {"horizon": 2},
           "dist_params": {"block_discount": 0.8},
           "policy_params": {"epsilon": 0.0}}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    rc = main(["--config", str(config_path), "evaluate", "--checkpoint",
               str(path)])
    assert rc == 0


@pytest.mark.parametrize("field, value", [
    ("horizon", -1), ("step_discount", 1.5), ("block_discount", 2.0),
    ("dist_discount", -0.5)])
def test_run_rejects_out_of_range_planning_values_up_front(
        config_path, capsys, count_steps, field, value):
    doc = json.loads(config_path.read_text())
    config_path.write_text(json.dumps(
        {**doc, "method": "modular", field: value}))
    rc = main(["--config", str(config_path), "run"])
    assert rc == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert count_steps == [0]


def test_collect_writes_datasets(config_path, capsys):
    rc = main(["--config", str(config_path), "collect"])
    assert rc == 0
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    assert (out_dir / "datasets" / "city-a.jsonl").exists()
    assert (out_dir / "datasets" / "city-b.jsonl").exists()
    manifest = json.loads(
        (out_dir / "datasets" / "manifest.json").read_text())
    assert manifest["seeds"] == [0]


def test_meta_train_needs_datasets_of_this_config(config_path, capsys):
    """meta-train reads what collect wrote: without datasets, or with
    datasets collected under another seed, it exits 2 and writes no
    checkpoint."""
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    cfg = ["--config", str(config_path)]
    assert main(cfg + ["meta-train"]) == 2
    assert "run collect first" in capsys.readouterr().err
    assert main(cfg + ["--seed", "5", "collect"]) == 0
    assert main(cfg + ["meta-train"]) == 2
    assert "collected under another config" in capsys.readouterr().err
    assert not (out_dir / "meta").exists()


def _cut_mid_line(text: str) -> str:
    cut = text[:len(text) // 2]
    assert not cut.endswith("\n")
    return cut


def _drop_state(text: str) -> str:
    first, rest = text.split("\n", 1)
    row = json.loads(first)
    del row["state"]
    return json.dumps(row) + "\n" + rest


def _first_quarter(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:len(lines) // 4])


@pytest.mark.parametrize("damage", [_cut_mid_line, _drop_state,
                                    _first_quarter])
def test_meta_train_refuses_damaged_datasets(config_path, capsys, damage):
    """A dataset file that is not the one collect wrote, cut mid-line, with
    a field gone or cut at a line boundary, makes meta-train exit 2 naming
    it, and no checkpoint is written."""
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    assert main(["--config", str(config_path), "collect"]) == 0
    manifest = json.loads(
        (out_dir / "datasets" / "manifest.json").read_text())
    path = out_dir / "datasets" / "city-a.jsonl"
    assert manifest["sha256"] == {
        name: io.file_sha256(out_dir / "datasets" / name)
        for name in ("city-a.jsonl", "city-b.jsonl")}
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert main(["--config", str(config_path), "meta-train"]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (out_dir / "meta" / "initialization.json").exists()


@pytest.mark.parametrize("damage", [
    lambda text: "[]",
    lambda text: text[:50],
    lambda text: json.dumps({**json.loads(text), "sha256": 5}),
], ids=["list", "cut-to-50", "sha256-not-object"])
def test_meta_train_refuses_a_damaged_manifest(config_path, capsys, damage):
    """A manifest that is a list, cut short, or holds a number for its
    hashes makes meta-train exit 2 naming it; no checkpoint is written."""
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    assert main(["--config", str(config_path), "collect"]) == 0
    path = out_dir / "datasets" / "manifest.json"
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert main(["--config", str(config_path), "meta-train"]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (out_dir / "meta" / "initialization.json").exists()


def test_adapt_rejects_checkpoint_of_other_hidden_sizes(config_path, capsys,
                                                       count_steps):
    """A checkpoint meta-trained with "dyn_hidden": [32] does not fit a
    [64] config: adapt exits 2 before any target episode."""
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    assert main(["--config", str(config_path), "collect"]) == 0
    assert main(["--config", str(config_path), "meta-train"]) == 0
    doc = json.loads(config_path.read_text())
    wide = config_path.with_name("wide.json")
    wide.write_text(json.dumps({**doc, "dyn_hidden": [64]}))
    steps = count_steps[0]
    rc = main(["--config", str(wide), "adapt", "--checkpoint",
               str(out_dir / "meta" / "initialization.json")])
    assert rc == 2
    assert "layer_sizes" in capsys.readouterr().err
    assert count_steps[0] == steps
    assert not (out_dir / "adapted").exists()


def test_meta_train_adapt_evaluate_chain(config_path, capsys):
    assert main(["--config", str(config_path), "collect"]) == 0
    rc = main(["--config", str(config_path), "meta-train"])
    assert rc == 0
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    ck = out_dir / "meta" / "initialization.json"
    assert ck.exists()
    assert set(json.loads(ck.read_text())) == {"repr", "dyn", "provenance"}

    rc = main(["--config", str(config_path), "adapt",
               "--checkpoint", str(ck)])
    assert rc == 0
    adapted = out_dir / "adapted" / "checkpoint.json"
    assert adapted.exists()
    doc = json.loads(adapted.read_text())
    assert doc["provenance"]["interactions"] == 1
    assert doc["repr"]["schema_id"] == "SCHEMA_C"

    rc = main(["--config", str(config_path), "evaluate",
               "--checkpoint", str(adapted)])
    assert rc == 0
    assert (out_dir / "evaluate" / "metrics.csv").exists()


def test_stage_chain_reproduces_run(config_path):
    doc = json.loads(config_path.read_text())
    doc["method"] = "modular"
    config_path.write_text(json.dumps(doc))
    out_dir = Path(doc["out_dir"])
    cfg = ["--config", str(config_path)]
    assert main(cfg + ["collect"]) == 0
    assert main(cfg + ["meta-train"]) == 0
    assert main(cfg + ["adapt", "--checkpoint",
                       str(out_dir / "meta" / "initialization.json")]) == 0
    assert main(cfg + ["evaluate", "--checkpoint",
                       str(out_dir / "adapted" / "checkpoint.json")]) == 0
    assert main(cfg + ["run"]) == 0
    chain = (out_dir / "evaluate" / "metrics.csv").read_text()
    assert chain == (out_dir / "main-modular" / "metrics.csv").read_text()


def test_evaluate_rejects_unadapted_checkpoint(config_path):
    main(["--config", str(config_path), "collect"])
    main(["--config", str(config_path), "meta-train"])
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    ck = out_dir / "meta" / "initialization.json"
    rc = main(["--config", str(config_path), "evaluate",
               "--checkpoint", str(ck)])
    assert rc == 2


def test_evaluate_rejects_checkpoint_for_another_target(config_path,
                                                       tmp_path, capsys):
    """A city-c checkpoint against a city-b target fails up front with a
    configuration error, before any episode runs."""
    main(["--config", str(config_path), "collect"])
    main(["--config", str(config_path), "meta-train"])
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    main(["--config", str(config_path), "adapt", "--checkpoint",
          str(out_dir / "meta" / "initialization.json")])
    doc = json.loads(config_path.read_text())
    doc["target"] = desk_city_b(300).to_json()
    other = tmp_path / "city-b.json"
    other.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["--config", str(other), "evaluate", "--checkpoint",
               str(out_dir / "adapted" / "checkpoint.json")])
    assert rc == 2
    assert "do not match target 'city-b'" in capsys.readouterr().err
    assert not (out_dir / "evaluate").exists()


def test_seed_override(config_path, capsys):
    rc = main(["--config", str(config_path), "--seed", "7", "simulate"])
    assert rc == 0
    assert "seed=7" in capsys.readouterr().out


def test_curve_command(config_path, capsys):
    rc = main(["--config", str(config_path), "curve",
               "--fractions", "0.5,1.0"])
    assert rc == 0
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    assert (out_dir / "curve" / "curve.csv").exists()
