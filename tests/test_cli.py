"""CLI tests: subcommand wiring, exit codes, config loading, and output
files. Uses a shrunken config document to keep runs fast."""

import json
import re
from dataclasses import fields
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridlight.cli import main
from gridlight.errors import ConfigurationError
from gridlight.harness import io
from gridlight.harness.config import (
    BASELINE_METHODS,
    PIPELINE_METHODS,
    ExperimentConfig,
    desk_city_a,
    desk_city_b,
    desk_city_c,
)
from gridlight.harness.runners import dist_config_for, stage_seeds
from gridlight.meta import AdaptConfig, MamlConfig, seq_pretrain
from gridlight.planner import (
    DynamicsModel,
    StateEstimator,
    default_dynamics_net,
    default_estimator_net,
)
from gridlight.scenario import ScenarioSpec
from gridlight.sim import Flow, RoadNetwork, Sim


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


@pytest.fixture
def modular_path(config_path):
    """The shared document with the modular method, whose stages collect,
    meta-train, adapt and evaluate run one by one."""
    doc = json.loads(config_path.read_text())
    doc["method"] = "modular"
    config_path.write_text(json.dumps(doc))
    return config_path


def test_simulate_exit_zero(config_path, tmp_path, capsys):
    rc = main(["--config", str(config_path), "simulate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "travel=" in out
    assert (Path(json.loads(config_path.read_text())["out_dir"])
            / "simulate" / "metrics.csv").exists()


def test_simulate_seq_pretrain_document_with_a_large_task_batch(config_path):
    """seq_pretrain reads no task batch, and simulate's baselines no
    sources, so such a document simulates a baseline."""
    doc = json.loads(config_path.read_text())
    doc["method"] = "seq_pretrain"
    doc["maml"]["task_batch_size"] = 3
    config_path.write_text(json.dumps(doc))
    assert main(["--config", str(config_path), "simulate", "--method",
                 "fixed_time"]) == 0


def test_simulate_bad_method_exit_two(config_path):
    rc = main(["--config", str(config_path), "simulate", "--method", "dqn"])
    assert rc == 2


def test_missing_config_file_exit_two(tmp_path, capsys):
    path = tmp_path / "nope.json"
    rc = main(["--config", str(path), "simulate"])
    assert rc == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["config", "adapt", "evaluate"])
@pytest.mark.parametrize("text", [None, "{'method': 'modular'}", "\xff"],
                         ids=["missing", "not-json", "not-utf8"])
def test_unreadable_json_files_exit_two(modular_path, tmp_path, capsys,
                                        command, text):
    """A config or checkpoint file that is missing, not JSON or not UTF-8
    is a configuration error naming the file, not a runtime failure."""
    path = tmp_path / "file.json"
    if text is not None:
        path.write_bytes(text.encode("latin-1"))
    argv = (["--config", str(path), "simulate"] if command == "config" else
            ["--config", str(modular_path), command, "--checkpoint",
             str(path)])
    assert main(argv) == 2
    assert f"cannot read JSON file {path}" in capsys.readouterr().err


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

_NOT_A_STRING = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                          st.floats(-9, 9), _SMALL_LIST, _SMALL_DICT)
_NOT_A_BOOL = st.one_of(st.none(), st.integers(-3, 3), st.floats(-9, 9),
                        st.text(max_size=4), _SMALL_LIST, _SMALL_DICT)

# per document kind: its class, its required keys, and for each of its
# fields, by document key, values of another JSON kind than it takes (and
# for grid_capacity, whose states are stored as uint8, counts above 255)
_MALFORMED_FIELDS = {
    "experiment": (ExperimentConfig, ("target", "method"), {
        "sources": _NOT_A_LIST, "target": _NOT_AN_OBJECT,
        "method": _NOT_A_STRING, "maml": _NOT_AN_OBJECT,
        "adapt": _NOT_AN_OBJECT, "out_dir": _NOT_A_STRING,
        "seeds": st.one_of(_NOT_A_LIST,
                           st.lists(_NOT_AN_INT, min_size=1, max_size=2)),
        "collect_episodes": _NOT_AN_INT, "horizon": _NOT_AN_INT,
        **{key: _NOT_A_FLOAT for key in (
            "behavior_epsilon", "step_discount", "block_discount",
            "dist_discount")},
        "dyn_hidden": _NOT_A_LIST, "estimator_hidden": _NOT_A_LIST}),
    "maml": (MamlConfig, (), {
        "inner_lr": _NOT_A_FLOAT, "outer_lr": _NOT_A_FLOAT,
        **{key: _NOT_AN_INT for key in (
            "meta_iterations", "task_batch_size", "inner_steps",
            "batch_size")},
        "first_order": _NOT_A_BOOL, "outer_optimizer": _NOT_A_STRING}),
    "adapt": (AdaptConfig, (), {
        "lr": _NOT_A_FLOAT, "target_episode_budget": _NOT_AN_INT,
        "epochs_per_episode": _NOT_AN_INT, "batch_size": _NOT_AN_INT,
        "epsilon0": _NOT_A_FLOAT, "epsilon_decay": _NOT_A_FLOAT}),
    "scenario": (ScenarioSpec, ("network", "schema"), {
        "name": _NOT_A_STRING, "network": _NOT_AN_OBJECT,
        "flows": _NOT_A_LIST, "schema": _NOT_A_STRING,
        "episode_s": _NOT_AN_INT, "interval_s": _NOT_AN_INT,
        "seed": _NOT_AN_INT}),
    "network": (RoadNetwork, ("rows", "cols"), {
        **{key: _NOT_AN_INT for key in ("rows", "cols", "lanes_per_approach",
                                        "N", "n", "lane_grids")},
        # counts first: Hypothesis tries the simplest value, 256, first
        "grid_capacity": st.one_of(st.integers(256, 10 ** 6), _NOT_AN_INT)}),
    "flow": (Flow, ("origin", "route", "start_s", "end_s", "headway_s"), {
        "start_s": _NOT_AN_INT, "end_s": _NOT_AN_INT,
        "headway_s": _NOT_AN_INT, "route": _NOT_A_LIST,
        "origin": st.one_of(_NOT_A_LIST, st.lists(st.just("N"), max_size=3)
                            .filter(lambda o: len(o) != 2))}),
}


def test_malformed_field_table_covers_every_field():
    for kind, (cls, _, bad_values) in _MALFORMED_FIELDS.items():
        assert set(bad_values) == {f.metadata.get("key", f.name)
                                   for f in fields(cls)}, kind


@st.composite
def _document_part(draw, doc, kind):
    """A document of ``kind`` inside ``doc`` (the experiment itself, its
    ``maml`` or ``adapt``, a scenario, its network, or one of its flows),
    and the object and key that hold it (None for the experiment)."""
    if kind == "experiment":
        return None, None
    if kind in ("maml", "adapt"):
        return doc, kind
    parent, key = draw(st.sampled_from(((doc, "target"),
                                        (doc["sources"], 0))))
    if kind == "network":
        parent, key = parent[key], "network"
    elif kind == "flow":
        parent, key = parent[key]["flows"], draw(st.integers(0, 2))
    return parent, key


@st.composite
def _malformed_documents(draw, doc, kind, how):
    """``doc`` with one document of ``kind`` inside it made malformed by
    ``how``: not an object, given an unknown key, missing a required key,
    or holding a value of the wrong type."""
    doc = json.loads(json.dumps(doc))
    parent, key = draw(_document_part(doc, kind))
    part = doc if parent is None else parent[key]
    _, required, bad_values = _MALFORMED_FIELDS[kind]
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


@pytest.mark.parametrize("kind, how", [
    (kind, how) for kind, (_, required, _) in _MALFORMED_FIELDS.items()
    for how in ("not_object", "unknown", "value")
    + (("missing",) if required else ())])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_documents_exit_two(config_path, kind, how, data):
    """A malformed experiment, scenario, network or flow document is a
    configuration error (exit 2), never a runtime failure (exit 1)."""
    doc = json.loads(config_path.read_text())
    bad = data.draw(_malformed_documents(doc, kind, how))
    path = config_path.with_name("malformed.json")
    path.write_text(json.dumps(bad))
    assert main(["--config", str(path), "simulate"]) == 2


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, (_, _, bad_values) in _MALFORMED_FIELDS.items()
    for field in bad_values])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_field_refuses_json_of_another_kind(config_path, kind, field,
                                                  data):
    """Each field of every document refuses a JSON value of another kind
    than its type takes, read alone or inside the experiment, with a
    message that names the field's key."""
    doc = json.loads(config_path.read_text())
    parent, key = data.draw(_document_part(doc, kind))
    part = doc if parent is None else parent[key]
    cls, _, bad_values = _MALFORMED_FIELDS[kind]
    part[field] = data.draw(bad_values[field])
    named = re.compile(rf"(^|: ){re.escape(field)}(\[\d+\])?(:| must be)")
    for read in (lambda: cls.from_json(part),
                 lambda: ExperimentConfig.from_json(doc)):
        with pytest.raises(ConfigurationError) as refused:
            read()
        assert named.search(str(refused.value)), str(refused.value)


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
def test_evaluate_malformed_checkpoint_exit_two(modular_path, tmp_path,
                                                capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(_checkpoint_doc(tmp_path))))
    rc = main(["--config", str(modular_path), "evaluate", "--checkpoint",
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


def test_old_checkpoint_with_planning_fields_evaluates(modular_path, tmp_path):
    """Checkpoints once also stored value, distance and policy settings;
    such a document still loads, and evaluate plans with the config's."""
    doc = {**_checkpoint_doc(tmp_path), "value_params": {"horizon": 2},
           "dist_params": {"block_discount": 0.8},
           "policy_params": {"epsilon": 0.0}}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    rc = main(["--config", str(modular_path), "evaluate", "--checkpoint",
               str(path)])
    assert rc == 0


@pytest.mark.parametrize("field, value", [
    ("horizon", -1), ("step_discount", 1.5), ("block_discount", 2.0),
    ("dist_discount", -0.5), ("behavior_epsilon", 1.5),
    ("behavior_epsilon", -0.1)])
def test_run_rejects_out_of_range_planning_values_up_front(
        config_path, capsys, count_steps, field, value):
    doc = json.loads(config_path.read_text())
    config_path.write_text(json.dumps(
        {**doc, "method": "modular", field: value}))
    rc = main(["--config", str(config_path), "run"])
    assert rc == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert count_steps == [0]


@pytest.mark.parametrize("part, field, value", [
    ("adapt", "batch_size", 0), ("adapt", "lr", "nan"),
    ("maml", "inner_lr", "inf"), ("maml", "outer_lr", "nan")])
def test_run_rejects_bad_training_values_up_front(
        config_path, capsys, count_steps, part, field, value):
    doc = json.loads(config_path.read_text())
    doc["method"] = "modular"
    doc[part][field] = value
    config_path.write_text(json.dumps(doc))
    rc = main(["--config", str(config_path), "run"])
    assert rc == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert count_steps == [0]
    assert not Path(doc["out_dir"]).exists()


@pytest.mark.parametrize("flags, seeds", [([], [-1]), (["--seed", "-1"], [0])])
def test_negative_seed_exit_two(config_path, capsys, count_steps, flags,
                                seeds):
    doc = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**doc, "seeds": seeds}))
    rc = main(["--config", str(config_path), *flags, "run"])
    assert rc == 2
    assert "seeds must" in capsys.readouterr().err
    assert count_steps == [0]
    assert not Path(doc["out_dir"]).exists()


@pytest.mark.parametrize("command", ["run", "collect", "meta-train"])
@pytest.mark.parametrize("edit, message", [
    ({"origin": ["N", 7]}, "origin column 7 outside grid with 3 cols"),
    ({"route": ["right", "through"]}, "leaves the grid after movement 0")],
    ids=["origin-off-grid", "leaves-early"])
def test_flow_off_the_grid_exit_two(config_path, capsys, count_steps,
                                    command, edit, message):
    """A target flow the simulator cannot run is refused when the document
    is read, before any stage runs or writes."""
    doc = json.loads(config_path.read_text())
    doc["method"] = "modular"
    doc["target"]["flows"][0].update(edit)
    config_path.write_text(json.dumps(doc))
    rc = main(["--config", str(config_path), command])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert count_steps == [0]
    assert not Path(doc["out_dir"]).exists()


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--widths", "x"], "--widths"),
    (["sweep", "--depths", "2.5"], "--depths"),
    (["sweep", "--widths", "-1"], "widths"),
    (["sweep", "--widths", "0.5,nan"], "widths"),
    (["sweep", "--depths", "0"], "depths")])
def test_bad_grid_flags_exit_two(config_path, capsys, count_steps, argv,
                                 flag):
    rc = main(["--config", str(config_path), *argv])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert count_steps == [0]
    assert not Path(json.loads(config_path.read_text())["out_dir"]).exists()


def test_collect_writes_datasets(modular_path, capsys):
    rc = main(["--config", str(modular_path), "collect"])
    assert rc == 0
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    assert (out_dir / "datasets" / "city-a.npz").exists()
    assert (out_dir / "datasets" / "city-b.npz").exists()
    manifest = json.loads(
        (out_dir / "datasets" / "manifest.json").read_text())
    assert manifest["seeds"] == [0]


def test_meta_train_needs_datasets_of_this_config(modular_path, capsys):
    """meta-train reads what collect wrote: without datasets, or with
    datasets collected under another seed, it exits 2 and writes no
    checkpoint."""
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    cfg = ["--config", str(modular_path)]
    assert main(cfg + ["meta-train"]) == 2
    assert "run collect first" in capsys.readouterr().err
    assert main(cfg + ["--seed", "5", "collect"]) == 0
    assert main(cfg + ["meta-train"]) == 2
    assert "collected under another config" in capsys.readouterr().err
    assert not (out_dir / "meta").exists()


def test_meta_train_refuses_a_directory_of_jsonl_datasets(modular_path,
                                                         capsys):
    """Datasets are read from ``<city>.npz`` only: a directory whose
    datasets are ``<city>.jsonl`` files, with their hashes in the manifest,
    holds no collected datasets (exit 2), and no checkpoint is written."""
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    assert main(["--config", str(modular_path), "collect"]) == 0
    datasets = out_dir / "datasets"
    manifest = json.loads((datasets / "manifest.json").read_text())
    for name in ("city-a", "city-b"):
        (datasets / f"{name}.npz").rename(datasets / f"{name}.jsonl")
    manifest["sha256"] = {f"{name}.jsonl": io.file_sha256(
        datasets / f"{name}.jsonl") for name in ("city-a", "city-b")}
    (datasets / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["--config", str(modular_path), "meta-train"]) == 2
    assert "run collect first" in capsys.readouterr().err
    assert not (out_dir / "meta").exists()


def _cut_midway(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _rewritten(data: bytes, edit) -> bytes:
    """Dataset archive ``data`` with its entries, by name, passed through
    ``edit``."""
    with np.load(BytesIO(data)) as archive:
        entries = edit({k: archive[k] for k in archive.files})
    out = BytesIO()
    np.savez(out, **entries)
    return out.getvalue()


def _drop_state(data: bytes) -> bytes:
    return _rewritten(data, lambda entries: {
        k: v for k, v in entries.items() if k != "state"})


def _first_quarter(data: bytes) -> bytes:
    return _rewritten(data, lambda entries: {
        k: v if k.endswith("_id") else v[:len(entries["action"]) // 4]
        for k, v in entries.items()})


@pytest.mark.parametrize("damage", [_cut_midway, _drop_state,
                                    _first_quarter])
def test_meta_train_refuses_damaged_datasets(modular_path, capsys, damage):
    """A dataset file that is not the one collect wrote, cut in the middle,
    with an entry gone or holding only its first quarter of rows, makes
    meta-train exit 2 naming it, and no checkpoint is written."""
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    assert main(["--config", str(modular_path), "collect"]) == 0
    manifest = json.loads(
        (out_dir / "datasets" / "manifest.json").read_text())
    path = out_dir / "datasets" / "city-a.npz"
    assert manifest["sha256"] == {
        name: io.file_sha256(out_dir / "datasets" / name)
        for name in ("city-a.npz", "city-b.npz")}
    path.write_bytes(damage(path.read_bytes()))
    capsys.readouterr()
    assert main(["--config", str(modular_path), "meta-train"]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (out_dir / "meta" / "initialization.json").exists()


def _ragged(obs):
    rows = [row for row in obs]
    rows[0] = rows[0][:-1]
    return np.array(rows, dtype=object)


def _at_row_2(value):
    def put(a):
        a = a.copy()
        a[2] = value
        return a
    return put


@pytest.mark.parametrize("entry, edit, message", [
    ("obs", _ragged, "obs: Object arrays cannot be loaded"),
    ("obs", lambda obs: obs[:, :-1],
     r"obs must be a 3-D float64 array whose shape begins \(\d+, 12\)"),
    ("state", lambda state: np.full(state.shape, "many"),
     "state must be a 3-D uint8 array .* got a 3-D <U4 one"),
    ("state", lambda state: state + 0.5,
     "state must be a 3-D uint8 array .* got a 3-D float64 one"),
    ("action", lambda action: np.full(action.shape, "left"),
     "action must be a 1-D int64 array"),
    ("action", _at_row_2(9), "action 9 is no phase id"),
    ("action", _at_row_2(0), "action 0 is no phase id"),
    ("city_id", lambda city: np.array(["city-a", "city-b"]),
     "city_id must be a 0-D str_ array .* got a 1-D")],
    ids=["ragged-obs", "fewer-lanes", "non-numeric-state", "half-a-vehicle",
         "string-action", "action-9", "action-0", "mixed-cities"])
def test_meta_train_refuses_malformed_dataset_rows(modular_path, capsys,
                                                   entry, edit, message):
    """A dataset file whose hash matches but whose entry training cannot
    use makes meta-train exit 2 naming the file and the entry, before
    training."""
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    assert main(["--config", str(modular_path), "collect"]) == 0
    path = out_dir / "datasets" / "city-a.npz"
    path.write_bytes(_rewritten(path.read_bytes(), lambda entries: {
        **entries, entry: edit(entries[entry])}))
    manifest_path = out_dir / "datasets" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sha256"][path.name] = io.file_sha256(path)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["--config", str(modular_path), "meta-train"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert re.search(message, err)
    assert not (out_dir / "meta").exists()


@pytest.mark.parametrize("damage", [
    lambda text: "[]",
    lambda text: text[:50],
    lambda text: json.dumps({**json.loads(text), "sha256": 5}),
], ids=["list", "cut-to-50", "sha256-not-object"])
def test_meta_train_refuses_a_damaged_manifest(modular_path, capsys, damage):
    """A manifest that is a list, cut short, or holds a number for its
    hashes makes meta-train exit 2 naming it; no checkpoint is written."""
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    assert main(["--config", str(modular_path), "collect"]) == 0
    path = out_dir / "datasets" / "manifest.json"
    path.write_text(damage(path.read_text()))
    capsys.readouterr()
    assert main(["--config", str(modular_path), "meta-train"]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (out_dir / "meta" / "initialization.json").exists()


def test_adapt_rejects_checkpoint_of_other_hidden_sizes(modular_path, capsys,
                                                       count_steps):
    """A checkpoint meta-trained with "dyn_hidden": [32] does not fit a
    [64] config: adapt exits 2 before any target episode."""
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    assert main(["--config", str(modular_path), "collect"]) == 0
    assert main(["--config", str(modular_path), "meta-train"]) == 0
    doc = json.loads(modular_path.read_text())
    wide = modular_path.with_name("wide.json")
    wide.write_text(json.dumps({**doc, "dyn_hidden": [64]}))
    steps = count_steps[0]
    rc = main(["--config", str(wide), "adapt", "--checkpoint",
               str(out_dir / "meta" / "initialization.json")])
    assert rc == 2
    assert "layer_sizes" in capsys.readouterr().err
    assert count_steps[0] == steps
    assert not (out_dir / "adapted").exists()


def test_meta_train_adapt_evaluate_chain(modular_path, capsys):
    assert main(["--config", str(modular_path), "collect"]) == 0
    rc = main(["--config", str(modular_path), "meta-train"])
    assert rc == 0
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    ck = out_dir / "meta" / "initialization.json"
    assert ck.exists()
    assert set(json.loads(ck.read_text())) == {"repr", "dyn", "provenance"}

    rc = main(["--config", str(modular_path), "adapt",
               "--checkpoint", str(ck)])
    assert rc == 0
    adapted = out_dir / "adapted" / "checkpoint.json"
    assert adapted.exists()
    doc = json.loads(adapted.read_text())
    assert doc["provenance"]["interactions"] == 1
    assert doc["repr"]["schema_id"] == "SCHEMA_C"

    rc = main(["--config", str(modular_path), "evaluate",
               "--checkpoint", str(adapted)])
    assert rc == 0
    assert (out_dir / "evaluate" / "metrics.csv").exists()


def test_stage_chain_reproduces_run(modular_path):
    doc = json.loads(modular_path.read_text())
    out_dir = Path(doc["out_dir"])
    cfg = ["--config", str(modular_path)]
    assert main(cfg + ["collect"]) == 0
    assert main(cfg + ["meta-train"]) == 0
    assert main(cfg + ["adapt", "--checkpoint",
                       str(out_dir / "meta" / "initialization.json")]) == 0
    assert main(cfg + ["evaluate", "--checkpoint",
                       str(out_dir / "adapted" / "checkpoint.json")]) == 0
    assert main(cfg + ["run"]) == 0
    chain = (out_dir / "evaluate" / "metrics.csv").read_text()
    assert chain == (out_dir / "main-modular" / "metrics.csv").read_text()


def test_seq_pretrain_stage_chain_reproduces_run(config_path):
    """A seq_pretrain document pretrains sequentially in meta-train too:
    the checkpoint holds seq_pretrain's parameters on the collected
    datasets, and evaluate's rows are run's, method label included."""
    doc = json.loads(config_path.read_text())
    doc["method"] = "seq_pretrain"
    config_path.write_text(json.dumps(doc))
    out_dir = Path(doc["out_dir"])
    cfg = ["--config", str(config_path)]
    assert main(cfg + ["collect"]) == 0
    assert main(cfg + ["meta-train"]) == 0
    ck = out_dir / "meta" / "initialization.json"
    assert main(cfg + ["adapt", "--checkpoint", str(ck)]) == 0
    assert main(cfg + ["evaluate", "--checkpoint",
                       str(out_dir / "adapted" / "checkpoint.json")]) == 0
    assert main(cfg + ["run"]) == 0
    chain = (out_dir / "evaluate" / "metrics.csv").read_text()
    assert chain == (out_dir / "main-seq_pretrain" / "metrics.csv").read_text()
    assert ",seq_pretrain," in chain

    exp = ExperimentConfig.load(config_path)
    net = exp.target.network
    lanes, grids = net.lanes_per_intersection, net.state_grids
    g0 = DynamicsModel(default_dynamics_net(lanes, grids, exp.dyn_hidden,
                                            seed=stage_seeds(0)["net"]),
                       lanes, grids)
    datasets = [io.load_dataset(io.dataset_path(out_dir / "datasets",
                                                src.name))
                for src in exp.sources]
    want = seq_pretrain(datasets, exp.maml, g0,
                        dist_config_for(exp, exp.target),
                        stage_seeds(0)["train"])
    assert np.array_equal(io.load_checkpoint(ck)["dynamics"].net.params, want)


def _refused_up_front(config_path, doc, command, message, capsys,
                      count_steps):
    """``command`` on ``doc`` exits 2 naming ``message``, before any
    ``Sim.step`` and before writing anything."""
    config_path.write_text(json.dumps(doc))
    assert main(["--config", str(config_path), command]) == 2
    assert message in capsys.readouterr().err
    assert count_steps == [0]
    assert not Path(doc["out_dir"]).exists()


@pytest.mark.parametrize("command, part", [
    ("collect", ("sources", 1)), ("source-matrix", ("target",))])
def test_repeated_scenario_names_exit_two(modular_path, capsys, count_steps,
                                          command, part):
    """collect writes, and source-matrix tabulates, one entry per scenario
    name, so a second scenario named "city-a" is refused."""
    doc = json.loads(modular_path.read_text())
    scenario = doc[part[0]] if len(part) == 1 else doc[part[0]][part[1]]
    scenario["name"] = "city-a"
    _refused_up_front(modular_path, doc, command, "repeat", capsys,
                      count_steps)


@pytest.mark.parametrize("command", ["run", "collect", "budget"])
@pytest.mark.parametrize("method", PIPELINE_METHODS)
def test_source_of_other_state_grids_exit_two(config_path, capsys,
                                              count_steps, command, method):
    """One dynamics model serves every city, so a source whose lanes
    expose 8 state grids cannot train one for a 12-grid target."""
    doc = json.loads(config_path.read_text())
    doc["method"] = method
    doc["sources"][0]["network"]["N"] = 8
    _refused_up_front(config_path, doc, command, "8 state grids per lane",
                      capsys, count_steps)


@pytest.mark.parametrize("method, command", [
    ("modular", "run"), ("modular", "collect"), ("modular", "budget"),
    ("seq_pretrain", "budget"), ("fixed_time", "collect"),
    ("monolithic", "collect")])
def test_task_batch_over_sources_exit_two(config_path, capsys, count_steps,
                                          method, command):
    """MAML cannot draw three tasks from two sources. meta-train runs MAML
    for every method but seq_pretrain, so collect refuses such a document
    up front, not meta-train after it; budget runs the modular variant of
    a seq_pretrain document, so it refuses it too."""
    doc = json.loads(config_path.read_text())
    doc["method"] = method
    doc["maml"]["task_batch_size"] = 3
    _refused_up_front(config_path, doc, command, "task_batch_size (3)",
                      capsys, count_steps)


def test_budget_of_a_baseline_method_exit_two(config_path, capsys,
                                              count_steps):
    """budget compares the pipeline methods, as run_budget_table does; it
    does not rewrite a fixed_time document into a modular one."""
    _refused_up_front(config_path, json.loads(config_path.read_text()),
                      "budget", "requires a pipeline method", capsys,
                      count_steps)


STAGE_COMMANDS = ("collect", "meta-train", "adapt", "evaluate")


def _stage_refused(config_path, tmp_path, capsys, count_steps, command,
                   method, message):
    """``command`` on the shared document with ``method`` exits 2 naming
    ``message``, before any step or write."""
    doc = json.loads(config_path.read_text())
    doc["method"] = method
    config_path.write_text(json.dumps(doc))
    checkpoint = ([] if command in ("collect", "meta-train")
                  else ["--checkpoint", str(tmp_path / "checkpoint.json")])
    assert main(["--config", str(config_path), command, *checkpoint]) == 2
    assert message in capsys.readouterr().err
    assert count_steps == [0]
    assert not Path(doc["out_dir"]).exists()


@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_stage_commands_refuse_monolithic(config_path, tmp_path, capsys,
                                          count_steps, command):
    """The monolithic ablation trains one net end to end and has no
    separate stages: each stage command exits 2 pointing to run and
    budget, before any step or write."""
    _stage_refused(config_path, tmp_path, capsys, count_steps, command,
                   "monolithic", "run it with `run` or `budget`")


@pytest.mark.parametrize("command", STAGE_COMMANDS)
@pytest.mark.parametrize("method", BASELINE_METHODS)
def test_stage_commands_refuse_baseline_methods(config_path, tmp_path,
                                                capsys, count_steps,
                                                command, method):
    """A baseline method has no stages: each stage command exits 2
    pointing to run and simulate, instead of running the modular pipeline
    and labelling its rows modular."""
    _stage_refused(config_path, tmp_path, capsys, count_steps, command,
                   method, "with `run` or `simulate`")


def test_evaluate_rejects_unadapted_checkpoint(modular_path):
    main(["--config", str(modular_path), "collect"])
    main(["--config", str(modular_path), "meta-train"])
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    ck = out_dir / "meta" / "initialization.json"
    rc = main(["--config", str(modular_path), "evaluate",
               "--checkpoint", str(ck)])
    assert rc == 2


def test_evaluate_rejects_checkpoint_for_another_target(modular_path,
                                                       tmp_path, capsys):
    """A city-c checkpoint against a city-b target fails up front with a
    configuration error, before any episode runs."""
    main(["--config", str(modular_path), "collect"])
    main(["--config", str(modular_path), "meta-train"])
    out_dir = Path(json.loads(modular_path.read_text())["out_dir"])
    main(["--config", str(modular_path), "adapt", "--checkpoint",
          str(out_dir / "meta" / "initialization.json")])
    doc = json.loads(modular_path.read_text())
    # a target's schema differs from every source's
    doc["sources"][1], doc["target"] = doc["target"], doc["sources"][1]
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


def test_budget_command(config_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["method"] = "modular"
    config_path.write_text(json.dumps(doc))
    assert main(["--config", str(config_path), "budget"]) == 0
    assert capsys.readouterr().out.count(" budget=1 seed=0: travel=") == 4
    table = Path(doc["out_dir"]) / "budget" / "metrics.csv"
    assert len(table.read_text().splitlines()) == 1 + 4
