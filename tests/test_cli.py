"""CLI tests: subcommand wiring, exit codes, config loading, and output
files. Uses a shrunken config document to keep runs fast."""

import json
from pathlib import Path

import pytest

from gridlight.cli import main
from gridlight.harness.config import desk_city_a, desk_city_b, desk_city_c


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


def test_collect_writes_datasets(config_path, capsys):
    rc = main(["--config", str(config_path), "collect"])
    assert rc == 0
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    assert (out_dir / "datasets" / "city-a.jsonl").exists()
    assert (out_dir / "datasets" / "city-b.jsonl").exists()


def test_meta_train_adapt_evaluate_chain(config_path, capsys):
    rc = main(["--config", str(config_path), "meta-train"])
    assert rc == 0
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    ck = out_dir / "meta" / "initialization.json"
    assert ck.exists()

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
    assert main(cfg + ["meta-train"]) == 0
    assert main(cfg + ["adapt", "--checkpoint",
                       str(out_dir / "meta" / "initialization.json")]) == 0
    assert main(cfg + ["evaluate", "--checkpoint",
                       str(out_dir / "adapted" / "checkpoint.json")]) == 0
    assert main(cfg + ["run"]) == 0
    chain = (out_dir / "evaluate" / "metrics.csv").read_text()
    assert chain == (out_dir / "main-modular" / "metrics.csv").read_text()


def test_evaluate_rejects_unadapted_checkpoint(config_path):
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
               "--fractions", "0.5,1.0", "--full-budget", "2"])
    assert rc == 0
    out_dir = Path(json.loads(config_path.read_text())["out_dir"])
    assert (out_dir / "curve" / "curve.csv").exists()
