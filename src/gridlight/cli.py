"""Command-line interface.

Subcommands: simulate, collect, meta-train, adapt, evaluate, run, budget,
sweep, source-matrix, offline. Global flags --config/--seed/--out.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError, load_json
from .harness import io
from .harness.config import (BASELINE_METHODS, ExperimentConfig,
                             default_experiment)
from .harness.runners import (
    adapt_stage,
    collect_source_datasets,
    evaluate_planner,
    meta_train_stage,
    metrics_row,
    run_budget_table,
    run_complexity_sweep,
    run_main,
    run_offline_case,
    run_source_selection,
    seed_rows,
    stage_seeds,
)
from .planner import default_dynamics_net


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = default_experiment()
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _flag_values(text: str, flag: str, kind) -> tuple:
    """The comma-separated values of ``flag``, each read as ``kind``."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: {exc}") from exc


def _cmd_simulate(cfg: ExperimentConfig, args) -> None:
    method = args.method or cfg.method
    if method not in BASELINE_METHODS:
        raise ConfigurationError(
            f"simulate runs baseline controllers only, got {method!r}")
    # a baseline reads no sources, so their MAML settings do not apply
    rows, _ = seed_rows(replace(cfg, method=method, sources=()))
    for r in rows:
        print(f"{cfg.target.name} seed={r['seed']} {method}: "
              f"travel={r['avg_travel_time']:.2f}s "
              f"queue={r['avg_queue_length']:.3f}")
    io.write_csv(Path(cfg.out_dir) / "simulate" / "metrics.csv",
                 io.METRICS_COLUMNS, rows)


def _modular_stages(cfg: ExperimentConfig) -> None:
    """Refuse a method that the collect → meta-train → adapt → evaluate
    chain does not run, before any episode or write."""
    if cfg.method in BASELINE_METHODS:
        raise ConfigurationError(
            f"the stage commands run the modular pipeline; run the "
            f"{cfg.method!r} baseline with `run` or `simulate`")
    if cfg.method == "monolithic":  # one net, trained end to end
        raise ConfigurationError("the monolithic method has no separate "
                                 "stages; run it with `run` or `budget`")


def _cmd_collect(cfg: ExperimentConfig, args) -> None:
    _modular_stages(cfg)
    names = [src.name for src in cfg.sources]
    if len(set(names)) < len(names):
        raise ConfigurationError(
            f"collect writes one dataset per source name; {names} repeat")
    datasets = collect_source_datasets(cfg,
                                       stage_seeds(cfg.seeds[0])["collect"])
    out = Path(cfg.out_dir) / "datasets"
    sha256 = {}
    for ds in datasets:
        path = io.dataset_path(out, ds.city_id)
        io.save_dataset(path, ds)
        sha256[path.name] = io.file_sha256(path)
        print(f"wrote {len(ds)} records to {path}")
    io.write_manifest(out / "manifest.json", cfg.to_json(), cfg.seeds,
                      sha256=sha256)


def _collected_datasets(cfg: ExperimentConfig) -> list:
    """The source datasets that ``collect`` wrote under this config."""
    out = Path(cfg.out_dir) / "datasets"
    paths = [out / "manifest.json",
             *(io.dataset_path(out, src.name) for src in cfg.sources)]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise ConfigurationError(
            f"no collected datasets at {missing}; run collect first")
    manifest = load_json(paths[0])
    if not isinstance(manifest, dict) or \
            not isinstance(manifest.get("sha256"), dict):
        raise ConfigurationError(
            f"{paths[0]} is not the manifest collect writes; run collect "
            f"again")
    if manifest.get("config_digest") != io.config_digest(cfg.to_json()):
        raise ConfigurationError(
            f"the datasets in {out} were collected under another config or "
            f"seed; run collect again")
    for p in paths[1:]:
        if manifest["sha256"].get(p.name) != io.file_sha256(p):
            raise ConfigurationError(
                f"{p} is not the file collect wrote; run collect again")
    return [io.load_dataset(p) for p in paths[1:]]


def _cmd_meta_train(cfg: ExperimentConfig, args) -> None:
    _modular_stages(cfg)
    seed = cfg.seeds[0]
    meta_init = meta_train_stage(cfg, seed, _collected_datasets(cfg))
    path = Path(cfg.out_dir) / "meta" / "initialization.json"
    io.save_checkpoint(path, None, meta_init, provenance={
        "source_cities": [s.name for s in cfg.sources],
        "meta_iters": cfg.maml.meta_iterations, "seed": seed})
    print(f"wrote meta-trained checkpoint to {path}")


def _cmd_adapt(cfg: ExperimentConfig, args) -> None:
    _modular_stages(cfg)
    seed = cfg.seeds[0]
    dyn = io.load_checkpoint(args.checkpoint)["dynamics"]
    net = cfg.target.network
    sizes = default_dynamics_net(net.lanes_per_intersection, net.state_grids,
                                 cfg.dyn_hidden).layer_sizes
    if dyn.net.layer_sizes != sizes:
        raise ConfigurationError(
            f"checkpoint dynamics layer_sizes {list(dyn.net.layer_sizes)} do "
            f"not match target {cfg.target.name!r} with dyn_hidden "
            f"{list(cfg.dyn_hidden)}: {list(sizes)}")
    estimator, dynamics, interactions = adapt_stage(cfg, seed, dyn)
    path = Path(cfg.out_dir) / "adapted" / "checkpoint.json"
    io.save_checkpoint(
        path, estimator, dynamics,
        provenance={"source_cities": [s.name for s in cfg.sources],
                    "meta_iters": cfg.maml.meta_iterations, "seed": seed,
                    "interactions": interactions})
    print(f"consumed {interactions} target episodes; wrote {path}")


def _cmd_evaluate(cfg: ExperimentConfig, args) -> None:
    _modular_stages(cfg)
    ck = io.load_checkpoint(args.checkpoint)
    est, dyn = ck["estimator"], ck["dynamics"]
    if est is None:
        raise ConfigurationError(
            "checkpoint has no estimator; adapt it before evaluating")
    net = cfg.target.network
    target = (cfg.target.schema, net.lanes_per_intersection, net.state_grids)
    found = (est.schema_id, est.lanes, est.state_grids)
    if found != target or (dyn.lanes, dyn.state_grids) != target[1:]:
        raise ConfigurationError(
            f"checkpoint estimator (schema, lanes, state_grids) {found} and "
            f"dynamics (lanes, state_grids) {(dyn.lanes, dyn.state_grids)} "
            f"do not match target {cfg.target.name!r} {target}")
    rows = []
    for seed in cfg.seeds:
        m, _ = evaluate_planner(cfg, est, dyn, seed)
        rows.append(metrics_row(cfg.target, seed, cfg.method, m))
        print(f"seed={seed}: travel={m.avg_travel_time_s:.2f}s "
              f"queue={m.avg_queue_length:.3f}")
    io.write_csv(Path(cfg.out_dir) / "evaluate" / "metrics.csv",
                 io.METRICS_COLUMNS, rows)


def _cmd_run(cfg: ExperimentConfig, args) -> None:
    report = run_main(cfg)
    print(f"method={report.method} mean_travel={report.mean_travel:.2f} "
          f"(std {report.std_travel:.2f}) mean_queue={report.mean_queue:.3f}")


def _cmd_budget(cfg: ExperimentConfig, args) -> None:
    for r in run_budget_table(cfg)["rows"]:
        print(f"{r['method']} budget={r['budget']} seed={r['seed']}: "
              f"travel={r['avg_travel_time']:.2f}")


def _cmd_sweep(cfg: ExperimentConfig, args) -> None:
    widths = _flag_values(args.widths, "--widths", float)
    depths = _flag_values(args.depths, "--depths", int)
    results = run_complexity_sweep(cfg, widths, depths)
    for entry in results:
        print(f"width x{entry['width_scale']} depth {entry['depth']}: "
              f"{entry['param_count']} params, "
              f"travel={entry['mean_travel']:.2f}")


def _cmd_source_matrix(cfg: ExperimentConfig, args) -> None:
    out = run_source_selection(cfg)
    for row in out["matrix"]:
        print(row)


def _cmd_offline(cfg: ExperimentConfig, args) -> None:
    out = run_offline_case(cfg)
    for method, travel in out["mean_travel_by_method"].items():
        print(f"{method}: mean_travel={travel:.2f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridlight",
        description="Grid traffic simulation, modular signal control, and "
                    "the experiment harness around them.")
    parser.add_argument("--config", type=str, default=None,
                        help="experiment config JSON (defaults to the "
                             "built-in desk configuration)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's seed list with one seed")
    parser.add_argument("--out", type=str, default=None,
                        help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    checkpoint = {"--checkpoint": {"required": True}}
    for name, fn, text, options in (
            ("simulate", _cmd_simulate, "run one baseline on the target",
             {"--method": {}}),
            ("collect", _cmd_collect, "collect source-city experience", {}),
            ("meta-train", _cmd_meta_train, "meta-train the dynamics model",
             {}),
            ("adapt", _cmd_adapt, "adapt a meta-trained checkpoint",
             checkpoint),
            ("evaluate", _cmd_evaluate, "evaluate an adapted checkpoint",
             checkpoint),
            ("run", _cmd_run, "full pipeline for the configured method", {}),
            ("budget", _cmd_budget, "every pipeline method after each "
             "budgeted target episode", {}),
            ("sweep", _cmd_sweep, "model complexity sweep",
             {"--widths": {"default": "0.5,1.0"},
              "--depths": {"default": "2,3"}}),
            ("source-matrix", _cmd_source_matrix,
             "single-source transfer matrix", {}),
            ("offline", _cmd_offline, "offline estimator case study", {})):
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options.items():
            p.add_argument(flag, type=str, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(_load_config(args), args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
