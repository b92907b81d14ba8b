"""Command-line interface.

Subcommands: simulate, collect, meta-train, adapt, evaluate, ablation,
sweep, source-matrix, offline, curve. Global flags --config/--seed/--out.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigurationError
from .harness import io
from .harness.config import (
    BASELINE_METHODS,
    PIPELINE_METHODS,
    ExperimentConfig,
    default_experiment,
)
from .harness.runners import (
    adapt_stage,
    collect_source_datasets,
    evaluate_planner,
    meta_train_stage,
    metrics_row,
    run_ablation,
    run_complexity_sweep,
    run_data_volume_curve,
    run_main,
    run_offline_case,
    run_source_selection,
    seed_rows,
    stage_seeds,
)
from .planner import DynamicsModel, default_dynamics_net


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.load(args.config)
    else:
        cfg = default_experiment()
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    cfg.validate()
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    method = args.method or cfg.method
    if method not in BASELINE_METHODS:
        raise ConfigurationError(
            f"simulate runs baseline controllers only, got {method!r}")
    rows, _ = seed_rows(cfg.with_method(method))
    for r in rows:
        print(f"{cfg.target.name} seed={r['seed']} {method}: "
              f"travel={r['avg_travel_time']:.2f}s "
              f"queue={r['avg_queue_length']:.3f}")
    io.write_csv(Path(cfg.out_dir) / "simulate" / "metrics.csv",
                 io.METRICS_COLUMNS, rows)
    return 0


def _cmd_collect(args) -> int:
    cfg = _load_config(args)
    datasets = collect_source_datasets(cfg,
                                       stage_seeds(cfg.seeds[0])["collect"])
    out = Path(cfg.out_dir) / "datasets"
    sha256 = {}
    for ds in datasets:
        path = out / f"{ds.city_id}.jsonl"
        io.save_dataset(path, ds)
        sha256[path.name] = io.file_sha256(path)
        print(f"wrote {len(ds)} records to {path}")
    io.write_manifest(out / "manifest.json", cfg.to_json(), cfg.seeds,
                      sha256=sha256)
    return 0


def _collected_datasets(cfg: ExperimentConfig) -> list:
    """The source datasets that ``collect`` wrote under this config."""
    out = Path(cfg.out_dir) / "datasets"
    paths = [out / "manifest.json",
             *(out / f"{src.name}.jsonl" for src in cfg.sources)]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise ConfigurationError(
            f"no collected datasets at {missing}; run collect first")
    damaged = f"{paths[0]} is not the manifest collect writes"
    try:
        manifest = json.loads(paths[0].read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigurationError(f"{damaged}: {exc}") from exc
    if not isinstance(manifest, dict) or \
            not isinstance(manifest.get("sha256"), dict):
        raise ConfigurationError(f"{damaged}; run collect again")
    if manifest.get("config_digest") != io.config_digest(cfg.to_json()):
        raise ConfigurationError(
            f"the datasets in {out} were collected under another config or "
            f"seed; run collect again")
    for p in paths[1:]:
        if manifest["sha256"].get(p.name) != io.file_sha256(p):
            raise ConfigurationError(
                f"{p} is not the file collect wrote; run collect again")
    return [io.load_dataset(p) for p in paths[1:]]


def _cmd_meta_train(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    g0, phi = meta_train_stage(cfg, seed, _collected_datasets(cfg))
    path = Path(cfg.out_dir) / "meta" / "initialization.json"
    io.save_checkpoint(
        path, None, DynamicsModel(g0.net.with_params(phi), g0.lanes,
                                  g0.state_grids),
        provenance={"source_cities": [s.name for s in cfg.sources],
                    "meta_iters": cfg.maml.meta_iterations, "seed": seed})
    print(f"wrote meta-trained checkpoint to {path}")
    return 0


def _cmd_adapt(args) -> int:
    cfg = _load_config(args)
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
    estimator, dynamics, interactions = adapt_stage(cfg, seed,
                                                    dyn.net.params)
    path = Path(cfg.out_dir) / "adapted" / "checkpoint.json"
    io.save_checkpoint(
        path, estimator, dynamics,
        provenance={"source_cities": [s.name for s in cfg.sources],
                    "meta_iters": cfg.maml.meta_iterations, "seed": seed,
                    "interactions": interactions})
    print(f"consumed {interactions} target episodes; wrote {path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
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
        m = evaluate_planner(cfg, est, dyn, seed)
        rows.append(metrics_row(cfg.target, seed, "modular", m))
        print(f"seed={seed}: travel={m.avg_travel_time_s:.2f}s "
              f"queue={m.avg_queue_length:.3f}")
    io.write_csv(Path(cfg.out_dir) / "evaluate" / "metrics.csv",
                 io.METRICS_COLUMNS, rows)
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run_main(cfg)
    print(f"method={report.method} mean_travel={report.mean_travel:.2f} "
          f"(std {report.std_travel:.2f}) mean_queue={report.mean_queue:.3f}")
    return 0


def _cmd_ablation(args) -> int:
    cfg = _load_config(args)
    if cfg.method not in PIPELINE_METHODS:
        cfg = cfg.with_method("modular")
    reports = run_ablation(cfg)
    for method, rep in reports.items():
        print(f"{method}: mean_travel={rep.mean_travel:.2f} "
              f"(std {rep.std_travel:.2f})")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    widths = tuple(float(w) for w in args.widths.split(","))
    depths = tuple(int(d) for d in args.depths.split(","))
    results = run_complexity_sweep(cfg, widths, depths)
    for entry in results:
        print(f"width x{entry['width_scale']} depth {entry['depth']}: "
              f"{entry['param_count']} params, "
              f"travel={entry['mean_travel']:.2f}")
    return 0


def _cmd_source_matrix(args) -> int:
    cfg = _load_config(args)
    out = run_source_selection(cfg)
    for row in out["matrix"]:
        print(row)
    return 0


def _cmd_offline(args) -> int:
    cfg = _load_config(args)
    out = run_offline_case(cfg)
    for method, travel in out["mean_travel_by_method"].items():
        print(f"{method}: mean_travel={travel:.2f}")
    return 0


def _cmd_curve(args) -> int:
    cfg = _load_config(args)
    fractions = tuple(float(f) for f in args.fractions.split(","))
    rows = run_data_volume_curve(cfg, fractions)
    for r in rows:
        print(f"fraction={r['fraction']} seed={r['seed']}: "
              f"travel={r['travel_time']:.2f}")
    return 0


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

    p = sub.add_parser("simulate", help="run one baseline on the target")
    p.add_argument("--method", type=str, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("collect", help="collect source-city experience")
    p.set_defaults(fn=_cmd_collect)

    p = sub.add_parser("meta-train", help="meta-train the dynamics model")
    p.set_defaults(fn=_cmd_meta_train)

    p = sub.add_parser("adapt", help="adapt a meta-trained checkpoint")
    p.add_argument("--checkpoint", type=str, required=True)
    p.set_defaults(fn=_cmd_adapt)

    p = sub.add_parser("evaluate", help="evaluate an adapted checkpoint")
    p.add_argument("--checkpoint", type=str, required=True)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline for the configured method")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("ablation", help="modular vs ablated variants")
    p.set_defaults(fn=_cmd_ablation)

    p = sub.add_parser("sweep", help="model complexity sweep")
    p.add_argument("--widths", type=str, default="0.5,1.0")
    p.add_argument("--depths", type=str, default="2,3")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("source-matrix", help="single-source transfer matrix")
    p.set_defaults(fn=_cmd_source_matrix)

    p = sub.add_parser("offline", help="offline estimator case study")
    p.set_defaults(fn=_cmd_offline)

    p = sub.add_parser("curve", help="travel time vs interaction budget")
    p.add_argument("--fractions", type=str, default="0.25,0.5,1.0")
    p.set_defaults(fn=_cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
