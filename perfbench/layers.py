"""Where the traced run puts its spans, and the per-layer metrics it derives
from them.

Spans are named ``<layer>.<function>``. Functions that ``harness.runners``
imports from ``gridlight.meta`` get a second, outer span named
``harness.<function>`` at that binding, so a call made by the pipeline's
stage wiring is told apart from the same function called inside ``meta``.
"""

from __future__ import annotations

import functools
import statistics

from .tracer import Span, Tracer, self_times

SCENARIO_OF_SCHEMA = {"SCHEMA_A": "city-a", "SCHEMA_B": "city-b",
                      "SCHEMA_C": "city-c", "BASE": "saturated"}
BASELINE_CLASSES = {"FixedTimeController": "fixed_time",
                    "SotlController": "sotl",
                    "MaxPressureController": "max_pressure",
                    "RandomController": "random",
                    "EpsilonMixController": "epsilon_mix"}
META_FUNCTIONS = ("run_episode", "collect_experience", "maml_train", "adapt",
                  "dynamics_error")
# harness.<function> spans directly under a pipeline seed, by phase
PHASES = {"collect_source_datasets": "collect", "maml_train": "meta_train",
          "adapt": "adapt", "run_episode": "evaluate",
          "collect_experience": "heldout", "dynamics_error": "heldout"}
STAGES = ("collect", "adapt", "evaluate", "heldout", "direct")
NET_ROLES = ("dynamics", "estimator")
# (role, batch rows) keys of nn.loss_and_grad; other batches -> <role>.other
GRAD_BATCHES = (("dynamics", 128), ("dynamics", 256), ("estimator", 1536))


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return shape[0] if shape is not None and len(shape) == 2 else 1


def net_role(sizes, n_phases: int) -> str:
    """Dynamics nets map (state, phase one-hot) to the next state, so their
    input is the output plus one column per phase."""
    return "dynamics" if sizes[0] == sizes[-1] + n_phases else "estimator"


def install_plan(tracer: Tracer, p) -> None:
    """Plan wrappers around the public layer functions of program ``p``
    (a ``workloads.Program``)."""
    wrap = tracer.wrapper
    n_phases = len(p.sim.PHASE_IDS)

    def net_attrs(args, kwargs):
        net = args[0]
        return {"role": net_role(net.layer_sizes, n_phases),
                "rows": _rows(args[1])}

    # nn
    tracer.patch(p.nn, "forward",
                 lambda f: wrap(f, "nn.forward", before=net_attrs))
    tracer.patch(p.nn, "loss_and_grad", lambda f: wrap(
        f, "nn.loss_and_grad",
        before=lambda a, k: {"role": net_role(a[0].layer_sizes, n_phases),
                             "rows": _rows(a[2])}))
    tracer.patch(p.nn.Adam, "step", lambda f: wrap(f, "nn.adam_step"))
    tracer.patch(p.nn.Net, "with_params", lambda f: wrap(f, "nn.with_params"))

    # sim
    def step_before(args, kwargs):
        sim = args[0]
        ticks = args[2] if len(args) > 2 else kwargs.get("interval_s", 20)
        return {"scenario": SCENARIO_OF_SCHEMA.get(sim.schema, sim.schema),
                "ticks": ticks}

    def step_after(span, result, args):
        span.attrs["on_network"] = args[0].vehicles_on_network

    tracer.patch(p.sim.Sim, "step", lambda f: wrap(
        f, "sim.step", before=step_before, after=step_after))
    for method in ("snapshot", "movement_queues", "waiting_counts",
                   "metrics"):
        tracer.patch(p.sim.Sim, method,
                     lambda f, m=method: wrap(f, f"sim.{m}"))
    for module in (p.engine, p.sim, p.scenario):
        tracer.patch(module, "reset", lambda f: wrap(f, "sim.reset"))

    # baselines
    for cls, method in BASELINE_CLASSES.items():
        tracer.patch(getattr(p.baselines, cls), "decide",
                     lambda f, m=method: wrap(f, f"baselines.decide.{m}"))

    # planner
    tracer.patch(p.planner.PlannerController, "decide",
                 lambda f: wrap(f, "planner.decide"))
    tracer.patch(p.planner, "select_action",
                 lambda f: wrap(f, "planner.select_action"))
    tracer.patch(p.planner.StateEstimator, "estimate",
                 lambda f: wrap(f, "planner.estimate"))
    tracer.patch(p.planner.DynamicsModel, "predict_flat", lambda f: wrap(
        f, "planner.predict_flat",
        before=lambda a, k: {"rows": _rows(a[1])}))

    def traced_loss_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return wrap(factory(*args, **kwargs), "planner.loss")

        make.__traced__ = True
        return make

    for name in ("block_distance_loss", "rowwise_block_distance_loss"):
        for module in (p.planner, p.meta):
            tracer.patch(module, name, traced_loss_factory)

    # meta, then the names harness.runners imports from it
    def records_after(span, result, args):
        span.attrs["records"] = len(result[1])

    meta_hooks = {
        "run_episode": {"after": records_after},
        "maml_train": {"before": lambda a, k: {
            "outer_steps": a[1].meta_iterations}},
    }
    for fn in META_FUNCTIONS:
        tracer.patch(p.meta, fn, lambda f, fn=fn: wrap(
            f, f"meta.{fn}", **meta_hooks.get(fn, {})))
    for fn in META_FUNCTIONS:
        tracer.patch(p.runners, fn, lambda f, fn=fn: wrap(
            getattr(p.meta, fn), f"harness.{fn}"))
    tracer.patch(p.runners, "collect_source_datasets",
                 lambda f: wrap(f, "harness.collect_source_datasets"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    u = {"sim.step.calls": "count", "sim.step.self_s": "s",
         "sim.step.ms_p50": "ms", "sim.snapshot.s": "s",
         "sim.movement_queues.calls": "count", "sim.movement_queues.s": "s",
         "sim.waiting_counts.s": "s", "sim.reset.s": "s", "sim.metrics.s": "s"}
    for sc in SCENARIO_OF_SCHEMA.values():
        u[f"sim.ticks_per_s.{sc}"] = "1/s"
        u[f"sim.on_network_mean.{sc}"] = "vehicles"
    for m in BASELINE_CLASSES.values():
        u[f"baselines.decide.self_s.{m}"] = "s"
    u.update({"planner.decide.calls": "count", "planner.decide.self_s": "s",
              "planner.decide.ms_p50": "ms", "planner.decide.ms_p99": "ms",
              "planner.select_action.calls": "count",
              "planner.select_action.explore_frac": "ratio",
              "planner.estimate.s": "s", "planner.predict_flat.calls": "count",
              "planner.predict_flat.s": "s",
              "planner.predict_flat.rows_mean": "rows", "planner.loss.s": "s"})
    for role in NET_ROLES:
        u[f"nn.forward.calls.{role}"] = "count"
        u[f"nn.forward.s.{role}"] = "s"
        u[f"nn.forward.rows_mean.{role}"] = "rows"
    for key in _grad_keys():
        u[f"nn.loss_and_grad.calls.{key}"] = "count"
        u[f"nn.loss_and_grad.s.{key}"] = "s"
    u.update({"nn.adam_step.calls": "count", "nn.adam_step.s": "s",
              "nn.with_params.calls": "count", "nn.with_params.s": "s"})
    for stage in STAGES:
        u[f"meta.run_episode.calls.{stage}"] = "count"
        u[f"meta.run_episode.s.{stage}"] = "s"
    u.update({"meta.collect_experience.s": "s", "meta.records": "count",
              "meta.maml_train.s": "s", "meta.maml.outer_steps": "count",
              "meta.adapt.s": "s", "meta.adapt.self_s": "s",
              "meta.adapt.grad_steps": "count", "meta.dynamics_error.s": "s",
              "meta.interactions": "count", "meta.heldout_dist": "1"})
    for phase in dict.fromkeys(PHASES.values()):
        u[f"harness.phase.{phase}_s"] = "s"
    u["harness.phase.covered_frac"] = "ratio"
    u["trace.overhead_frac"] = "ratio"
    return u


def _grad_keys() -> list[str]:
    keys = [f"{role}.b{rows}" for role, rows in GRAD_BATCHES]
    return keys + [f"{role}.other" for role in NET_ROLES]


def _grad_key(span: Span) -> str:
    role, rows = span.attrs["role"], span.attrs["rows"]
    return (f"{role}.b{rows}" if (role, rows) in GRAD_BATCHES
            else f"{role}.other")


def _ancestor(spans: list[Span], i: int, prefix: str) -> int:
    """Nearest ancestor of span i whose name starts with prefix, or -1."""
    j = spans[i].parent
    while j >= 0 and not spans[j].name.startswith(prefix):
        j = spans[j].parent
    return j


def _stage(spans: list[Span], i: int) -> str:
    """Pipeline stage of a meta.run_episode span, from its nearest
    harness span; "direct" when the benchmark called it."""
    j = _ancestor(spans, i, "harness.")
    if j < 0:
        return "direct"
    fn = spans[j].name.split(".", 1)[1]
    if fn == "collect_experience":
        # inside collect_source_datasets it collects, else it is held out
        return "collect" if _ancestor(spans, j, "harness.") >= 0 else "heldout"
    return PHASES[fn]


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round, from the spans of ``rounds``
    rounds. Counts and seconds are totals divided by ``rounds``; means,
    medians and fractions are over all spans. Layers that did not run
    report 0."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in per_layer_units()}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(ids):
        return sum(spans[i].duration for i in ids) / rounds

    def own(ids):
        return sum(selfs[i] for i in ids) / rounds

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    # sim
    steps = idx("sim.step")
    out["sim.step.calls"] = len(steps) / rounds
    out["sim.step.self_s"] = own(steps)
    if steps:
        out["sim.step.ms_p50"] = 1e3 * statistics.median(
            spans[i].duration for i in steps)
    for m in ("snapshot", "movement_queues", "waiting_counts", "reset",
              "metrics"):
        out[f"sim.{m}.s"] = busy(idx(f"sim.{m}"))
    out["sim.movement_queues.calls"] = len(idx("sim.movement_queues")) / rounds
    for sc in SCENARIO_OF_SCHEMA.values():
        ids = [i for i in steps if spans[i].attrs["scenario"] == sc]
        wall = sum(spans[i].duration for i in ids)
        if wall > 0:
            out[f"sim.ticks_per_s.{sc}"] = sum(
                spans[i].attrs["ticks"] for i in ids) / wall
        out[f"sim.on_network_mean.{sc}"] = mean(
            [spans[i].attrs["on_network"] for i in ids])

    # baselines
    for m in BASELINE_CLASSES.values():
        out[f"baselines.decide.self_s.{m}"] = own(idx(f"baselines.decide.{m}"))

    # planner
    decides = idx("planner.decide")
    out["planner.decide.calls"] = len(decides) / rounds
    out["planner.decide.self_s"] = own(decides)
    if decides:
        ms = [1e3 * spans[i].duration for i in decides]
        out["planner.decide.ms_p50"] = statistics.median(ms)
        out["planner.decide.ms_p99"] = statistics.quantiles(
            ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0]
    selects = idx("planner.select_action")
    out["planner.select_action.calls"] = len(selects) / rounds
    if selects:
        estimated = {spans[i].parent for i in idx("planner.estimate")}
        out["planner.select_action.explore_frac"] = sum(
            i not in estimated for i in selects) / len(selects)
    out["planner.estimate.s"] = busy(idx("planner.estimate"))
    preds = idx("planner.predict_flat")
    out["planner.predict_flat.calls"] = len(preds) / rounds
    out["planner.predict_flat.s"] = busy(preds)
    out["planner.predict_flat.rows_mean"] = mean(
        [spans[i].attrs["rows"] for i in preds])
    out["planner.loss.s"] = busy(idx("planner.loss"))

    # nn
    for role in NET_ROLES:
        ids = [i for i in idx("nn.forward") if spans[i].attrs["role"] == role]
        out[f"nn.forward.calls.{role}"] = len(ids) / rounds
        out[f"nn.forward.s.{role}"] = busy(ids)
        out[f"nn.forward.rows_mean.{role}"] = mean(
            [spans[i].attrs["rows"] for i in ids])
    for i in idx("nn.loss_and_grad"):
        key = _grad_key(spans[i])
        out[f"nn.loss_and_grad.calls.{key}"] += 1 / rounds
        out[f"nn.loss_and_grad.s.{key}"] += spans[i].duration / rounds
    for m in ("adam_step", "with_params"):
        out[f"nn.{m}.calls"] = len(idx(f"nn.{m}")) / rounds
        out[f"nn.{m}.s"] = busy(idx(f"nn.{m}"))

    # meta
    for i in idx("meta.run_episode"):
        stage = _stage(spans, i)
        out[f"meta.run_episode.calls.{stage}"] += 1 / rounds
        out[f"meta.run_episode.s.{stage}"] += spans[i].duration / rounds
    out["meta.records"] = sum(spans[i].attrs["records"]
                              for i in idx("meta.run_episode")) / rounds
    for fn in ("collect_experience", "maml_train", "adapt", "dynamics_error"):
        out[f"meta.{fn}.s"] = busy(idx(f"meta.{fn}"))
    out["meta.maml.outer_steps"] = sum(
        spans[i].attrs["outer_steps"] for i in idx("meta.maml_train")) / rounds
    adapts = idx("meta.adapt")
    out["meta.adapt.self_s"] = own(adapts)
    out["meta.adapt.grad_steps"] = sum(
        _ancestor(spans, i, "meta.adapt") >= 0
        for i in idx("nn.loss_and_grad")) / rounds

    # harness phases, directly under each bench.seed span
    seeds = set(idx("bench.seed"))
    phase_total = 0.0
    for name, ids in by_name.items():
        fn = name.split(".", 1)[1]
        if name.startswith("harness.") and fn in PHASES:
            t = sum(spans[i].duration for i in ids if spans[i].parent in seeds)
            out[f"harness.phase.{PHASES[fn]}_s"] += t / rounds
            phase_total += t
    seed_wall = sum(spans[i].duration for i in seeds)
    if seed_wall > 0:
        out["harness.phase.covered_frac"] = phase_total / seed_wall
    return out
