"""Tests of the benchmark's span tracer, layer metrics and metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import compare, layers, reference, run, workloads
from perfbench.tracer import Span, Tracer, covered_length, self_times

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent=-1, **attrs):
    return Span(name, start, end, parent, 0, attrs)


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (5, 6)]) == 3.0
    assert covered_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert covered_length([(3, 6), (0, 4)]) == 6.0


def test_self_time_subtracts_covered_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),       # overlaps a by 1
        _span("c", 8.0, 12.0, parent=0),      # runs past the parent's end
        _span("a.inner", 1.5, 2.5, parent=1),
    ]
    selfs = self_times(spans)
    # root: 10 - |[1,6] u [8,10]| = 10 - 7
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def _toy_module():
    mod = types.ModuleType("toy")

    class Box:
        def get(self, x):
            return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def inner(x):
        return Box().get(x)

    mod.Box, mod.outer, mod.inner = Box, outer, inner
    return mod


def test_wrappers_exist_only_inside_the_block():
    mod = _toy_module()
    originals = (mod.outer, mod.inner, mod.Box.__dict__["get"])
    t = Tracer()
    t.patch(mod, "outer", lambda f: t.wrapper(f, "outer"))
    t.patch(mod, "inner", lambda f: t.wrapper(f, "inner"))
    t.patch(mod.Box, "get", lambda f: t.wrapper(f, "get"))
    assert (mod.outer, mod.inner, mod.Box.__dict__["get"]) == originals

    with t:
        assert all(getattr(f, "__traced__", False)
                   for f in (mod.outer, mod.inner, mod.Box.get))
        assert mod.outer(1) == 4
    assert (mod.outer, mod.inner, mod.Box.__dict__["get"]) == originals
    assert [s.name for s in t.spans] == ["outer", "inner", "get"]
    assert [s.parent for s in t.spans] == [-1, 0, 1]

    mod.outer(1)
    assert len(t.spans) == 3


def test_wrappers_are_removed_when_the_block_raises():
    mod = _toy_module()
    original = mod.inner
    t = Tracer()
    t.patch(mod, "inner", lambda f: t.wrapper(f, "inner"))
    with pytest.raises(TypeError):
        with t:
            mod.inner("x")
    assert mod.inner is original
    assert t.spans[0].end >= t.spans[0].start


def _loaded_program():
    # the modules this test process already imported; no fresh import
    p = types.SimpleNamespace()
    for attr, name in workloads.PROGRAM_MODULES.items():
        setattr(p, attr, importlib.import_module(name))
    return p


def _planned_targets(t: Tracer):
    return [(owner, attr) for owner, attr, _ in t._plan]


def test_layer_plan_installs_and_restores_every_wrapper():
    p = _loaded_program()
    t = Tracer()
    layers.install_plan(t, p)
    targets = _planned_targets(t)
    before = [getattr(o, a) for o, a in targets]
    assert not any(getattr(f, "__traced__", False) for f in before)
    with t:
        assert all(getattr(getattr(o, a), "__traced__", False)
                   for o, a in targets)
        cfg = p.harness.default_experiment()
        sim = cfg.target.make(0)
        p.meta.run_episode(sim, p.baselines.MaxPressureController(), 2,
                           cfg.target.interval_s)
    after = [getattr(o, a) for o, a in targets]
    assert all(x is y for x, y in zip(before, after))
    names = {s.name for s in t.spans}
    assert {"meta.run_episode", "sim.step", "sim.movement_queues",
            "baselines.decide.max_pressure", "sim.reset"} <= names


def test_phases_and_stages_from_a_pipeline_span_tree():
    s = [
        _span("bench.seed", 0.0, 100.0),
        _span("harness.collect_source_datasets", 0.0, 40.0, parent=0),
        _span("harness.collect_experience", 0.0, 40.0, parent=1),
        _span("meta.collect_experience", 0.0, 40.0, parent=2),
        _span("meta.run_episode", 0.0, 40.0, parent=3, records=10),
        _span("harness.maml_train", 40.0, 50.0, parent=0),
        _span("meta.maml_train", 40.0, 50.0, parent=5, outer_steps=50),
        _span("harness.adapt", 50.0, 90.0, parent=0),
        _span("meta.adapt", 50.0, 90.0, parent=7),
        _span("meta.run_episode", 50.0, 60.0, parent=8, records=6),
        _span("nn.loss_and_grad", 60.0, 70.0, parent=8, role="dynamics",
              rows=128),
        _span("harness.run_episode", 90.0, 95.0, parent=0),
        _span("meta.run_episode", 90.0, 95.0, parent=11, records=0),
        _span("harness.collect_experience", 95.0, 98.0, parent=0),
        _span("meta.collect_experience", 95.0, 98.0, parent=13),
        _span("meta.run_episode", 95.0, 98.0, parent=14, records=6),
        _span("harness.dynamics_error", 98.0, 99.0, parent=0),
        _span("meta.dynamics_error", 98.0, 99.0, parent=16),
    ]
    m = layers.layer_metrics(s, rounds=1)
    assert m["harness.phase.collect_s"] == 40.0
    assert m["harness.phase.meta_train_s"] == 10.0
    assert m["harness.phase.adapt_s"] == 40.0
    assert m["harness.phase.evaluate_s"] == 5.0
    assert m["harness.phase.heldout_s"] == 4.0
    assert m["harness.phase.covered_frac"] == pytest.approx(0.99)
    for stage in ("collect", "adapt", "evaluate", "heldout"):
        assert m[f"meta.run_episode.calls.{stage}"] == 1
    assert m["meta.run_episode.calls.direct"] == 0
    assert m["meta.records"] == 22
    assert m["meta.maml.outer_steps"] == 50
    assert m["meta.adapt.self_s"] == pytest.approx(20.0)
    assert m["meta.adapt.grad_steps"] == 1
    assert m["nn.loss_and_grad.calls.dynamics.b128"] == 1


def test_explore_fraction_counts_selections_without_an_estimate():
    s = [
        _span("planner.select_action", 0.0, 1.0),
        _span("planner.estimate", 0.1, 0.2, parent=0),
        _span("planner.select_action", 1.0, 1.1),
    ]
    m = layers.layer_metrics(s, rounds=1)
    assert m["planner.select_action.explore_frac"] == 0.5


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == layers.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_clock_leaves_out_reference_slices():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Interleave(period_s=0.01):
        m0, c0, w0 = reference.mark(), reference.clock(), time.perf_counter()
        while reference.mark()[1] - m0[1] < 3:
            pass
        m1, c1, w1 = reference.mark(), reference.clock(), time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    busy, n = m1[0] - m0[0], m1[1] - m0[1]
    assert busy > 0
    assert c1 - c0 == pytest.approx(w1 - w0 - busy, abs=1e-3)
    assert reference.speed_factor(m0, m1) == pytest.approx(
        reference.NOMINAL_SLICE_S * n / busy)
    assert reference.speed_factor(m1, m1) is None


def test_round_speeds_fall_back_to_the_whole_run():
    marks = [((0.0, 0), (0.14, 2)), ((0.14, 2), (0.14, 2))]
    whole = run.run_speed(marks)
    assert whole == pytest.approx(reference.NOMINAL_SLICE_S / 0.07)
    assert run.round_speeds(marks, whole) == pytest.approx([whole, whole])


def test_timing_summary_tail():
    s = run.timing_summary([float(i) for i in range(1, 101)])
    assert s["n"] == 100 and s["p50"] == pytest.approx(50.5)
    assert s["tail_pct"] == pytest.approx(90.0)
    assert s["beyond_p99"] == 1


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.CONFIRM_SEED])
def test_control_reports_every_end_to_end_metric(seed):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "control", "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)


def test_compare_reports_common_rounds():
    a = {"workload": "control", "seed": 0, "round_fingerprints": ["f0", "f1"]}
    b = {"workload": "control", "seed": 0,
         "round_fingerprints": ["f0", "f1", "f2"]}
    assert compare.compare(a, b)[-1].endswith("fingerprints same")
    b["round_fingerprints"][1] = "x"
    assert compare.compare(a, b)[-1].endswith("fingerprints differ")
    b["seed"] = 1
    assert compare.compare(a, b)[-1].startswith("differ")
