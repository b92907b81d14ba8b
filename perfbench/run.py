"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline|simulate|control \
        [--seed 0] [--seconds 30] [--trace 0|1]

Run from the repository root. The program is imported from ``src/``; the
benchmark installs nothing and changes no machine setting. BLAS runs one
thread unless the environment names a count: the load is a single process,
and a second BLAS thread on a two-CPU host only adds scheduling noise. With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer metrics from a separate traced run. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the environment block.
The full result, with sample counts and fingerprints, goes to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``, and a traced
run also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
CONFIRM_SEED = 1
# so that every run's medians are over more than one round
MIN_ROUNDS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# one BLAS thread unless the environment names a count; numpy reads these
# when it loads, which the next import does
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT))
from perfbench import reference as ref  # noqa: E402
END_TO_END_UNITS = {"setup_s": "s", "seed_s": "s", "ticks_per_s": "1/s",
                    "decide_ms_mean": "ms", "travel_s": "s",
                    "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timing_summary(samples: list[float]) -> dict:
    """Median and p99 with the sample count, and the highest percentile
    that has at least ten samples beyond it."""
    n = len(samples)
    p99 = quantile(samples, 0.99)
    tail_pct = max(0.0, 100.0 * (1.0 - 10.0 / n))
    return {"n": n, "p50": quantile(samples, 0.5), "p99": p99,
            "beyond_p99": sum(s > p99 for s in samples),
            "tail_pct": tail_pct,
            "tail": quantile(samples, tail_pct / 100.0)}


class Run:
    """Counts attempted and failed operations; a failing operation is
    reported on stderr and the run continues."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, fn, *args):
        """Run one round; it counts as its ``ops`` operations, or as one
        failed operation when it raises."""
        try:
            result = fn(*args)
        except Exception as exc:  # one failed operation, not the run
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        self.attempted += result.ops
        return result

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check(self, what: str, fn, *args):
        """One re-check operation: ``fn`` must return true."""
        try:
            ok = bool(fn(*args))
        except Exception as exc:  # a failed re-check, not the run
            traceback.print_exc()
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        self.expect(ok, what)


def run_rounds(w, run: Run, seconds: float, tracer=None):
    """Rounds 0, 1, ... for about ``seconds``, and at least
    ``MIN_ROUNDS``: another round starts while it would end nearer the
    deadline than stopping now does, judged by the last round's length.
    Stops early when no round has succeeded yet and one fails. Returns the
    rounds and, per round, the reference marks before and after it."""
    results, marks = [], []
    t0 = time.perf_counter()
    last = 0.0
    while (len(results) < MIN_ROUNDS
           or time.perf_counter() - t0 + last / 2 < seconds):
        if tracer is not None:
            tracer.run_id = len(results)
        r0, m0 = time.perf_counter(), ref.mark()
        results.append(run.op(w.round, len(results), tracer))
        last = time.perf_counter() - r0
        marks.append((m0, ref.mark()))
        if not any(results):
            break
    return results, marks


def run_speed(marks) -> float:
    """The speed factor over all of ``marks``, or measured from a few
    slices now when none ran."""
    whole = ref.speed_factor(marks[0][0], marks[-1][1])
    if whole is None:
        whole = ref.NOMINAL_SLICE_S / statistics.median(
            ref.timed_slice() for _ in range(5))
    return whole


def round_speeds(marks, whole: float) -> list[float]:
    """Each interval's speed factor from the slices that ran during it;
    one that no slice interrupted takes ``whole``."""
    return [ref.speed_factor(a, b) or whole for a, b in marks]


def set_up(w):
    """The workload's repeated set-ups, timed; returns the times and the
    reference marks around them."""
    samples = []
    m0 = ref.mark()
    for _ in range(w.setups):
        t0 = ref.clock()
        w.setup()
        samples.append(ref.clock() - t0)
    return samples, (m0, ref.mark())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pipeline", "simulate", "control"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gridlight" / "__init__.py").is_file():
        print(f"error: program source not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import layers, tracer as tracing, workloads

    env = environment()
    w = workloads.WORKLOADS[args.workload](args.seed)
    run = Run()
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env}
    if args.trace:
        setup_s, _ = set_up(w)
        workloads.warm_up(w.p)
        untraced = run.op(w.round, 0)
        tracer = tracing.Tracer()
        layers.install_plan(tracer, w.p)
        with tracer:
            rounds, _ = run_rounds(w, run, args.seconds, tracer)
        done = [r for r in rounds if r is not None]
        metrics = layers.layer_metrics(tracer.spans, max(1, len(done)))
        if untraced is not None and rounds[0] is not None:
            run.expect(rounds[0].fingerprint == untraced.fingerprint,
                       "traced round 0 differs from the untraced one")
            metrics["trace.overhead_frac"] = (
                rounds[0].wall_s / untraced.wall_s - 1.0)
        if done and "interactions" in done[0].details:
            metrics["meta.interactions"] = done[0].details["interactions"]
            metrics["meta.heldout_dist"] = done[0].details["heldout_dist"]
        result["spans"] = len(tracer.spans)
        write_spans(args, tracer.spans)
    else:
        with ref.Interleave():
            setup_s, setup_marks = set_up(w)
            workloads.warm_up(w.p)
            rounds, marks = run_rounds(w, run, args.seconds)
        whole = run_speed(marks)
        speeds = round_speeds(marks, whole)
        setup_speed = round_speeds([setup_marks], whole)[0]
        done = [r for r in rounds if r is not None]
        if rounds[0] is not None and hasattr(w, "recheck"):
            run.check("re-run of a round-0 operation differs",
                      w.recheck, 0, rounds[0])
        metrics = {}
        if done:
            # times at the reference speed: a round scaled by its own
            # factor, a decision by the one just before it
            scaled = [(r, f) for r, f in zip(rounds, speeds) if r is not None]
            decide = [s * (g or f) for r, f in scaled for s, g in r.decide_s]
            summary = timing_summary(decide)
            metrics = {
                "setup_s": statistics.median(setup_s) * setup_speed,
                "seed_s": statistics.median(r.wall_s * f for r, f in scaled),
                "ticks_per_s": statistics.median(r.ticks / (r.wall_s * f)
                                                 for r, f in scaled),
                "decide_ms_mean": 1e3 * statistics.fmean(decide),
            }
            result["decide_samples"] = summary
            result["wall_metrics"] = {
                "setup_s": statistics.median(setup_s),
                "seed_s": statistics.median(r.wall_s for r in done),
                "ticks_per_s": statistics.median(r.ticks / r.wall_s
                                                 for r in done),
                "decide_ms_mean": 1e3 * statistics.fmean(
                    s for r in done for s, _ in r.decide_s),
            }
        busy, slices = ref.mark()
        result["reference"] = {
            "period_s": ref.PERIOD_S, "nominal_slice_s": ref.NOMINAL_SLICE_S,
            "slices": slices, "slice_mean_s": busy / max(1, slices),
            "setup_speed": setup_speed, "round_speed": speeds}
        if rounds[0] is not None:
            metrics["travel_s"] = rounds[0].travel_s
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update({
        "setup_s_samples": setup_s,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s if r else None for r in rounds],
        "fingerprint": rounds[0].fingerprint if rounds[0] else None,
        "round_fingerprints": [r.fingerprint if r else None for r in rounds],
        "round_details": [r.details if r else None for r in rounds],
        "failures": run.failures,
        "metrics": metrics,
    })
    write_result(args, result)

    units = layers.per_layer_units() if args.trace else END_TO_END_UNITS
    line = {
        "correct": run.failed == 0 and bool(done),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps({"environment": env}))
    print(json.dumps(line))
    return 0 if done else 1


def _out_dir() -> Path:
    out = ROOT / "perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_result(args, result: dict) -> None:
    path = _out_dir() / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")


def write_spans(args, spans) -> None:
    path = _out_dir() / f"{args.workload}-seed{args.seed}-spans.json"
    path.write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent, s.run_id, s.attrs]
         for s in spans], separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
