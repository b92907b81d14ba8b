"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

The heavy end-to-end pipeline (criteria 6, 8, 10) runs once per module via a
shared fixture at the standard desk configuration: two source cities with
SCHEMA_A/SCHEMA_B sensors, SCHEMA_C target, 20 source episodes per city,
5 target episodes, 3 seeds. Budget-table and transfer-matrix harness
checks (criterion 9) use trimmed budgets; their directional comparisons
are recorded as informational, not blocking, since three desk-scale seeds
cannot certify them.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from gridlight import nn
from gridlight.baselines import FixedTimeController
from gridlight.harness.config import default_experiment, saturated_city
from gridlight.harness.runners import (
    BUDGET_METHODS,
    baseline_controller,
    evaluate_controller,
    modular_pipeline,
    run_budget_table,
    run_source_selection,
)
from gridlight.meta import (
    MamlConfig,
    collect_experience,
    maml_run,
    offline_train_repr,
    run_episode,
)
from gridlight.planner import (
    DistanceConfig,
    PlannerController,
    PolicyConfig,
    ValueConfig,
    block_distance_loss,
    state_distance,
    trajectory_value,
)
from gridlight.scenario import EnvFactory


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- independent brute-force oracles -----------------------------------------

def value_bruteforce(states, horizon, g1, g2, n_grids, n_pass):
    total = 0.0
    for i in range(horizon + 1):
        for j in range(n_grids // n_pass):
            block = 0.0
            for lane in range(len(states[i])):
                for col in range(j * n_pass, (j + 1) * n_pass):
                    block += states[i][lane][col]
            total += (g1 ** i) * (g2 ** j) * block
    return -total


def dist_bruteforce(s1, s2, beta, n_grids, n_pass):
    total = 0.0
    for j in range(n_grids // n_pass):
        b1 = b2 = 0.0
        for lane in range(len(s1)):
            for col in range(j * n_pass, (j + 1) * n_pass):
                b1 += s1[lane][col]
                b2 += s2[lane][col]
        total += (beta ** j) * (b1 - b2) ** 2
    return total


def test_criterion_1_value_dist_oracle_equivalence():
    t0 = time.perf_counter()
    # frozen hand cases first
    ok = True
    v1 = trajectory_value([np.array([[1.0, 2.0, 3.0, 4.0]])],
                          ValueConfig(0, 0.9, 0.5, 4, 2))
    s = np.array([[1.0, 2.0, 3.0, 4.0]])
    v2 = trajectory_value([s, s], ValueConfig(1, 0.9, 0.5, 4, 2))
    d1 = state_distance([[2.0, 0.0]], [[0.0, 1.0]], DistanceConfig(0.5, 2, 1))
    ok &= abs(v1 - (-6.5)) <= 1e-12
    ok &= abs(v2 - (-12.35)) <= 1e-12 * 12.35
    ok &= abs(d1 - 4.5) <= 1e-12

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n_pass = int(rng.choice([2, 4]))
        n_grids = n_pass * int(rng.integers(1, 16 // n_pass + 1))
        lanes = int(rng.integers(1, 13))
        horizon = int(rng.integers(0, 3))
        g1, g2, beta = rng.uniform(0, 1, size=3)
        states = rng.integers(0, 5, size=(horizon + 1, lanes, n_grids)).astype(float)
        vc = ValueConfig(horizon, g1, g2, n_grids, n_pass)
        got_v = trajectory_value(states, vc)
        want_v = value_bruteforce(states, horizon, g1, g2, n_grids, n_pass)
        s2 = rng.integers(0, 5, size=(lanes, n_grids)).astype(float)
        dc = DistanceConfig(beta, n_grids, n_pass)
        got_d = state_distance(states[0], s2, dc)
        want_d = dist_bruteforce(states[0], s2, beta, n_grids, n_pass)
        for got, want in ((got_v, want_v), (got_d, want_d)):
            scale = max(1.0, abs(want))
            worst = max(worst, abs(got - want) / scale)
    elapsed = time.perf_counter() - t0
    ok &= worst <= 1e-12 and elapsed < 5.0
    report(1, ok, f"1000 random instances, max rel err {worst:.2e}, "
                  f"hand cases exact, {elapsed:.2f}s")


def test_criterion_2_blur_invariance():
    rng = np.random.default_rng(7)
    vc = ValueConfig(0, 0.9, 0.8, 12, 4)
    dc = DistanceConfig(0.8, 12, 4)
    ref = rng.integers(0, 5, size=(8, 12)).astype(float)
    exact = True
    for _ in range(500):
        s = rng.integers(1, 4, size=(8, 12)).astype(float)
        lane = int(rng.integers(8))
        block = int(rng.integers(3))
        src = block * 4 + int(rng.integers(4))
        dst = block * 4 + int(rng.integers(4))
        moved = s.copy()
        moved[lane, src] -= 1
        moved[lane, dst] += 1
        dv = trajectory_value([moved], vc) - trajectory_value([s], vc)
        dd = state_distance(moved, ref, dc) - state_distance(s, ref, dc)
        exact &= (dv == 0.0) and (dd == 0.0)
    report(2, exact, "500 within-block vehicle moves change value and "
                     "distance by exactly 0")


def test_criterion_3_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(50):
        lanes = int(rng.integers(2, 5))
        n_pass = int(rng.choice([2, 4]))
        n_grids = n_pass * int(rng.integers(1, 3))
        hidden = (int(rng.integers(8, 25)),)
        net = nn.net_new((lanes * n_grids + 8, *hidden, lanes * n_grids),
                         "softplus", seed=i)
        dc = DistanceConfig(float(rng.uniform(0.3, 1.0)), n_grids, n_pass)
        x = rng.uniform(0, 2, size=(4, lanes * n_grids + 8))
        y = rng.integers(0, 4, size=(4, lanes * n_grids)).astype(float)
        err = nn.grad_check(net, block_distance_loss(dc, lanes), x, y,
                            eps=1e-5, seed=i)
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(3, ok, f"50 nets with block-distance losses, max rel err "
                  f"{worst:.2e}, {elapsed:.1f}s")


class _ScalarTask:
    def support_batch(self, rng):
        return np.array([0])

    def query_batch(self, rng):
        return np.array([0])

    def loss_and_grad(self, theta, batch):
        t = theta[0]
        return float(t * t), np.array([2.0 * t])


def test_criterion_4_maml_step_equivalence():
    base = dict(inner_lr=0.1, outer_lr=0.1, meta_iterations=1,
                task_batch_size=1, outer_optimizer="sgd")
    fo = maml_run(np.array([1.0]), [_ScalarTask()],
                  MamlConfig(first_order=True, **base), seed=0)[0]
    so = maml_run(np.array([1.0]), [_ScalarTask()],
                  MamlConfig(first_order=False, **base), seed=0)[0]
    ok = abs(fo - 0.84) <= 1e-8 and abs(so - 0.872) <= 1e-8
    report(4, ok, f"scalar oracle: first-order {fo:.10f} (want 0.84), "
                  f"second-order {so:.10f} (want 0.872)")


def test_criterion_5_simulator_soundness():
    sc = saturated_city()
    digests = []
    elapsed = []
    for run in range(2):
        t0 = time.perf_counter()
        sim = sc.make(123, validate=True)  # per-tick conservation + capacity
        ctrl = FixedTimeController()
        run_episode(sim, ctrl, sc.intervals, sc.interval_s)
        elapsed.append(time.perf_counter() - t0)
        digests.append(sim.digest())
        assert sim.entered == sim.vehicles_on_network + sim.exited
    ok = digests[0] == digests[1] and max(elapsed) < 5.0
    report(5, ok, f"saturated 2x2 episode: conservation and capacity hold "
                  f"every tick, seeded runs bit-identical, "
                  f"{max(elapsed):.2f}s/episode")


@pytest.fixture(scope="module")
def pipeline_runs():
    """Criterion 6's standard desk pipeline, shared by criteria 6, 8, 10."""
    cfg = default_experiment(out_dir="/tmp/gridlight-acceptance")
    t0 = time.perf_counter()
    per_seed = {}
    for seed in cfg.seeds:
        metrics, art = modular_pipeline(cfg, seed)
        per_seed[seed] = (metrics, art)
    fixed = evaluate_controller(
        cfg.target, baseline_controller("fixed_time", np.random.default_rng(0)),
        cfg.seeds[0])
    wall = time.perf_counter() - t0
    return cfg, per_seed, fixed, wall


def test_criterion_6_end_to_end_adaptation(pipeline_runs):
    cfg, per_seed, fixed, wall = pipeline_runs
    adapted = np.mean([a["heldout_dist_adapted"] for _, a in per_seed.values()])
    meta_init = np.mean([a["heldout_dist_meta_init"] for _, a in per_seed.values()])
    travel = np.mean([m.avg_travel_time_s for m, _ in per_seed.values()])
    ok = (adapted < meta_init) and (travel < fixed.avg_travel_time_s) \
        and wall < 900.0
    report(6, ok,
           f"held-out dynamics dist {adapted:.1f} < un-fine-tuned "
           f"{meta_init:.1f}; travel {travel:.1f} < fixed-time "
           f"{fixed.avg_travel_time_s:.1f}; wall {wall:.0f}s < 900s")


def test_criterion_7_baseline_direction():
    t0 = time.perf_counter()
    cfg = default_experiment()
    mp = evaluate_controller(
        cfg.target, baseline_controller("max_pressure", np.random.default_rng(0)), 0)
    ft = evaluate_controller(
        cfg.target, baseline_controller("fixed_time", np.random.default_rng(0)), 0)
    elapsed = time.perf_counter() - t0
    ok = mp.avg_travel_time_s < ft.avg_travel_time_s and elapsed < 60.0
    report(7, ok, f"max-pressure {mp.avg_travel_time_s:.1f} < fixed-time "
                  f"{ft.avg_travel_time_s:.1f} on the congested desk "
                  f"scenario, {elapsed:.1f}s")


def test_criterion_8_budget_discipline(pipeline_runs):
    cfg, per_seed, _, _ = pipeline_runs
    counts = {seed: art["interactions"] for seed, (_, art) in per_seed.items()}
    ok = all(c == cfg.adapt.target_episode_budget for c in counts.values())
    report(8, ok, f"interaction counters {counts} == configured budget "
                  f"{cfg.adapt.target_episode_budget} for every seed")


def test_criterion_9_ablation_harness():
    cfg = default_experiment(out_dir="/tmp/gridlight-acceptance-ablation")
    cfg = replace(
        cfg,
        collect_episodes=4,
        maml=replace(cfg.maml, meta_iterations=40),
        adapt=replace(cfg.adapt, target_episode_budget=2,
                      epochs_per_episode=8),
    )
    table = run_budget_table(cfg)
    full = {m: [r["avg_travel_time"] for r in table["rows"]
                if (r["method"], r["budget"]) == (m, 2)]
            for m in BUDGET_METHODS}
    ok = all(len(travel) == len(cfg.seeds) and np.isfinite(travel).all()
             for travel in full.values())

    matrix = run_source_selection(replace(cfg, seeds=(0,)))
    ok &= len(matrix["cells"]) == 6
    ok &= all(row[row["source"]] == "/" for row in matrix["matrix"])

    # directional expectations are informational at three desk seeds
    mean = {m: float(np.mean(travel)) for m, travel in full.items()}
    print(f"  informational at budget 2: mean travel {mean}; "
          f"{table['directional_expectations']}")
    report(9, ok, "budget-table and source-selection tables complete and "
                  "well-formed across seeds; directional claims recorded")


def test_criterion_10_offline_case(pipeline_runs):
    cfg, per_seed, fixed, _ = pipeline_runs
    target = cfg.target
    dist_cfg = DistanceConfig(cfg.dist_discount, target.network.state_grids,
                              target.network.pass_capacity)
    vc = ValueConfig(cfg.horizon, cfg.step_discount, cfg.block_discount,
                     target.network.state_grids, target.network.pass_capacity)
    travels = []
    ok = True
    for seed, (_, art) in per_seed.items():
        factory = EnvFactory(target, interactions=art["interactions"])
        logged = collect_experience(
            lambda s: factory.make(s, count=False), FixedTimeController(),
            episodes=1, rng=np.random.default_rng([seed, 55]),
            city_id=target.name, intervals=target.intervals)
        est_off = offline_train_repr(logged, target.schema, epochs=40,
                                     lr=cfg.adapt.lr, dist_cfg=dist_cfg,
                                     hidden=cfg.estimator_hidden,
                                     batch_size=cfg.adapt.batch_size,
                                     seed=seed)
        ctrl = PlannerController(est_off, art["dynamics"],
                                 PolicyConfig(epsilon=0.0), vc,
                                 np.random.default_rng(0))
        sim = factory.make(seed, count=False)
        m, _ = run_episode(sim, ctrl, target.intervals, target.interval_s)
        travels.append(m.avg_travel_time_s)
        # the whole offline path leaves the interaction counter untouched
        ok &= factory.interactions == art["interactions"]
    mean_travel = float(np.mean(travels))
    ok &= mean_travel < fixed.avg_travel_time_s
    report(10, ok, f"offline estimator + adapted dynamics: travel "
                   f"{mean_travel:.1f} < fixed-time "
                   f"{fixed.avg_travel_time_s:.1f} with zero extra "
                   f"interactions")
