"""Acceptance suite: one test per release criterion, one printed line each.

Every tolerance is pinned here, not configured elsewhere. Run with
``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS lines).
"""

import itertools
import math
import sys
import time

import numpy as np

from regretlab.algorithms import (
    LAMBDA_FIXED,
    LAMBDA_OPTIMIZED,
    TwoLevelRelaxation,
    TwoLevelState,
    fixed_radius_inequality_check,
    relaxation_value,
)
from regretlab.bounds import AdaptiveRate
from regretlab.cli import main as lab_main
from regretlab.complexity import FunctionTable, OffsetForm, offset_expectation
from regretlab.core import BinaryTree, Distribution, GameSpec, RadiusLadder, RngSpec
from regretlab.harness import ExperimentConfig, min_slack, run_experiment, simplex_grid
from regretlab.oracle import achievability_check, admissibility_check
from regretlab.probtools import (
    ChainingInstance,
    OffsetProcessInstance,
    PinelisInstance,
    TailSpec,
    maximal_inequality_mc,
    tail_validate,
)

BINARY_COLUMNS = [list(v) for v in itertools.product([0.0, 1.0], repeat=2)]


def _report(number, name, passed, elapsed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"ACCEPTANCE {number:02d} {name}: {verdict} ({elapsed:.2f}s){suffix}"
    # write through pytest's capture so the line lands in plain `pytest -v` logs
    print(line, file=sys.__stdout__)
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_relaxation_final_value():
    start = time.time()
    worst_gap = -math.inf
    for n in (4, 16, 64, 256):
        for k in (2, 8):
            for i_max in (1, 2, 3, 5, 8, 12):
                state = TwoLevelState(
                    Distribution.uniform(k), RadiusLadder(i_max), n, LAMBDA_FIXED
                )
                worst_gap = max(worst_gap, relaxation_value(state) - 4 * math.sqrt(n))
    elapsed = time.time() - start
    _report(1, "relaxation-final-value", worst_gap <= 1e-9 and elapsed < 1.0,
            elapsed, f"max value minus 4*sqrt(n) = {worst_gap:.3f}")


def test_criterion_02_exhaustive_admissibility():
    start = time.time()
    comparators = [Distribution.point_mass(i, 2).weights for i in range(2)]
    comparators += simplex_grid(2, 16)
    game = GameSpec.experts_game(BINARY_COLUMNS, horizon=4, comparators=comparators)
    worst = math.inf
    for mode in (LAMBDA_FIXED, LAMBDA_OPTIMIZED):
        relax = TwoLevelRelaxation(Distribution.uniform(2), 4, RadiusLadder(3), mode)
        report = admissibility_check(relax, game, mode="exhaustive", tol=1e-6)
        worst = min(worst, report.worst_margin)
    elapsed = time.time() - start
    _report(2, "exhaustive-admissibility", worst >= -1e-6 and elapsed < 10.0,
            elapsed, f"worst margin = {worst:.4f}")


def test_criterion_03_regret_certificate_battery():
    start = time.time()
    battery = [
        ("stochastic_bernoulli", {"p": 0.5}, 8, 256),
        ("small_loss_leader", {}, 8, 512),
        ("quantile_block", {"good_fraction": 0.125}, 16, 256),
        ("alternating_adversary", {}, 2, 512),
    ]
    worst = math.inf
    violations = 0
    for env, params, experts, horizon in battery:
        for seed in range(20):
            config = ExperimentConfig(
                environment=env, environment_params=params,
                lambda_mode="fixed_inverse_sqrt_n",
                rates=("kl-radius",), horizon=horizon, experts=experts,
                replicates=1, rng=RngSpec(seed=3000 + seed),
            )
            records = run_experiment(config)
            slack = min_slack(records)
            worst = min(worst, slack)
            if slack < -1e-6 * horizon:
                violations += 1
    elapsed = time.time() - start
    _report(3, "regret-certificate-battery", violations == 0 and elapsed < 120.0,
            elapsed, f"min slack = {worst:.3f} over 80 runs")


def test_criterion_04_achievability_oracle():
    start = time.time()
    game_a = GameSpec.experts_game(BINARY_COLUMNS, horizon=3)
    rep_a = achievability_check(game_a, AdaptiveRate("fixed_vs_best", fstar_index=0, class_size=2))

    comparators = [np.array([j / 100, 1 - j / 100]) for j in range(101)]
    game_b = GameSpec.experts_game(BINARY_COLUMNS, horizon=2, comparators=comparators)
    rep_b = achievability_check(game_b, AdaptiveRate("pac_bayes", prior=Distribution.uniform(2)))

    game_c = GameSpec.experts_game([[1.0, 0.0], [0.0, 1.0]], horizon=1)
    rep_c = achievability_check(game_c, AdaptiveRate("uniform_constant", value=0.0))
    grid = np.linspace(0.0, 1.0, 10 ** 4)
    brute = min(
        max(q * game_c.loss[0, y] + (1 - q) * game_c.loss[1, y]
            - min(game_c.loss[d, y] for d in range(2)) for y in range(2))
        for q in grid
    )

    ok = (
        rep_a.value <= 1e-7
        and rep_b.value <= 1e-7
        and (rep_b.refined_value is None or rep_b.refined_value <= 1e-7)
        and abs(rep_c.value - 0.5) <= 1e-9
        and abs(brute - 0.5) <= 1e-4
    )
    elapsed = time.time() - start
    _report(4, "achievability-oracle", ok and elapsed < 60.0, elapsed,
            f"A(a) = {rep_a.value:.2f}, A(b) = {rep_b.value:.2f}, A_1 = {rep_c.value:.10f}")


def test_criterion_05_finite_class_offset_bound():
    start = time.time()
    gen = RngSpec(seed=4042).generator()
    worst = -math.inf
    for _ in range(50):
        g = int(gen.integers(1, 9))
        depth = int(gen.integers(4, 11))
        table = FunctionTable(gen.uniform(-1.0, 1.0, (g, 2 ** depth - 1)))
        worst = max(worst, offset_expectation(table, OffsetForm("finite_class_penalty")))
    elapsed = time.time() - start
    _report(5, "finite-class-offset-bound", worst <= 1.0 + 1e-10 and elapsed < 120.0,
            elapsed, f"max value = {worst:.3f} (cap 1)")


def test_criterion_06_chained_offset_bound():
    start = time.time()
    gen = RngSpec(seed=4043).generator()
    worst_gap = -math.inf
    for _ in range(20):
        g = int(gen.integers(1, 7))
        depth = int(gen.integers(4, 11))
        table = FunctionTable(gen.uniform(-1.0, 1.0, (g, 2 ** depth - 1)))
        value = offset_expectation(table, OffsetForm("chained_penalty"))
        worst_gap = max(worst_gap, value - (7 + 2 * math.log(depth)))
    elapsed = time.time() - start
    _report(6, "chained-offset-bound", worst_gap <= 1e-10 and elapsed < 300.0,
            elapsed, f"max value minus cap = {worst_gap:.3f}")


def test_criterion_07_maximal_inequality():
    start = time.time()
    ok = True
    details = []
    for n in (1, 4, 16):
        idx = np.arange(1, n + 1, dtype=float)
        gauss = TailSpec(c1=1.0, c2=0.0, b=idx, sigma=idx, s=np.zeros(n),
                         sigma_bar=1.0, s_bar=0.0)
        rg = maximal_inequality_mc(gauss, "shifted_gaussian", 10 ** 5, RngSpec(seed=500 + n))
        expo = TailSpec(c1=0.0, c2=1.0, b=np.ones(n), sigma=np.zeros(n), s=idx,
                        sigma_bar=0.0, s_bar=1.0)
        re = maximal_inequality_mc(expo, "shifted_exponential", 10 ** 5, RngSpec(seed=600 + n))
        ok = ok and rg.passed and re.passed
        details.append(f"N={n}: {rg.estimate:.2f}<={rg.bound:.1f}, {re.estimate:.2f}<={re.bound:.1f}")
    elapsed = time.time() - start
    _report(7, "maximal-inequality", ok and elapsed < 60.0, elapsed, "; ".join(details))


def test_criterion_08_tail_validators():
    start = time.time()
    gen = RngSpec(seed=4044).generator()

    norm_tree = BinaryTree.constant(10, [1.0, 0.0, 0.0])
    rep_norm = tail_validate("pinelis", PinelisInstance(norm_tree), [2, 3, 4, 5, 6])
    raw = gen.standard_normal((2 ** 10 - 1, 3))
    raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1.0)
    rep_norm_rand = tail_validate("pinelis", PinelisInstance(BinaryTree(10, raw)), [2, 3, 4, 5, 6])

    table4 = FunctionTable(gen.uniform(-1.0, 1.0, (4, 2 ** 10 - 1)))
    floor = math.sqrt(12 / 10)
    thetas = [floor + d for d in (0.1, 0.4, 0.9, 1.4, 1.9)]
    rep_chain = tail_validate("chaining", ChainingInstance(table4), thetas)

    single = FunctionTable(gen.uniform(-1.0, 1.0, (1, 2 ** 10 - 1)))
    offset_ok = True
    for table in (single, table4):
        for alpha in (0.1, 1.0):
            rep = tail_validate(
                "offset_process", OffsetProcessInstance(table, alpha, 0.5), [0.5, 1.0, 2.0, 4.0]
            )
            offset_ok = offset_ok and rep.passed
    skipped = any(p.skipped for p in rep_norm.points + rep_chain.points)
    ok = rep_norm.passed and rep_norm_rand.passed and rep_chain.passed and offset_ok and not skipped
    elapsed = time.time() - start
    _report(8, "tail-validators", ok and elapsed < 300.0, elapsed,
            "norm, chained, offset envelopes all hold at every grid point")


def test_criterion_09_fixed_radius_inequality():
    start = time.time()
    gen = RngSpec(seed=4045).generator()
    worst = math.inf
    violations = 0
    for _ in range(1000):
        k = int(gen.integers(2, 6))
        n = int(gen.integers(1, 17))
        radius = [0.1, 1.0, 4.0][int(gen.integers(0, 3))]
        w = gen.random(k)
        prior = Distribution(w / w.sum())
        report = fixed_radius_inequality_check(prior, radius, n, gen.random((n, k)))
        worst = min(worst, report.margin)
        if report.margin < 0.0:
            violations += 1
    elapsed = time.time() - start
    _report(9, "fixed-radius-inequality", violations == 0 and elapsed < 30.0,
            elapsed, f"min margin = {worst:.4f} over 1000 instances")


def test_criterion_10_end_to_end_determinism(tmp_path):
    import json

    start = time.time()
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        config = {
            "schema": "regretlab/experiment-v1",
            "environment": {"name": "stochastic_bernoulli", "p": 0.5},
            "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
            "rates": ["kl-radius", "pac-bayes"],
            "horizon": 64,
            "experts": 4,
            "replicates": 3,
            "rng": {"algorithm": "pcg64", "seed": 12345},
            "output": {"json": str(base / "rec.json"), "csv": str(base / "rec.csv")},
        }
        config_path = base / "config.json"
        config_path.write_text(json.dumps(config))
        game_path = base / "game.json"
        game_path.write_text(json.dumps({
            "schema": "regretlab/game-v1",
            "outcomes": BINARY_COLUMNS,
            "horizon": 3,
            "simplex_resolution": 8,
        }))
        assert lab_main(["run", "-c", str(config_path), "--report", str(base / "run.json")]) == 0
        assert lab_main(["oracle", "--game", str(game_path), "--rate", "fixed-vs-best",
                         "--report", str(base / "oracle.json")]) == 0
        assert lab_main(["admissible", "--game", str(game_path), "--i-max", "3",
                         "--seed", "1", "--report", str(base / "adm.json")]) == 0
        outputs.append(tuple(
            (base / name).read_bytes()
            for name in ("rec.json", "rec.csv", "run.json", "oracle.json", "adm.json")
        ))
    identical = outputs[0] == outputs[1]
    elapsed = time.time() - start
    _report(10, "end-to-end-determinism", identical, elapsed,
            "5 result files byte-identical across reruns")


def test_criterion_11_exhaustive_admissibility_at_n6():
    # worst margin and prefix of the scalar walk that the batched walk replaced
    worst_margin, worst_prefix = 0.6769161248470486, ()
    start = time.time()
    game = GameSpec.experts_game(BINARY_COLUMNS, horizon=6)
    relax = TwoLevelRelaxation(Distribution.uniform(2), 6, lambda_mode=LAMBDA_OPTIMIZED)
    report = admissibility_check(relax, game, mode="exhaustive")
    elapsed = time.time() - start
    ok = (report.verdict
          and len(report.recursive_margins) == sum(4 ** t for t in range(6)) == 1365
          and len(report.initial_margins) == 4 ** 6
          and report.worst_prefix == worst_prefix
          and abs(report.worst_margin - worst_margin) <= 1e-12)
    _report(11, "exhaustive-admissibility-n6", ok and elapsed < 10.0, elapsed,
            f"worst margin = {report.worst_margin:.6f} at {report.worst_prefix}")
