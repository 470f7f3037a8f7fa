"""Tests for the benchmark's own references, checks, tracing and reach.

    python3 -m pytest bench/test_bench.py -q

Each reference solver must reproduce a closed form, and each check must
accept a real program output and reject the same output corrupted by the
smallest amount the benchmark promises to catch.
"""

import copy
import json
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from regretlab import cli  # noqa: E402

# ---------------------------------------------------------------------------
# Reference solvers against closed forms.
# ---------------------------------------------------------------------------


def test_envelope_value_of_matching_pennies_at_n1():
    value = ref.envelope_game_value([[1, 0], [0, 1]], 1, [[1, 0], [0, 1]],
                                    "uniform-constant", refine=False)
    assert value == 0.5


def test_envelope_value_of_dominated_decision():
    # decision 0 never loses more, so the row player picks it: value = min over rows of max
    assert ref.envelope_value([[0.0, 1.0], [1.0, 2.0]]) == 1.0
    assert ref.envelope_value([[1.0, 0.0], [0.0, 1.0]]) == 0.5


def test_tree_walk_of_a_constant_tree():
    depth, c = 5, 0.25
    signed, squares = ref.tree_walk_sums(np.full((1, 2 ** depth - 1), c))
    assert squares.shape == (1, 2 ** depth)
    assert np.all(squares == depth * c * c)
    counts = np.unique(np.round(signed[0] / c).astype(int), return_counts=True)
    ks = np.arange(depth + 1)
    assert list(counts[0]) == list(2 * ks - depth)
    assert list(counts[1]) == [math.comb(depth, int(k)) for k in ks]


def test_brute_cover_and_step_integral_of_two_constants():
    depth = 4
    values = np.vstack([np.ones(2 ** depth - 1), -np.ones(2 ** depth - 1)])
    d2 = ref.pair_distances(values)
    assert ref.brute_cover_size(d2, depth, 1.99) == 2
    assert ref.brute_cover_size(d2, depth, 2.0) == 1
    steps = ref.cover_steps(d2, depth, 0.25, 3.0)
    assert ref.step_integral(steps, depth, 1.5) == pytest.approx(
        1.25 * math.sqrt(depth * math.log(2)), rel=1e-12)
    assert ref.step_integral(steps, depth, 3.0) == pytest.approx(
        (2.0 - 0.25) * math.sqrt(depth * math.log(2)), rel=1e-9)


def test_two_level_first_round_is_uniform_and_ties_are_exact():
    rng = np.random.default_rng(0)
    losses = rng.uniform(0, 1, (16, 4))
    assert ref.two_level_fixed_losses(losses)[0] == pytest.approx(losses[0].mean(), abs=1e-15)
    tied = np.repeat(rng.uniform(0, 1, (16, 1)), 4, axis=1)
    assert np.allclose(ref.two_level_fixed_losses(tied), tied[:, 0], atol=1e-15)
    n = 64
    assert ref.two_level_fixed_start(n, 8) <= 4.0 * math.sqrt(n)
    assert ref.two_level_optimized_start(n, 8) <= ref.two_level_fixed_start(n, 8)


def test_kl_ball_point_and_simplex_grid():
    cum = np.array([3.0, 1.0, 2.0, 5.0])
    assert list(ref.kl_ball_point(cum, math.log(4))) == [0.0, 1.0, 0.0, 0.0]
    f = ref.kl_ball_point(cum, 0.5)
    assert ref.kl_to_uniform(f)[0] == pytest.approx(0.5, abs=1e-12)
    grid = ref.simplex_points(3, 4, 5000)
    assert grid.shape == (math.comb(6, 2), 3)
    assert np.allclose(grid.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# Checks accept real outputs and reject corrupted ones.
# ---------------------------------------------------------------------------


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path)


def test_audit_check_rejects_a_loss_moved_by_1e6(workdir):
    from regretlab import RngSpec, generate_environment

    rates = ("kl-radius", "pac-bayes", "fixed-vs-best")
    paths = {k: os.path.join(workdir, f"a.{k}") for k in ("json", "csv", "cfg", "report")}
    wl._write_json(paths["cfg"], {
        "schema": "regretlab/experiment-v1", "environment": {"name": "small_loss_leader"},
        "strategy": {"name": "two-level-ew", "lambda_mode": "fixed_inverse_sqrt_n"},
        "rates": list(rates), "horizon": 64, "experts": 4, "replicates": 1,
        "rng": {"algorithm": "pcg64", "seed": 5}, "audit": {"simplex_resolution": 4},
        "output": {"json": paths["json"], "csv": paths["csv"]},
    })
    assert cli.main(["run", "-c", paths["cfg"], "--report", paths["report"]]) == 0
    doc = wl._read_json(paths["json"])
    with open(paths["csv"]) as fh:
        lines = fh.read().splitlines()
    losses = generate_environment("small_loss_leader", {"experts": 4, "horizon": 64}, RngSpec(5))
    wl.check_audit_records(doc, lines, losses, 5, 4, 5000, rates)

    bad = copy.deepcopy(doc)
    bad["records"][1]["per_round_losses"][7] += 1e-6
    with pytest.raises(wl.CheckError, match="per-round losses"):
        wl.check_audit_records(bad, lines, losses, 5, 4, 5000, rates)
    bad = copy.deepcopy(doc)
    bad["records"][2]["comparators"][3]["rate"] *= 1.0 + 1e-6
    with pytest.raises(wl.CheckError, match="rate"):
        wl.check_audit_records(bad, lines, losses, 5, 4, 5000, rates)
    with pytest.raises(wl.CheckError, match="csv"):
        wl.check_audit_records(doc, lines[:-1], losses, 5, 4, 5000, rates)


@pytest.mark.parametrize("rate", ["kl-radius", "pac-bayes", "fixed-vs-best"])
def test_oracle_check_rejects_a_value_shifted_by_1e6(workdir, rate):
    comps = [[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]]
    game = wl._binary_game(os.path.join(workdir, "g.json"), 2, comps)
    out = os.path.join(workdir, "r.json")
    assert cli.main(["oracle", "--game", game, "--rate", rate, "--report", out]) == 0
    report = wl._read_json(out)
    wl.check_oracle_report(report, rate, comps, 2)
    for key in ("value", "refined_value"):
        if report[key] is None:
            continue
        bad = dict(report, **{key: report[key] + 1e-6})
        with pytest.raises(wl.CheckError, match="value"):
            wl.check_oracle_report(bad, rate, comps, 2)


def test_reach_rung_checks_reject_a_shifted_value_and_a_missing_margin():
    import dataclasses

    import run

    oracle = run.oracle_rung(2)
    wl.check_oracle_rung(oracle, 2)
    for key in ("value", "refined_value"):
        bad = dataclasses.replace(oracle, **{key: getattr(oracle, key) + 1e-6})
        with pytest.raises(wl.CheckError, match="value"):
            wl.check_oracle_rung(bad, 2)
    admissible = run.admissible_rung(2)
    wl.check_admissible_rung(admissible, 2)
    bad = dataclasses.replace(admissible, initial_margins=admissible.initial_margins[1:])
    with pytest.raises(wl.CheckError, match="count"):
        wl.check_admissible_rung(bad, 2)


def test_admissible_check_rejects_a_missing_margin(workdir):
    game = wl._binary_game(os.path.join(workdir, "g.json"), 2, [[1.0, 0.0], [0.0, 1.0]])
    out = os.path.join(workdir, "r.json")
    argv = ["admissible", "--game", game, "--mode", "exhaustive", "--lambda-mode", "optimized",
            "--report", out]
    assert cli.main(argv) == 0
    report = wl._read_json(out)
    wl.check_admissible_report(report, 2, 4)
    with pytest.raises(wl.CheckError, match="count"):
        wl.check_admissible_report(dict(report, terminal_checked=15), 2, 4)
    with pytest.raises(wl.CheckError, match="margin"):
        wl.check_admissible_report(dict(report, worst_margin=-2e-6), 2, 4)


def test_certificate_check_rejects_a_loss_moved_by_1e6():
    from dataclasses import replace

    from regretlab import Distribution, GameSpec, TwoLevelRelaxation
    from regretlab.oracle import regret_certificate

    n = 16
    seq = np.random.default_rng(2).integers(0, 4, n)
    relax = TwoLevelRelaxation(Distribution.uniform(2), n, lambda_mode="optimized")
    cert = regret_certificate(relax, GameSpec.experts_game(wl.BINARY_OUTCOMES, n), seq)
    wl.check_certificate(cert, seq, n)
    losses = list(cert.per_round_losses)
    losses[3] += 1e-6
    with pytest.raises(wl.CheckError, match="per-round"):
        wl.check_certificate(replace(cert, per_round_losses=tuple(losses)), seq, n)
    with pytest.raises(wl.CheckError, match="margin"):
        wl.check_certificate(replace(cert, margin=cert.margin + 1e-6), seq, n)


def test_cover_check_rejects_a_size_off_by_one():
    from regretlab import FunctionTable
    from regretlab.complexity import covering_number

    values = np.random.default_rng(4).uniform(-1, 1, (6, 2 ** 6 - 1))
    scales = [0.25, 0.5, 1.0, 2.0]
    sizes = [covering_number(FunctionTable(values), a) for a in scales]
    wl.check_cover_sizes(values, scales, sizes)
    for i in range(len(sizes)):
        for delta in (-1, 1):
            bad = list(sizes)
            bad[i] += delta
            with pytest.raises(wl.CheckError, match="cover size"):
                wl.check_cover_sizes(values, scales, bad)


def test_complexity_bundle_checks_and_rejects_a_shifted_estimate(workdir):
    from regretlab import FunctionTable, OffsetForm, offset_expectation

    bundle = wl.Complexity()
    op = bundle.make(3, 0, workdir)
    assert op.run()
    bundle.check(op)
    chained = op.facts["tables"]["chained"]
    est = offset_expectation(FunctionTable(chained), OffsetForm("chained_penalty"))
    with pytest.raises(wl.CheckError, match="chained"):
        wl.close(est + 1e-6, ref.chained_offset(chained), 1e-9, "chained offset")
    report = wl._read_json(op.facts["reports"]["chaining"])
    with pytest.raises(wl.CheckError, match="tail"):
        wl.check_tail_report(dict(report, passed=False), "chaining")


# ---------------------------------------------------------------------------
# Tracing and reach.
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    import tracing

    spans = {"start": np.array([0.0, 1.0, 2.0, 5.0]), "end": np.array([10.0, 4.0, 3.0, 6.0]),
             "parent": np.array([-1, 0, 1, 0], dtype=np.int32)}
    assert list(tracing.self_times(spans)) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_them():
    import regretlab
    import tracing
    from regretlab import algorithms, harness, oracle

    original = algorithms.kl_ball_minimizer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (algorithms, harness, oracle, regretlab):
            assert module.kl_ball_minimizer is not original
        tracer.op = 0
        regretlab.Distribution.uniform(3)
        oracle.kl_ball_minimizer(regretlab.Distribution.uniform(2), 0.1, [1.0, 0.0])
    finally:
        tracer.uninstall()
    for module in (algorithms, harness, oracle, regretlab):
        assert module.kl_ball_minimizer is original
    assert "algorithms.kl_ball" in tracer.labels
    assert tracer.counters[0]["core.distribution.inits"] >= 2
    assert json.dumps(tracing.layer_metrics(tracer, range(1), range(1), 1, 0))


def test_reach_cuts_off_an_overrunning_rung():
    import run

    def rung(n):
        if n >= 3:
            while True:
                pass
        return True

    start = time.perf_counter()
    assert run.reach((1, 2, 3, 4), 0.2, rung) == (2, [(1, True), (2, True)])
    assert time.perf_counter() - start < 2.0
