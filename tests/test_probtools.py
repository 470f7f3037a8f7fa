import math

import numpy as np
import pytest

from regretlab.complexity import FunctionTable
from regretlab.core import BinaryTree, RngSpec
from regretlab.probtools import (
    ChainingInstance,
    OffsetProcessInstance,
    PinelisInstance,
    TailSpec,
    maximal_bound,
    maximal_inequality_mc,
    tail_validate,
    theta_multipliers,
)


def _gauss_spec(n):
    idx = np.arange(1, n + 1, dtype=float)
    return TailSpec(c1=1.0, c2=0.0, b=idx, sigma=idx, s=np.zeros(n), sigma_bar=1.0, s_bar=0.0)


def _exp_spec(n):
    idx = np.arange(1, n + 1, dtype=float)
    return TailSpec(c1=0.0, c2=1.0, b=np.ones(n), sigma=np.zeros(n), s=idx, sigma_bar=0.0, s_bar=1.0)


class TestTailSpec:
    def test_anchor_validation(self):
        with pytest.raises(ValueError, match="sigma_bar"):
            TailSpec(1, 0, [1.0], [0.5], [0.0], sigma_bar=0.7, s_bar=0.0)
        with pytest.raises(ValueError, match="s_bar"):
            TailSpec(0, 1, [1.0], [0.0], [2.0], sigma_bar=0.0, s_bar=1.0)
        with pytest.raises(ValueError):
            TailSpec(1, 0, [0.0], [1.0], [0.0], sigma_bar=1.0, s_bar=0.0)


class TestThetaMultipliers:
    def test_gaussian_branch_vanishes(self):
        spec = TailSpec(1.0, 0.0, [1.0], [1.0], [0.0], sigma_bar=1.0, s_bar=0.0)
        assert theta_multipliers(spec)[0] == 1.0

    def test_exponential_branch_vanishes(self):
        spec = TailSpec(0.0, 1.0, [1.0], [0.0], [1.0], sigma_bar=0.0, s_bar=1.0)
        assert theta_multipliers(spec)[0] == 1.0

    def test_hand_case_index_four(self):
        spec = TailSpec(1.0, 0.0, [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 2.0],
                        np.zeros(4), sigma_bar=1.0, s_bar=0.0)
        got = theta_multipliers(spec)[3]
        expected = 2 * math.sqrt(2 * math.log(2) + 4 * math.log(4)) + 1
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(6.266, abs=1e-3)

    def test_at_least_one(self):
        gen = RngSpec(seed=1).generator()
        for _ in range(50):
            n = int(gen.integers(1, 9))
            sigma = np.sort(gen.random(n) + 0.5)
            s = gen.random(n) + 0.1
            spec = TailSpec(1.0, 1.0, gen.random(n) + 0.1, sigma, s,
                            sigma_bar=float(sigma[0]), s_bar=float(s[0] + 1.0))
            assert np.all(theta_multipliers(spec) >= 1.0)

    def test_nondecreasing_for_constant_ratios(self):
        n = 8
        b = 2.0 ** np.arange(n)
        spec = TailSpec(1.0, 0.0, b, b, np.zeros(n), sigma_bar=1.0, s_bar=0.0)
        theta = theta_multipliers(spec)
        assert np.all(np.diff(theta) >= -1e-12)

    def test_hypothesis_violation(self):
        spec = TailSpec(1.0, 0.0, [1.0, 1.0], [1.0, 0.5], [0.0, 0.0],
                        sigma_bar=1.0, s_bar=0.0)
        with pytest.raises(ValueError, match="hypotheses"):
            theta_multipliers(spec)


class TestMaximalBound:
    def test_values(self):
        assert maximal_bound(TailSpec(1, 0, [1.0], [0.5], [0.0], 0.5, 0.0)) == 1.5
        assert maximal_bound(TailSpec(0, 2, [1.0], [0.0], [4.0], 0.0, 4.0)) == 1.0
        assert maximal_bound(TailSpec(2, 3, [1.0], [1.0], [1.0], 1.0, 1.0)) == 12.0

    def test_needs_positive_s_bar(self):
        with pytest.raises(ValueError):
            maximal_bound(TailSpec(0, 1, [1.0], [0.0], [0.0], 0.0, 0.0))


class TestMaximalInequalityMc:
    def test_gaussian_family(self):
        report = maximal_inequality_mc(_gauss_spec(16), "shifted_gaussian", 10 ** 4, RngSpec(seed=2))
        assert report.passed and report.bound == 3.0

    def test_exponential_family(self):
        report = maximal_inequality_mc(_exp_spec(16), "shifted_exponential", 10 ** 4, RngSpec(seed=3))
        assert report.passed and report.bound == 2.0

    def test_degenerate_point(self):
        # sigma = 0 kills the randomness: X = B exactly and theta = 1
        spec = TailSpec(1.0, 0.0, [2.0], [0.0], [0.0], sigma_bar=0.0, s_bar=0.0)
        report = maximal_inequality_mc(spec, "shifted_gaussian", 1000, RngSpec(seed=4))
        assert report.estimate == 0.0 and report.bound == 0.0 and report.passed

    def test_generator_registry(self):
        with pytest.raises(ValueError, match="known"):
            maximal_inequality_mc(_gauss_spec(2), "cauchy", 1000, RngSpec(seed=0))

    def test_tail_certification_guard(self):
        bad = TailSpec(0.5, 0.0, [1.0], [1.0], [0.0], sigma_bar=1.0, s_bar=0.0)
        with pytest.raises(ValueError, match="C1"):
            maximal_inequality_mc(bad, "shifted_gaussian", 1000, RngSpec(seed=0))


class TestTailValidate:
    def test_pinelis_constant_tree_exact(self):
        tree = BinaryTree.constant(10, [1.0, 0.0, 0.0])
        report = tail_validate("pinelis", PinelisInstance(tree), [2, 3, 4, 5, 6])
        assert report.passed
        point5 = next(p for p in report.points if p.threshold == 5)
        assert point5.empirical == pytest.approx(112 / 1024)
        assert point5.bound == pytest.approx(2 * math.exp(-25 / 80), rel=1e-12)

    def test_pinelis_random_tree(self):
        gen = RngSpec(seed=5).generator()
        raw = gen.standard_normal((2 ** 9 - 1, 3))
        raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1.0)
        report = tail_validate("pinelis", PinelisInstance(BinaryTree(9, raw)), [1, 2, 3, 4])
        assert report.passed

    def test_pinelis_regime_skip(self):
        tree = BinaryTree.constant(4, [1.0])
        report = tail_validate("pinelis", PinelisInstance(tree), [20.0])
        assert report.points[0].skipped and report.passed

    def test_pinelis_mc_close_to_exact(self):
        tree = BinaryTree.constant(10, [1.0, 0.0, 0.0])
        exact = tail_validate("pinelis", PinelisInstance(tree), [4])
        sampled = tail_validate("pinelis", PinelisInstance(tree), [4],
                                mode="mc", replicates=20000, rng=RngSpec(seed=6))
        assert sampled.passed
        assert abs(sampled.points[0].empirical - exact.points[0].empirical) \
            <= 4 * sampled.points[0].stderr

    def test_chaining_exact(self):
        gen = RngSpec(seed=7).generator()
        table = FunctionTable(gen.uniform(-1, 1, (4, 2 ** 10 - 1)))
        thetas = [1.2, 1.5, 2.0, 2.5, 3.0]
        report = tail_validate("chaining", ChainingInstance(table), thetas)
        assert report.passed
        assert not any(p.skipped for p in report.points)

    def test_chaining_regime_skip(self):
        gen = RngSpec(seed=8).generator()
        table = FunctionTable(gen.uniform(-1, 1, (3, 2 ** 6 - 1)))
        report = tail_validate("chaining", ChainingInstance(table), [0.5])
        assert report.points[0].skipped  # below sqrt(12/n)

    def test_chaining_mc_above_cover_depth_cap(self):
        # depth 17 is past the cover search's path cap, so each of the
        # ceil(log2 17) + 4 = 9 inverse-cover terms and the tail copy count as 1
        gen = RngSpec(seed=12).generator()
        table = FunctionTable(gen.uniform(-1, 1, (4, 2 ** 17 - 1)))
        thetas = [1.0, 2.0]
        report = tail_validate("chaining", ChainingInstance(table), thetas,
                               mode="mc", replicates=1000, rng=RngSpec(seed=1))
        assert report.passed
        for p, theta in zip(report.points, thetas):
            assert not p.skipped
            assert p.bound == pytest.approx(2.0 * 10 * math.exp(-17 * theta ** 2 / 4), rel=1e-12)

    def test_offset_process_mc_above_cover_depth_cap(self):
        # two constant functions +-0.1 at depth 17: the sampled paths' covers
        # have 2 elements below scale 0.2 and 1 from there on, so the
        # entropy integral over [1/17, 1/2] is sqrt(17 log 2) (0.2 - 1/17);
        # each of the ceil(log2 17) = 5 inverse-cover terms counts as 1
        n, alpha = 17, 1.0
        table = FunctionTable(np.vstack([np.full(2 ** n - 1, 0.1), np.full(2 ** n - 1, -0.1)]))
        taus = [1.0, 2.0]
        report = tail_validate("offset_process", OffsetProcessInstance(table, alpha, 0.5), taus,
                               mode="mc", replicates=1000, rng=RngSpec(seed=1))
        sigma = 12.0 * math.sqrt(n * math.log(2)) * (0.2 - 1 / n)
        assert report.passed
        for p, tau in zip(report.points, taus):
            assert not p.skipped
            assert p.bound == pytest.approx(
                5 * math.exp(-tau ** 2 / (2 * sigma ** 2)) + math.exp(-alpha * tau / 2), rel=1e-9)

    def test_offset_process_singleton(self):
        gen = RngSpec(seed=9).generator()
        table = FunctionTable(gen.uniform(-1, 1, (1, 2 ** 10 - 1)))
        for alpha in (0.1, 1.0):
            report = tail_validate(
                "offset_process", OffsetProcessInstance(table, alpha, 0.5), [0.5, 1, 2, 4]
            )
            assert report.passed

    def test_offset_process_four_functions(self):
        gen = RngSpec(seed=10).generator()
        table = FunctionTable(gen.uniform(-1, 1, (4, 2 ** 10 - 1)))
        for alpha in (0.1, 1.0):
            report = tail_validate(
                "offset_process", OffsetProcessInstance(table, alpha, 0.5), [0.5, 1, 2, 4]
            )
            assert report.passed

    def test_exact_tail_bounds_unchanged(self):
        # envelopes of the exact chaining and offset-process checks on
        # 4 x depth-12 tables, pinned with ==: the covers and the entropy
        # integral must not move them
        def table(seed):
            return FunctionTable(RngSpec(seed=seed).generator().uniform(-1, 1, (4, 2 ** 12 - 1)))

        chaining = tail_validate("chaining", ChainingInstance(table(41)), [1.2, 2.0, 3.0])
        assert [p.bound for p in chaining.points] == [
            0.05984947594099701, 2.7648955589976943e-05, 8.457879674425874e-12]
        offset = tail_validate("offset_process", OffsetProcessInstance(table(42), 1.0, 0.5),
                               [0.5, 1.0, 2.0, 4.0])
        assert [p.bound for p in offset.points] == [
            1.0287256539957101, 0.856230278847789, 0.6166800814659312, 0.3805722572608065]

    def test_kind_registry(self):
        with pytest.raises(ValueError, match="known"):
            tail_validate("bogus", None, [1.0])

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            PinelisInstance(BinaryTree.constant(3, [2.0, 0.0]))
        gen = RngSpec(seed=11).generator()
        table = FunctionTable(gen.uniform(-1, 1, (2, 2 ** 4 - 1)))
        with pytest.raises(ValueError):
            OffsetProcessInstance(table, alpha=0.0, gamma=0.5)
        with pytest.raises(ValueError):
            OffsetProcessInstance(table, alpha=1.0, gamma=0.01)
