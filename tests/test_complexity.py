import math
from itertools import combinations, product

import numpy as np
import pytest

from regretlab.complexity import (
    FunctionTable,
    OffsetForm,
    TableCovers,
    covering_number,
    covering_number_report,
    dudley_integral,
    offset_expectation,
    _step_integral,
)
from regretlab.core import BinaryTree, RngSpec, path_node_indices, path_signs, tree_get


def _random_table(seed, g, depth, bound=1.0):
    gen = RngSpec(seed=seed).generator()
    return FunctionTable(gen.uniform(-bound, bound, (g, 2 ** depth - 1)), bound)


class TestFunctionTable:
    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            FunctionTable(np.zeros((2, 6)))

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            FunctionTable(np.full((1, 3), 1.5))

    @pytest.mark.parametrize("values", [np.zeros((0, 15)), np.zeros((4, 0)), [],
                                        np.zeros((2, 3, 3))])
    def test_empty_class_or_tree(self, values):
        with pytest.raises(ValueError, match="at least one function and one node"):
            FunctionTable(values)


NONE = OffsetForm("none")


def _rademacher(table):
    return offset_expectation(table, NONE)


def _rademacher_mc(table, replicates, rng):
    return offset_expectation(table, NONE, mode="mc", rng=rng, replicates=replicates)


class TestSeqRademacherExact:
    def test_zero_class(self):
        assert _rademacher(FunctionTable(np.zeros((1, 2 ** 4 - 1)))) == 0.0

    def test_singleton_cancels(self):
        # each term is a martingale difference, so the average over paths
        # collapses to rounding noise
        table = _random_table(5, 1, 6)
        assert abs(_rademacher(table)) <= 1e-10

    def test_two_constants_depth_one(self):
        assert _rademacher(FunctionTable(np.array([[1.0], [-1.0]]))) == 1.0

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="mode='mc'"):
            _rademacher(FunctionTable(np.zeros((1, 2 ** 13 - 1))))

    def test_monotone_under_class_growth(self):
        gen = RngSpec(seed=6).generator()
        base = gen.uniform(-1, 1, (3, 2 ** 6 - 1))
        extra = gen.uniform(-1, 1, (1, 2 ** 6 - 1))
        small = _rademacher(FunctionTable(base))
        grown = _rademacher(FunctionTable(np.vstack([base, extra])))
        assert grown >= small - 1e-12


class TestSeqRademacherMc:
    def test_matches_exact_within_four_stderr(self):
        gen = RngSpec(seed=7).generator()
        misses = 0
        for trial in range(50):
            g = int(gen.integers(1, 7))
            depth = int(gen.integers(2, 11))
            table = _random_table(100 + trial, g, depth)
            exact = _rademacher(table)
            est, se = _rademacher_mc(table, 2000, RngSpec(seed=200 + trial))
            if se == 0.0:
                assert est == pytest.approx(exact, abs=1e-12)
            elif abs(est - exact) > 4 * se:
                misses += 1
        assert misses == 0

    def test_zero_class(self):
        est, se = _rademacher_mc(FunctionTable(np.zeros((1, 2 ** 5 - 1))), 500, RngSpec(seed=1))
        assert est == 0.0 and se == 0.0

    def test_deterministic_for_fixed_spec(self):
        table = _random_table(8, 4, 7)
        a = _rademacher_mc(table, 1000, RngSpec(seed=3))
        b = _rademacher_mc(table, 1000, RngSpec(seed=3))
        assert a == b

    def test_replicate_floor(self):
        with pytest.raises(ValueError, match="100 replicates"):
            _rademacher_mc(_random_table(9, 2, 4), 50, RngSpec(seed=0))


def _brute_min_cover(table, alpha, metric):
    signs = path_signs(table.depth)
    idx = path_node_indices(table.depth, signs)
    vals = table.values[:, idx]
    g = table.n_functions
    n = table.depth

    def close(v, target):
        diff = vals[target] - vals[v]
        if metric == "l2":
            return (diff ** 2).sum(axis=1) <= n * alpha * alpha + 1e-12
        return np.abs(diff).max(axis=1) <= alpha + 1e-12

    relation = np.array([[close(v, t) for t in range(g)] for v in range(g)])
    for size in range(1, g + 1):
        for sub in combinations(range(g), size):
            if np.all(np.any(relation[list(sub)], axis=0)):
                return size
    return g


class TestCoveringNumber:
    def test_diameter_scale(self):
        table = _random_table(10, 6, 5)
        assert covering_number(table, 2.0, "l2") == 1
        assert covering_number(table, 2.0, "linf") == 1

    def test_separation_scale(self):
        table = _random_table(11, 6, 5)
        assert covering_number(table, 1e-9, "l2") == 6
        assert covering_number(table, 1e-9, "linf") == 6

    def test_exhaustive_subset_oracle(self):
        table = _random_table(12, 6, 5)
        for alpha in (0.2, 0.45, 0.8, 1.3):
            for metric in ("l2", "linf"):
                assert covering_number(table, alpha, metric) == _brute_min_cover(table, alpha, metric)

    def test_linf_at_least_l2(self):
        table = _random_table(13, 8, 6)
        for alpha in (0.2, 0.5, 0.9):
            assert covering_number(table, alpha, "linf") >= covering_number(table, alpha, "l2")

    def test_covers_memoise_each_metric_and_path_set(self):
        table = _random_table(13, 8, 6)
        every_path = TableCovers(table, path_node_indices(6, path_signs(6)))
        assert not every_path.minimal and table.covers.minimal
        for alpha in (0.5, 0.9, 0.9):
            for metric in ("l2", "linf"):
                want = covering_number(table, alpha, metric)
                assert table.covers.size(alpha, metric) == want
                assert every_path.size(alpha, metric) == want

    def test_nonincreasing_in_alpha(self):
        table = _random_table(14, 7, 6)
        sizes = [covering_number(table, a, "l2") for a in np.linspace(0.05, 2.2, 25)]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_greedy_flag_above_class_cap(self):
        table = _random_table(15, 14, 4)
        report = covering_number_report(table, 0.4, "l2")
        assert not report.exact
        exact_small = covering_number_report(_random_table(15, 6, 4), 0.4, "l2")
        assert exact_small.exact

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            covering_number(_random_table(16, 2, 3), 0.0)

    def test_greedy_upper_bounds_exact(self):
        table = _random_table(27, 8, 5)
        for alpha in (0.3, 0.6, 1.1):
            forced = covering_number_report(table, alpha, "l2", exact_cap=0)
            exact = covering_number_report(table, alpha, "l2")
            assert not forced.exact and exact.exact
            assert forced.size >= exact.size

    def test_depth_cap(self):
        deep = FunctionTable(np.zeros((1, 2 ** 17 - 1)))
        with pytest.raises(ValueError, match="depth cap"):
            covering_number(deep, 0.5)


class TestDudleyIntegral:
    def test_singleton_class(self):
        table = FunctionTable(np.zeros((1, 2 ** 4 - 1)))
        assert dudley_integral(table, 1.0, 4) == 0.0

    def test_power_law_closed_form(self):
        class Profile:
            def log_covering(self, delta):
                return 1.0 / delta

        n, gamma = 8, 1.0
        exact = 2 * math.sqrt(n * gamma) - 2 * math.sqrt(n * (1 / n))
        got = dudley_integral(Profile(), gamma, n)
        assert got == pytest.approx(exact, rel=0.01)

    def test_monotone_in_gamma(self):
        table = _random_table(17, 5, 6)
        n = 6
        vals = [dudley_integral(table, g, n) for g in np.linspace(1 / n, 1.5, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_empty_range(self):
        table = _random_table(18, 3, 5)
        assert dudley_integral(table, 1 / 5, 5) == 0.0
        assert dudley_integral(table, 0.01, 5) == 0.0

    def test_greedy_steps_bound_the_exact_cover_integral(self):
        # 14 functions is above the exact-search cap, so the table's steps
        # are greedy sizes, which need not be monotone in the scale
        table = _random_table(0, 14, 3)
        exact = _step_integral(
            lambda d: covering_number_report(table, d, "l2", exact_cap=14).size, 1 / 3, 1.0, 3)
        assert dudley_integral(table, 1.0, 3) >= exact


class TestOffsetExpectation:
    def test_none_reduces_to_rademacher(self):
        # brute-force sequential Rademacher complexity: walk each sign path
        # down the tree node by node
        table = _random_table(19, 4, 6)
        n = table.depth
        trees = [BinaryTree(n, row[:, None]) for row in table.values]
        sups = [
            max(sum(eps[t] * tree_get(tree, t + 1, eps[:t])[0] for t in range(n))
                for tree in trees)
            for eps in product((-1, 1), repeat=n)
        ]
        assert offset_expectation(table, OffsetForm("none")) == pytest.approx(
            sum(sups) / len(sups), rel=1e-12, abs=1e-12)

    def test_quadratic_nonincreasing_in_alpha(self):
        table = _random_table(20, 4, 6)
        vals = [
            offset_expectation(table, OffsetForm("quadratic", alpha=a))
            for a in (0.05, 0.2, 0.8, 2.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_finite_class_bound_small_battery(self):
        gen = RngSpec(seed=21).generator()
        for trial in range(10):
            g = int(gen.integers(1, 9))
            depth = int(gen.integers(4, 11))
            table = _random_table(300 + trial, g, depth)
            assert offset_expectation(table, OffsetForm("finite_class_penalty")) <= 1.0

    def test_chained_bound_small_battery(self):
        gen = RngSpec(seed=22).generator()
        for trial in range(5):
            g = int(gen.integers(1, 7))
            depth = int(gen.integers(4, 11))
            table = _random_table(400 + trial, g, depth)
            value = offset_expectation(table, OffsetForm("chained_penalty"))
            assert value <= 7 + 2 * math.log(depth) + 1e-10

    def test_custom_penalty(self):
        table = _random_table(23, 3, 5)
        form = OffsetForm("custom_penalty", penalty=lambda sq: 0.5 * sq)
        quad = OffsetForm("quadratic", alpha=0.25)
        assert offset_expectation(table, form) == offset_expectation(table, quad)

    def test_mc_mode(self):
        table = _random_table(24, 4, 8)
        exact = offset_expectation(table, OffsetForm("quadratic", alpha=0.3))
        est, se = offset_expectation(
            table, OffsetForm("quadratic", alpha=0.3), mode="mc",
            rng=RngSpec(seed=25), replicates=4000,
        )
        assert abs(est - exact) <= 4 * se

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            OffsetForm("bogus")
        with pytest.raises(ValueError):
            OffsetForm("quadratic")
        with pytest.raises(ValueError):
            OffsetForm("custom_penalty")

    def test_chained_mc_above_cover_depth_cap(self):
        # two constant functions +-0.1 at depth 17: on every path their l2
        # distance is 0.2, so the cover of the sampled paths has 2 elements
        # below scale 0.2 and 1 from there on, and each scale's penalty is
        # the same on every path
        n = 17
        table = FunctionTable(np.vstack([np.full(2 ** n - 1, 0.1), np.full(2 ** n - 1, -0.1)]))
        mc = dict(mode="mc", rng=RngSpec(seed=1), replicates=1000)
        est, se = offset_expectation(table, OffsetForm("chained_penalty"), **mc)
        plain, plain_se = offset_expectation(table, NONE, **mc)
        logn = math.log(n)
        penalties = []
        for gamma in [2.0 ** j / n for j in range(5)]:
            ent = math.log(2) if gamma / 2 < 0.2 else 0.0
            integ = math.sqrt(n * math.log(2)) * max(min(gamma, 0.2) - 1 / n, 0.0)
            penalties.append(4 * math.sqrt(2 * logn * ent * (n * 0.01 + 1))
                             + 24 * math.sqrt(2) * logn * integ)
        assert est == pytest.approx(plain - min(penalties), rel=1e-9)
        assert se == pytest.approx(plain_se, rel=1e-9)

    def test_chained_values_unchanged(self):
        # the exact 6 x depth-8 and the depth-17 mc chained offsets, pinned
        # with ==: the covers, their memo and the penalty must not move them
        exact = offset_expectation(_random_table(40, 6, 8), OffsetForm("chained_penalty"))
        assert exact == -18.311327009986897
        mc = offset_expectation(_random_table(43, 4, 17), OffsetForm("chained_penalty"),
                                mode="mc", rng=RngSpec(seed=1), replicates=1000)
        assert mc == (-25.77535430985185, 0.07451998939428027)

    def test_mc_requires_rng(self):
        table = _random_table(26, 2, 4)
        with pytest.raises(ValueError):
            offset_expectation(table, OffsetForm("none"), mode="mc")
