import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretlab.bounds import (
    RATE_KINDS,
    AdaptiveRate,
    CoveringProfile,
    fixed_vs_best_rate,
    generic_radius_rate,
    kl_radius_rate,
    norm_adaptive_rate,
    pacbayes_rate,
    predictable_rate,
    spectral_rate,
    spectral_norm_psd,
)
from regretlab.complexity import FunctionTable
from regretlab.core import Distribution


def _char_cubic_lambda_max(a):
    """Largest eigenvalue of a symmetric 3x3 matrix from its characteristic
    polynomial roots (independent of power iteration)."""
    c2 = np.trace(a)
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    roots = np.roots([-1.0, c2, -minors, np.linalg.det(a)])
    return float(np.max(roots.real))


class TestSpectralRate:
    def test_zero_outcomes(self):
        got = spectral_rate(np.zeros((4, 2)), 2)
        assert got == pytest.approx(16 * math.sqrt(2) * math.log(4), rel=1e-12)
        assert got == pytest.approx(31.37, abs=0.01)

    def test_rank_one(self):
        got = spectral_rate(np.tile([1.0, 0.0], (4, 1)), 2)
        assert got == pytest.approx(16 * math.sqrt(2) * math.log(4) * 3, rel=1e-12)
        assert got == pytest.approx(94.10, abs=0.01)

    def test_characteristic_polynomial_oracle(self):
        gen = np.random.default_rng(11)
        for _ in range(20):
            ys = gen.standard_normal((6, 3))
            ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
            lam = _char_cubic_lambda_max(ys.T @ ys)
            expected = 16 * math.sqrt(3) * math.log(6) * (math.sqrt(lam) + 1)
            assert spectral_rate(ys, 3) == pytest.approx(expected, rel=1e-10)

    def test_direction_sweep_identity(self):
        # sup over unit f of sum <f, y_t>^2 is the top eigenvalue
        gen = np.random.default_rng(12)
        ys = gen.standard_normal((8, 3))
        ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
        lam = spectral_norm_psd(ys.T @ ys)
        dirs = gen.standard_normal((10 ** 4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sweep = float(((dirs @ ys.T) ** 2).sum(axis=1).max())
        assert sweep <= lam + 1e-9
        assert lam <= sweep * 1.02 + 1e-9

    def test_unit_ball_violation(self):
        with pytest.raises(ValueError, match="unit ball"):
            spectral_rate([[1.1, 0.0], [0.0, 0.0]], 2)

    def test_needs_two_rounds(self):
        with pytest.raises(ValueError):
            spectral_rate([[0.5, 0.0]], 2)

    def test_orthogonal_start_matrix(self):
        # all-ones start is exactly orthogonal to the top eigenvector here
        assert spectral_norm_psd(np.array([[0.5, -0.5], [-0.5, 0.5]])) == pytest.approx(1.0, rel=1e-10)


class TestPredictableRate:
    def test_singleton_class_collapses(self):
        table = FunctionTable(np.zeros((1, 2 ** 3 - 1)))
        profile = CoveringProfile("finite_class_exact", table=table)
        n = 8
        got = predictable_rate(np.ones(n), np.ones(n), profile, n)
        assert got == pytest.approx(2 * math.log(n) + 7, rel=1e-12)

    def test_dyadic_grid_closed_form_oracle(self):
        # analytic p=1 profile has a closed-form entropy integral
        profile = CoveringProfile("analytic_power_law", p=1.0)
        n = 8
        s = float(n)
        logn = math.log(n)

        def bracket(gamma):
            t1 = 4 * math.sqrt(2) * math.sqrt(logn * (gamma / 2) ** -1.0 * (s + 1))
            integ = 2 * math.sqrt(n * gamma) - 2 if gamma > 1 / n else 0.0
            return t1 + 24 * math.sqrt(2) * logn * integ

        grid = [2.0 ** j / n for j in range(math.ceil(math.log2(2 * n)) + 1)]
        expected = min(bracket(g) for g in grid) + 2 * logn + 7
        got = predictable_rate(np.ones(n), np.zeros(n), profile, n)
        assert got == pytest.approx(expected, rel=1e-6)
        dense = min(bracket(g) for g in np.linspace(1 / n, 2.0, 1000)) + 2 * logn + 7
        assert got >= dense - 1e-9

    def test_sqrt_n_scaling_slope(self):
        # the headline scaling hides a (log n)^{3/4} factor coming from the
        # optimal scale; deflate it before regressing
        profile = CoveringProfile("analytic_power_law", p=1.0)
        ns = [64, 128, 256, 512, 1024, 2048, 4096]
        vals = np.array([predictable_rate(np.ones(n), np.zeros(n), profile, n) for n in ns])
        deflated = np.log(vals / np.log(ns) ** 0.75)
        slope = np.polyfit(np.log(ns), deflated, 1)[0]
        assert abs(slope - 0.5) / 0.5 <= 0.15

    def test_rejects_steep_profiles(self):
        with pytest.raises(ValueError):
            CoveringProfile("analytic_power_law", p=2.0)

    def test_greedy_profile_only_enlarges_rate(self):
        gen = np.random.default_rng(30)
        table = FunctionTable(gen.uniform(-1, 1, (6, 2 ** 4 - 1)))
        exact = CoveringProfile("finite_class_exact", table=table)
        greedy = CoveringProfile("greedy", table=table)
        n = 4
        f = np.ones(n)
        m = np.zeros(n)
        assert predictable_rate(f, m, greedy, n) >= predictable_rate(f, m, exact, n) - 1e-9


class TestFixedVsBestRate:
    def test_reference_element(self):
        got = fixed_vs_best_rate(np.ones(5), np.ones(5), 2)
        assert got == pytest.approx(4 * math.sqrt(32 * math.e) + 2, rel=1e-12)
        assert got == pytest.approx(39.30, abs=0.01)

    def test_reevaluation_oracle(self):
        f = np.ones(100)
        fstar = np.zeros(100)
        s = math.log(16) * 100.0 + math.e
        expected = 4 * math.log(s) * math.sqrt(32 * s) + 2
        assert fixed_vs_best_rate(f, fstar, 16) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(2135.377416687032, rel=1e-12)

    def test_monotone_in_distance(self):
        vals = [
            fixed_vs_best_rate(np.full(4, x), np.zeros(4), 8)
            for x in np.linspace(0.0, 1.0, 100)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_class_size_error(self):
        with pytest.raises(ValueError):
            fixed_vs_best_rate(np.ones(3), np.ones(3), 1)


class TestPacBayesRate:
    def test_zero_kl_zero_losses(self):
        pi = Distribution.uniform(2)
        got = pacbayes_rate(pi, pi, np.zeros((4, 2)))
        assert got == pytest.approx(50 * math.log(4) + 10, rel=1e-12)

    def test_unit_second_moment(self):
        pi = Distribution.uniform(2)
        n = 4
        got = pacbayes_rate(pi, pi, np.ones((n, 2)))
        assert got == pytest.approx(
            math.sqrt(50 * math.log(n) * n) + 50 * math.log(n) + 10, rel=1e-12
        )

    def test_small_loss_domination(self):
        # per-round second moment never exceeds the mixture loss on [0,1]
        gen = np.random.default_rng(21)
        for _ in range(1000):
            k = int(gen.integers(2, 6))
            n = int(gen.integers(2, 9))
            w = gen.random(k)
            f = Distribution(w / w.sum())
            ys = gen.random((n, k))
            second = float(np.sum(ys ** 2 @ f.weights))
            mixture = float(np.sum(ys @ f.weights))
            assert second <= mixture + 1e-12

    def test_infinite_outside_prior_support(self):
        pi = Distribution(np.array([1.0, 0.0]))
        f = Distribution(np.array([0.5, 0.5]))
        assert pacbayes_rate(f, pi, np.zeros((2, 2))) == math.inf

    def test_nondecreasing_in_kl(self):
        pi = Distribution.uniform(2)
        ys = np.full((8, 2), 0.5)
        vals = [
            pacbayes_rate(Distribution(np.array([0.5 + eps, 0.5 - eps])), pi, ys)
            for eps in np.linspace(0.0, 0.45, 20)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestKlRadiusRate:
    def test_clamped_radius(self):
        pi = Distribution.uniform(2)
        got = kl_radius_rate(pi, pi, 4)
        assert got == pytest.approx(3 * math.sqrt(8) + 8, rel=1e-12)
        assert got == pytest.approx(16.485, abs=1e-3)

    def test_direct_value(self):
        # point mass against a prior giving it e^{-2} mass has KL exactly 2
        f = Distribution(np.array([1.0, 0.0]))
        pi = Distribution(np.array([math.exp(-2.0), 1.0 - math.exp(-2.0)]))
        assert kl_radius_rate(f, pi, 100) == pytest.approx(100.0, rel=1e-12)

    def test_compositional_point_mass(self):
        for big_n in (4, 16, 64):
            for k in (3, 10):
                f = Distribution.point_mass(0, k)
                pi = Distribution.uniform(k)
                expected = 3 * math.sqrt(2 * big_n * max(math.log(k), 1.0)) + 4 * math.sqrt(big_n)
                assert kl_radius_rate(f, pi, big_n) == pytest.approx(expected, abs=1e-12)

    def test_prior_identity(self):
        pi = Distribution.uniform(5)
        for n in (1, 7, 100):
            assert kl_radius_rate(pi, pi, n) == 3 * math.sqrt(2 * n) + 4 * math.sqrt(n)


class TestNormAdaptiveRate:
    def test_reevaluation(self):
        inner = math.log(2.0) + math.log(math.log(2.0))
        expected = 1.0 * 2.0 * (8.0 * (1.0 + math.sqrt(inner)) + 12.0)
        got = norm_adaptive_rate(1.0, 1.0, 4)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(49.14, abs=0.01)

    def test_linear_in_smoothness_and_sqrt_n(self):
        base = norm_adaptive_rate(3.0, 1.0, 16)
        assert norm_adaptive_rate(3.0, 2.0, 16) == pytest.approx(2 * base, rel=1e-12)
        assert norm_adaptive_rate(3.0, 1.0, 64) == pytest.approx(2 * base, rel=1e-12)

    def test_asymptotic_ratio(self):
        # the ratio against r sqrt(log r) approaches 8 only for enormous
        # norms; at 1e6 it still sits near 11
        r = 1e300
        ratio = norm_adaptive_rate(r, 1.0, 4) / (2.0 * r * math.sqrt(math.log(r)))
        assert ratio == pytest.approx(8.0, rel=0.05)
        r6 = 1e6
        ratio6 = norm_adaptive_rate(r6, 1.0, 4) / (2.0 * r6 * math.sqrt(math.log(r6)))
        assert ratio6 > 10.0

    def test_below_range(self):
        with pytest.raises(ValueError, match="below adaptive range"):
            norm_adaptive_rate(0.5, 1.0, 4)


class TestGenericRadiusRate:
    def test_degenerate_rung_clamps(self):
        table = [(1.0, 3.0), (2.0, 3.0)]
        scale = math.log(16) ** 1.5
        got = generic_radius_rate(0.5, table, k1=1.0, k2=1.0, gamma=1.0, n=16)
        assert got == pytest.approx(1.0 * 3.0 * scale * 1.0 + 1.0 * 3.0 * scale, rel=1e-12)

    def test_linear_table_oracle(self):
        table = [(2.0 ** i, 2.0 ** i * 4.0) for i in range(6)]  # R * sqrt(16)
        scale = math.log(16) ** 1.5
        expected = 16.0 * scale * (
            1 + math.sqrt(math.log(16.0 / 4.0) + math.log(math.log(4.0)))
        ) + 4.0 * scale
        got = generic_radius_rate(2.0, table, k1=1.0, k2=1.0, gamma=1.0, n=16)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_radius(self):
        table = [(2.0 ** i, 2.0 ** i) for i in range(12)]
        vals = [
            generic_radius_rate(r, table, n=16)
            for r in np.linspace(0.5, 100.0, 100)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_table_gap(self):
        with pytest.raises(ValueError, match="table gap"):
            generic_radius_rate(50.0, [(1.0, 1.0), (2.0, 2.0)], n=16)


class TestAdaptiveRateDispatch:
    def test_registry(self):
        with pytest.raises(ValueError):
            AdaptiveRate("nope")

    def test_uniform_constant(self):
        rate = AdaptiveRate("uniform_constant", value=0.25)
        assert rate.evaluate(np.array([1.0, 0.0]), np.zeros((3, 2))) == 0.25
        with pytest.raises(ValueError):
            AdaptiveRate("uniform_constant", value=-1.0)

    def test_kl_radius_dispatch(self):
        pi = Distribution.uniform(2)
        rate = AdaptiveRate("kl_radius", prior=pi)
        f = np.array([0.75, 0.25])
        ys = np.zeros((4, 2))
        assert rate.evaluate(f, ys) == kl_radius_rate(Distribution(f), pi, 4)

    def test_pac_bayes_dispatch(self):
        pi = Distribution.uniform(3)
        rate = AdaptiveRate("pac_bayes", prior=pi)
        gen = np.random.default_rng(4)
        ys = gen.random((5, 3))
        f = Distribution(np.array([0.2, 0.3, 0.5]))
        assert rate.evaluate(f.weights, ys) == pacbayes_rate(f, pi, ys)

    def test_fixed_vs_best_dispatch(self):
        rate = AdaptiveRate("fixed_vs_best", fstar_index=0, class_size=4)
        ys = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        f = np.array([0.0, 1.0])
        expected = fixed_vs_best_rate(ys @ f, ys[:, 0], 4)
        assert rate.evaluate(f, ys) == expected

    def test_nonnegative_on_random_inputs(self):
        gen = np.random.default_rng(6)
        pi = Distribution.uniform(3)
        rates = [
            AdaptiveRate("kl_radius", prior=pi),
            AdaptiveRate("pac_bayes", prior=pi),
            AdaptiveRate("fixed_vs_best", fstar_index=0, class_size=3),
            AdaptiveRate("uniform_constant", value=0.0),
        ]
        for _ in range(50):
            ys = gen.random((int(gen.integers(2, 8)), 3))
            w = gen.random(3)
            f = w / w.sum()
            for rate in rates:
                assert rate.evaluate(f, ys) >= 0.0

    def test_deterministic(self):
        pi = Distribution.uniform(3)
        rate = AdaptiveRate("pac_bayes", prior=pi)
        gen = np.random.default_rng(8)
        ys = gen.random((6, 3))
        f = np.array([0.1, 0.4, 0.5])
        assert rate.evaluate(f, ys) == rate.evaluate(f, ys)


# ---------------------------------------------------------------------------
# Batched evaluation against the scalar path.
# ---------------------------------------------------------------------------

_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


def _normalised(values):
    w = np.asarray(values, dtype=float)
    return w / w.sum()


@st.composite
def _batch_case(draw):
    """Losses, a prior that may have zero entries, and comparator rows: the
    point masses, the prior, and random weight vectors with zeros."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, 8))
    positive = st.lists(_entries, min_size=k, max_size=k).filter(lambda v: sum(v) > 0)
    prior = Distribution(_normalised(draw(positive)))
    rows = [np.eye(k), prior.weights[None, :]]
    rows += [_normalised(v)[None, :] for v in draw(st.lists(positive, max_size=6))]
    losses = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
                           min_size=n, max_size=n))
    if draw(st.booleans()):
        losses = np.zeros((n, k))       # zero second moment: an infinite KL must stay inf
    return prior, np.vstack(rows), np.asarray(losses, dtype=float), draw(st.integers(0, k - 1))


def _rates(prior, fstar):
    """One rate of every registered kind."""
    params = {
        "kl_radius": dict(prior=prior),
        "pac_bayes": dict(prior=prior),
        "fixed_vs_best": dict(fstar_index=fstar, class_size=prior.support_size),
        "uniform_constant": dict(value=0.5),
    }
    return [AdaptiveRate(kind, **params[kind]) for kind in RATE_KINDS]


class TestEvaluateMany:
    @settings(max_examples=150)
    @given(_batch_case())
    def test_matches_scalar_evaluate(self, case):
        prior, rows, losses, fstar = case
        for rate in _rates(prior, fstar):
            batch = rate.evaluate_many(rows, losses)
            scalar = np.array([rate.evaluate(w, losses) for w in rows])
            assert batch.shape == (rows.shape[0],)
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=0.0, err_msg=rate.kind)

    @settings(max_examples=100)
    @given(_batch_case(), st.data())
    def test_invariant_under_permuted_outcomes(self, case, data):
        prior, rows, losses, fstar = case
        permuted = losses[data.draw(st.permutations(range(len(losses))))]
        for rate in _rates(prior, fstar):
            want = rate.evaluate_many(rows, losses)
            np.testing.assert_allclose(rate.evaluate_many(rows, permuted), want,
                                       rtol=1e-12, atol=0.0, err_msg=rate.kind)
            np.testing.assert_allclose([rate.evaluate(w, permuted) for w in rows],
                                       [rate.evaluate(w, losses) for w in rows],
                                       rtol=1e-12, atol=0.0, err_msg=rate.kind)

    def test_outside_prior_support_is_infinite(self):
        prior = Distribution(np.array([1.0, 0.0, 0.0]))
        rows = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        got = AdaptiveRate("pac_bayes", prior=prior).evaluate_many(rows, np.zeros((4, 3)))
        assert got[0] == math.inf and math.isfinite(got[1])

    @pytest.mark.parametrize("bad", [
        [math.nan, 0.5, 0.5],
        [-0.25, 0.75, 0.5],
        [0.5, 0.5, 1e-9],
    ])
    @pytest.mark.parametrize("kind", ["kl_radius", "pac_bayes"])
    def test_rejects_what_distribution_rejects(self, kind, bad):
        rate = AdaptiveRate(kind, prior=Distribution.uniform(3))
        losses = np.full((4, 3), 0.5)
        with pytest.raises(ValueError):
            Distribution(np.array(bad))
        with pytest.raises(ValueError):
            rate.evaluate(np.array(bad), losses)
        with pytest.raises(ValueError):
            rate.evaluate_many(np.array([[1.0, 0.0, 0.0], bad]), losses)
