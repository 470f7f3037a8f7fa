import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from regretlab import algorithms
from regretlab.algorithms import (
    GOLDEN_RATIO,
    LAMBDA_BRACKET,
    LAMBDA_FIXED,
    LAMBDA_OPTIMIZED,
    TwoLevelRelaxation,
    TwoLevelState,
    fixed_radius_inequality_check,
    highlevel_weights,
    kl_ball_minimizer,
    lowlevel_ew,
    relaxation_lambda,
    relaxation_value,
    relaxation_values,
    twolevel_predict,
)
from regretlab.core import Distribution, GameSpec, RadiusLadder, RngSpec, kl_divergence
from regretlab.oracle import admissibility_check


class TestLowLevelEw:
    def test_empty_history_is_prior(self):
        pi = Distribution(np.array([0.2, 0.3, 0.5]))
        np.testing.assert_array_equal(lowlevel_ew(pi, 2.0, 8, []).weights, pi.weights)

    def test_two_point_softmax(self):
        pi = Distribution.uniform(2)
        q = lowlevel_ew(pi, 4.0, 4, [[1.0, 0.0]])
        np.testing.assert_allclose(
            q.weights, [math.exp(-1) / (math.exp(-1) + 1), 1 / (math.exp(-1) + 1)], rtol=1e-12
        )
        assert q.weights[0] == pytest.approx(0.26894, abs=1e-5)

    def test_constant_shift_invariance(self):
        pi = Distribution(np.array([0.6, 0.4]))
        gen = np.random.default_rng(0)
        ys = gen.random((5, 2))
        shifted = ys + 0.37
        base = lowlevel_ew(pi, 1.0, 8, ys).weights
        moved = lowlevel_ew(pi, 1.0, 8, shifted).weights
        np.testing.assert_allclose(moved, base, atol=1e-12)

    def test_zero_radius_returns_prior(self):
        pi = Distribution(np.array([0.25, 0.75]))
        gen = np.random.default_rng(1)
        q = lowlevel_ew(pi, 0.0, 8, gen.random((6, 2)))
        np.testing.assert_allclose(q.weights, pi.weights, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lowlevel_ew(Distribution.uniform(2), 1.0, 4, [[1.0, 0.0, 0.0]])


def _random_state(seed, k=2, n=16, i_max=4, mode=LAMBDA_FIXED, rounds=None):
    gen = RngSpec(seed=seed).generator()
    return _played(gen.random((n if rounds is None else rounds, k)), n, i_max, mode)


def _played(ys, n, i_max, mode):
    """State after playing the rows of ys from the empty prefix."""
    state = TwoLevelState(Distribution.uniform(np.shape(ys)[1]), RadiusLadder(i_max), n, mode)
    for y in ys:
        state.update(y)
    return state


class TestHighLevelWeights:
    def test_first_round_fixed_mode(self):
        state = TwoLevelState(Distribution.uniform(2), RadiusLadder(4), 16, LAMBDA_FIXED)
        w = highlevel_weights(state).weights
        raw = np.exp(-np.sqrt(RadiusLadder(4).radii))
        np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-12)

    def test_single_rung_point_mass(self):
        state = _random_state(3, i_max=1, rounds=5)
        np.testing.assert_array_equal(highlevel_weights(state).weights, [1.0])

    def test_both_modes_normalize(self):
        for mode in (LAMBDA_FIXED, LAMBDA_OPTIMIZED):
            state = _random_state(4, i_max=4, mode=mode, rounds=9)
            w = highlevel_weights(state).weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0)

    def test_round_values_admissible_under_both_modes(self):
        # sampled admissibility audit over prefixes of an n=16 binary game
        import itertools

        outcomes = [list(v) for v in itertools.product([0, 1], repeat=2)]
        game = GameSpec.experts_game(outcomes, horizon=16)
        for mode in (LAMBDA_FIXED, LAMBDA_OPTIMIZED):
            relax = TwoLevelRelaxation(Distribution.uniform(2), 16, RadiusLadder(4), mode)
            report = admissibility_check(
                relax, game, mode="sampled", sample_count=40, rng=RngSpec(seed=5)
            )
            assert report.verdict, (mode, report.worst_margin)


@st.composite
def _lse_batch(draw):
    """A (rows, length) batch: magnitudes 1e-3 to 1e3 of either sign, and
    some entries of each row forced onto its maximum."""
    length = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = np.array([draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
                        for _ in range(length)])
        tied = draw(st.permutations(range(length)))[:draw(st.integers(0, length - 1))]
        row[list(tied)] = row.max()
        rows.append(row)
    return np.array(rows)


def _scipy_release() -> tuple:
    return tuple(int(part) for part in scipy.__version__.split(".")[:2])


@pytest.mark.skipif(_scipy_release() < (1, 17),
                    reason="the copy follows the log-sum-exp algorithm of scipy 1.17; "
                           "earlier releases sum differently")
class TestLogSumExpRows:
    @settings(max_examples=400)
    @given(_lse_batch())
    def test_every_row_equals_scipy(self, batch):
        got = algorithms._logsumexp_rows(batch)
        for row, value in zip(batch, got):
            assert value == logsumexp(row)
            assert algorithms._logsumexp_rows(row[None, :])[0] == value

    def test_one_entry_and_all_tied(self):
        for row in ([0.37], [-812.5], [5.0, 5.0, 5.0]):
            a = np.array([row])
            assert algorithms._logsumexp_rows(a)[0] == logsumexp(a[0])


def _golden_reference(exponents, remaining, horizon, tol):
    """The scalar golden-section search over one exponent row, with scipy's
    log-sum-exp: ((value, log-scale), iterations, ties at the final pick,
    final bracket width)."""
    def fn(x):
        lam = math.exp(x)
        return float(logsumexp(-lam * exponents) / lam + 2.0 * lam * remaining)

    root = math.sqrt(horizon)
    lo, hi = math.log(LAMBDA_BRACKET[0] / root), math.log(LAMBDA_BRACKET[1] / root)
    a, b = lo, hi
    c, d = b - GOLDEN_RATIO * (b - a), a + GOLDEN_RATIO * (b - a)
    fc, fd = fn(c), fn(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO * (b - a)
            fd = fn(d)
    picks = [(fn(lo), lo), (fc, c), (fd, d), (fn(hi), hi)]
    best = min(picks)
    return best, iterations, sum(v == best[0] for v, _ in picks) - 1, b - a


def _exponent_batch(gen, rows, i_max, horizon):
    rounds = gen.integers(0, horizon + 1, size=rows)
    exponents = gen.random((rows, i_max)) * rounds[:, None] + np.sqrt(horizon * 2.0 ** np.arange(i_max))
    return exponents, (horizon - rounds).astype(float)


class TestScaleSearch:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 8), i_max=st.integers(1, 6),
           horizon=st.integers(1, 16))
    def test_every_row_matches_its_own_search(self, seed, rows, i_max, horizon):
        exponents, remaining = _exponent_batch(np.random.default_rng(seed), rows, i_max, horizon)
        values, logs = algorithms._scale_search(exponents, remaining, horizon)
        for j in range(rows):
            alone = algorithms._scale_search(exponents[j:j + 1], remaining[j:j + 1], horizon)
            assert (values[j], logs[j]) == (alone[0][0], alone[1][0])
            want = _golden_reference(exponents[j], remaining[j], horizon, algorithms.GOLDEN_TOL)[0]
            assert (values[j], logs[j]) == want

    def test_rows_that_stop_apart_and_tie_at_the_pick(self, monkeypatch):
        gen = np.random.default_rng(17)
        horizon = 4
        exponents, remaining = _exponent_batch(gen, 40, 3, horizon)
        # the rows' brackets shrink below 1e-5 together, but their widths
        # differ in the last bits: a tolerance at the least of them stops
        # those rows one iteration before the others
        tol = min(_golden_reference(e, r, horizon, 1e-5)[3] for e, r in zip(exponents, remaining))
        monkeypatch.setattr(algorithms, "GOLDEN_TOL", tol)
        values, logs = algorithms._scale_search(exponents, remaining, horizon)
        iterations, ties = set(), 0
        for j, (e, r) in enumerate(zip(exponents, remaining)):
            want, count, tied, _ = _golden_reference(e, r, horizon, tol)
            assert (values[j], logs[j]) == want
            iterations.add(count)
            ties += tied > 0
        assert len(iterations) > 1 and ties > 0


class TestTwoLevelPredict:
    def test_first_round_is_prior(self):
        state = TwoLevelState(Distribution.uniform(2), RadiusLadder(3), 8, LAMBDA_FIXED)
        np.testing.assert_allclose(twolevel_predict(state).weights, [0.5, 0.5], atol=1e-15)

    def test_single_rung_equals_lowlevel(self):
        ys = RngSpec(seed=6).generator().random((7, 3))
        state = _played(ys, 16, 1, LAMBDA_FIXED)
        got = twolevel_predict(state).weights
        expected = lowlevel_ew(state.prior, 1.0, 16, ys).weights
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_two_stage_sampling_matches_mixture(self):
        state = _random_state(7, k=3, n=16, i_max=4, rounds=10)
        mix = twolevel_predict(state).weights
        hw = highlevel_weights(state).weights
        rungs = state.rung_q
        gen = RngSpec(seed=8).generator()
        m = 10 ** 5
        i_draw = gen.choice(4, size=m, p=hw)
        u = gen.random(m)
        experts = (u[:, None] > np.cumsum(rungs, axis=1)[i_draw]).sum(axis=1)
        freq = np.bincount(experts, minlength=3) / m
        se = np.sqrt(mix * (1 - mix) / m)
        assert np.all(np.abs(freq - mix) <= 4 * se + 1e-12)

    def test_replay_determinism(self):
        gen = RngSpec(seed=9).generator()
        ys = gen.random((12, 2))
        seqs = []
        for _ in range(2):
            state = TwoLevelState(Distribution.uniform(2), RadiusLadder(3), 12, LAMBDA_OPTIMIZED)
            preds = []
            for y in ys:
                preds.append(twolevel_predict(state).weights.copy())
                state.update(y)
            seqs.append(np.array(preds))
        np.testing.assert_array_equal(seqs[0], seqs[1])


class TestStateFork:
    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 10),
           st.sampled_from([LAMBDA_FIXED, LAMBDA_OPTIMIZED]), st.data())
    def test_advancing_a_copy_leaves_the_original(self, seed, k, n, mode, data):
        ys = RngSpec(seed=seed).generator().random((n, k))
        fork_at = data.draw(st.integers(0, n - 1))
        state = _played(ys[:fork_at], n, 3, mode)
        before = (relaxation_value(state), twolevel_predict(state).weights,
                  state.rung_cumulative.copy(), state.cumulative_losses.copy())
        twin = state.copy()
        for y in ys[fork_at:]:
            twin.update(y)
        assert twin.t == n and state.t == fork_at
        assert relaxation_value(state) == before[0]
        np.testing.assert_array_equal(twolevel_predict(state).weights, before[1])
        np.testing.assert_array_equal(state.rung_cumulative, before[2])
        np.testing.assert_array_equal(state.cumulative_losses, before[3])
        # the advanced copy is where a fresh play of every row arrives
        fresh = _played(ys, n, 3, mode)
        np.testing.assert_array_equal(twin.rung_cumulative, fresh.rung_cumulative)
        assert relaxation_value(twin) == relaxation_value(fresh)


class TestRelaxationValue:
    def test_empty_prefix_fixed_mode_bound(self):
        state = TwoLevelState(Distribution.uniform(2), RadiusLadder(3), 16, LAMBDA_FIXED)
        assert relaxation_value(state) <= 4 * math.sqrt(16)

    def test_single_rung_terminal_closed_form(self):
        for n in (4, 16, 64):
            state = _random_state(n, k=3, n=n, i_max=1, mode=LAMBDA_OPTIMIZED, rounds=n)
            total = float(state.rung_cumulative[0])
            assert relaxation_value(state) == pytest.approx(-(total + math.sqrt(n)), abs=1e-6)

    def test_optimized_never_worse_than_fixed(self):
        gen = RngSpec(seed=10).generator()
        for _ in range(100):
            n = int(gen.integers(2, 17))
            t = int(gen.integers(0, n + 1))
            k = int(gen.integers(2, 5))
            ys = gen.random((t, k))
            opt = _played(ys, n, 3, LAMBDA_OPTIMIZED)
            fix = _played(ys, n, 3, LAMBDA_FIXED)
            assert relaxation_value(opt) <= relaxation_value(fix) + 1e-9

    def test_optimized_lambda_inside_bracket(self):
        state = _random_state(13, rounds=8, mode=LAMBDA_OPTIMIZED)
        lam = relaxation_lambda(state)
        root = math.sqrt(state.horizon)
        assert 1e-6 / root <= lam <= 1e3 / root


class TestRelaxationValues:
    @pytest.mark.parametrize("mode", [LAMBDA_FIXED, LAMBDA_OPTIMIZED])
    def test_batch_matches_one_state_at_a_time(self, mode):
        gen = RngSpec(seed=35).generator()
        ys = (gen.random((9, 3)) < 0.5).astype(float)
        states = [_played(ys[:t], 9, 4, mode) for t in range(10)]
        # repeated and coinciding states in one batch
        batch = states + [states[3].copy(), _played(ys[:3], 9, 4, mode), states[0]]
        values = relaxation_values(batch)
        lambdas = [relaxation_lambda(state) for state in batch]
        for state, value, lam in zip(batch, values, lambdas):
            fresh = _played(ys[:state.t], 9, 4, mode)
            assert value == relaxation_value(fresh)
            assert lam == relaxation_lambda(fresh)

    def test_update_drops_the_found_scale(self):
        ys = RngSpec(seed=36).generator().random((4, 2))
        state = _played(ys[:2], 8, 3, LAMBDA_OPTIMIZED)
        relaxation_values([state])
        state.update(ys[2])
        assert state.scale is None
        assert relaxation_lambda(state) == relaxation_lambda(_played(ys[:3], 8, 3, LAMBDA_OPTIMIZED))

    def test_mixed_batches_fail_loudly(self):
        a = _played(np.zeros((1, 2)), 8, 3, LAMBDA_OPTIMIZED)
        with pytest.raises(ValueError):
            relaxation_values([a, _played(np.zeros((1, 2)), 8, 3, LAMBDA_FIXED)])
        with pytest.raises(ValueError):
            relaxation_values([a, _played(np.zeros((1, 2)), 9, 3, LAMBDA_OPTIMIZED)])
        assert relaxation_values([]).shape == (0,)


class TestKlBallMinimizer:
    def test_zero_radius(self):
        pi = Distribution(np.array([0.3, 0.7]))
        cum = np.array([5.0, 1.0])
        f, value = kl_ball_minimizer(pi, 0.0, cum)
        np.testing.assert_array_equal(f.weights, pi.weights)
        assert value == pytest.approx(float(np.dot(cum, pi.weights)))

    def test_unconstrained_limit(self):
        f, value = kl_ball_minimizer(Distribution.uniform(2), 1e6, np.array([0.0, 1.0]))
        np.testing.assert_array_equal(f.weights, [1.0, 0.0])
        assert value == 0.0

    def test_simplex_scan_oracle(self):
        # two-stage uniform grid scan over the K=3 ball, about 1e6 points per
        # stage; every scanned point upper-bounds the true minimum
        pi = Distribution.uniform(3)
        radius = 0.2
        gen = RngSpec(seed=31).generator()
        cum = gen.random(3)
        _, v_star = kl_ball_minimizer(pi, radius, cum)

        def kl_rows(points):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(points > 0, points * np.log(points * 3.0), 0.0)
            return terms.sum(axis=1)

        m = 1412
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = (i + j) <= m
        pts = np.stack([i[keep] / m, j[keep] / m, 1 - (i[keep] + j[keep]) / m], axis=1)
        feas = kl_rows(pts) <= radius
        vals = pts[feas] @ cum
        best = pts[feas][np.argmin(vals)]
        span = 3.0 / m
        g = np.linspace(-span, span, 1001)
        da, db = np.meshgrid(g, g, indexing="ij")
        a2 = best[0] + da.ravel()
        b2 = best[1] + db.ravel()
        c2 = 1 - a2 - b2
        ok = (a2 >= 0) & (b2 >= 0) & (c2 >= 0)
        pts2 = np.stack([a2[ok], b2[ok], c2[ok]], axis=1)
        scan = min(float(vals.min()), float((pts2[kl_rows(pts2) <= radius] @ cum).min()))
        assert v_star <= scan + 1e-10
        assert scan - v_star <= 1e-4

    def test_kl_constraint_honored(self):
        gen = RngSpec(seed=32).generator()
        pi = Distribution.uniform(4)
        for _ in range(100):
            radius = float(gen.random() * 3)
            f, _ = kl_ball_minimizer(pi, radius, gen.random(4) * 5)
            assert kl_divergence(f, pi) <= radius + 1e-8

    def test_value_nonincreasing_in_radius(self):
        pi = Distribution.uniform(3)
        cum = np.array([2.0, 0.5, 1.0])
        values = [kl_ball_minimizer(pi, r, cum)[1] for r in np.linspace(0.0, 2.0, 50)]
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            kl_ball_minimizer(Distribution.uniform(2), -0.1, np.zeros(2))


class TestFixedRadiusInequality:
    def test_zero_losses_margin(self):
        pi = Distribution.uniform(2)
        report = fixed_radius_inequality_check(pi, 1.0, 8, np.zeros((8, 2)))
        assert report.margin == pytest.approx(2 * math.sqrt(8), rel=1e-12)
        assert not report.violation

    def test_alternating_adversary(self):
        pi = Distribution.uniform(2)
        ys = np.array([[1.0, 0.0], [0.0, 1.0]] * 4)
        report = fixed_radius_inequality_check(pi, 1.0, 8, ys)
        assert report.margin >= 0.0

    def test_random_battery(self):
        gen = RngSpec(seed=33).generator()
        for _ in range(200):
            k = int(gen.integers(2, 6))
            n = int(gen.integers(1, 17))
            radius = [0.1, 1.0, 4.0][int(gen.integers(0, 3))]
            w = gen.random(k)
            prior = Distribution(w / w.sum())
            report = fixed_radius_inequality_check(prior, radius, n, gen.random((n, k)))
            assert not report.violation

    def test_loss_range_guard(self):
        with pytest.raises(ValueError):
            fixed_radius_inequality_check(Distribution.uniform(2), 1.0, 2, np.full((2, 2), 1.5))

    @settings(max_examples=80)
    @given(k=st.integers(1, 6), n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           radius=st.sampled_from([0.0, 0.1, 1.0, 4.0, 17.5]), zero_rows=st.integers(0, 5))
    def test_margin_matches_prefix_replay(self, k, n, seed, radius, zero_rows):
        gen = np.random.default_rng(seed)
        w = gen.random(k) * (gen.random(k) < 0.8)
        w[int(gen.integers(k))] += 0.5
        prior = Distribution(w / w.sum())
        ys = gen.random((n, k))
        ys[:min(zero_rows, n)] = 0.0  # no loss yet: the strategy is the prior
        report = fixed_radius_inequality_check(prior, radius, n, ys)
        # the strategy of every round rebuilt from its whole prefix
        algo = sum(float(np.dot(lowlevel_ew(prior, radius, n, ys[:t]).weights, ys[t]))
                   for t in range(n))
        _, best = kl_ball_minimizer(prior, radius, ys.sum(axis=0))
        margin = -algo + 2.0 * math.sqrt(radius * n) + best
        assert report.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
        assert report.violation == (margin < -1e-8)


class TestTwoLevelRelaxationObject:
    def test_strategy_matches_predict(self):
        gen = RngSpec(seed=34).generator()
        ys = gen.random((5, 2))
        relax = TwoLevelRelaxation(Distribution.uniform(2), 8, RadiusLadder(3), LAMBDA_FIXED)
        state = relax.start()
        for y in ys:
            state.update(y)
        direct = _played(ys, 8, 3, LAMBDA_FIXED)
        np.testing.assert_array_equal(relax.strategy(state).weights, twolevel_predict(direct).weights)
        assert relax.value(state) == relaxation_value(direct)

    def test_rate_is_kl_radius(self):
        relax = TwoLevelRelaxation(Distribution.uniform(4), 16)
        f = np.array([0.7, 0.1, 0.1, 0.1])
        from regretlab.bounds import kl_radius_rate

        assert relax.rate(f) == kl_radius_rate(Distribution(f), relax.prior, 16)

    def test_default_ladder_from_game(self):
        relax = TwoLevelRelaxation(Distribution.uniform(8), 256)
        assert relax.ladder.radii[-1] >= math.log(8)
