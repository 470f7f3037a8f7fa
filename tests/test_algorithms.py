import math

import numpy as np
import pytest

from regretlab.algorithms import (
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
    state = TwoLevelState(Distribution.uniform(k), RadiusLadder(i_max), n, mode)
    for _ in range(n if rounds is None else rounds):
        state.update(gen.random(k))
    return state


class TestHighLevelWeights:
    def test_first_round_fixed_mode(self):
        state = TwoLevelState(Distribution.uniform(2), RadiusLadder(4), 16, LAMBDA_FIXED)
        w = highlevel_weights(state, 1).weights
        raw = np.exp(-np.sqrt(RadiusLadder(4).radii))
        np.testing.assert_allclose(w, raw / raw.sum(), rtol=1e-12)

    def test_single_rung_point_mass(self):
        state = _random_state(3, i_max=1, rounds=5)
        np.testing.assert_array_equal(highlevel_weights(state, 6).weights, [1.0])

    def test_both_modes_normalize(self):
        for mode in (LAMBDA_FIXED, LAMBDA_OPTIMIZED):
            state = _random_state(4, i_max=4, mode=mode, rounds=9)
            w = highlevel_weights(state, 10).weights
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


class TestTwoLevelPredict:
    def test_first_round_is_prior(self):
        state = TwoLevelState(Distribution.uniform(2), RadiusLadder(3), 8, LAMBDA_FIXED)
        np.testing.assert_allclose(twolevel_predict(state, 1).weights, [0.5, 0.5], atol=1e-15)

    def test_single_rung_equals_lowlevel(self):
        state = _random_state(6, k=3, i_max=1, rounds=7)
        got = twolevel_predict(state, 8).weights
        expected = lowlevel_ew(state.prior, 1.0, 16, state.outcome_history).weights
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_two_stage_sampling_matches_mixture(self):
        state = _random_state(7, k=3, n=16, i_max=4, rounds=10)
        mix = twolevel_predict(state, 11).weights
        hw = highlevel_weights(state, 11).weights
        rungs = state.rung_distributions()
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
                preds.append(twolevel_predict(state, state.t + 1).weights.copy())
                state.update(y)
            seqs.append(np.array(preds))
        np.testing.assert_array_equal(seqs[0], seqs[1])


class TestRungPrefixSums:
    @pytest.mark.parametrize("mode", [LAMBDA_FIXED, LAMBDA_OPTIMIZED])
    def test_past_rounds_match_replayed_prefix(self, mode):
        gen = RngSpec(seed=14).generator()
        ys = gen.random((12, 3))
        state = TwoLevelState(Distribution.uniform(3), RadiusLadder(4), 12, mode)
        played = []
        for y in ys:
            q = twolevel_predict(state, state.t + 1)
            played.append(float(np.dot(q.weights, y)))
            state.update(y)
        for t in range(1, state.t):
            replayed = TwoLevelState.replay(state.prior, state.ladder, state.horizon,
                                            ys[: t - 1], mode)
            np.testing.assert_array_equal(highlevel_weights(state, t).weights,
                                          highlevel_weights(replayed, t).weights)
            assert float(np.dot(twolevel_predict(state, t).weights, ys[t - 1])) == played[t - 1]
        np.testing.assert_array_equal(state.rung_cumulative_losses(),
                                      np.sum(state.rung_round_losses, axis=0))


class TestRelaxationValue:
    def test_empty_prefix_fixed_mode_bound(self):
        state = TwoLevelState(Distribution.uniform(2), RadiusLadder(3), 16, LAMBDA_FIXED)
        assert relaxation_value(state) <= 4 * math.sqrt(16)

    def test_single_rung_terminal_closed_form(self):
        for n in (4, 16, 64):
            state = _random_state(n, k=3, n=n, i_max=1, mode=LAMBDA_OPTIMIZED, rounds=n)
            total = float(np.sum(state.rung_round_losses))
            assert relaxation_value(state) == pytest.approx(-(total + math.sqrt(n)), abs=1e-6)

    def test_optimized_never_worse_than_fixed(self):
        gen = RngSpec(seed=10).generator()
        for _ in range(100):
            n = int(gen.integers(2, 17))
            t = int(gen.integers(0, n + 1))
            k = int(gen.integers(2, 5))
            ys = gen.random((t, k))
            opt = TwoLevelState.replay(Distribution.uniform(k), RadiusLadder(3), n, ys, LAMBDA_OPTIMIZED)
            fix = TwoLevelState.replay(Distribution.uniform(k), RadiusLadder(3), n, ys, LAMBDA_FIXED)
            assert relaxation_value(opt) <= relaxation_value(fix) + 1e-9

    def test_explicit_prefix_matches_replay(self):
        state = _random_state(12, rounds=10)
        prefix = state.outcome_history[:4]
        by_arg = relaxation_value(state, prefix)
        replayed = TwoLevelState.replay(state.prior, state.ladder, state.horizon, prefix, state.lambda_mode)
        assert by_arg == relaxation_value(replayed)

    def test_optimized_lambda_inside_bracket(self):
        state = _random_state(13, rounds=8, mode=LAMBDA_OPTIMIZED)
        lam = relaxation_lambda(state, 9)
        root = math.sqrt(state.horizon)
        assert 1e-6 / root <= lam <= 1e3 / root


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


class TestTwoLevelRelaxationObject:
    def test_strategy_matches_predict(self):
        gen = RngSpec(seed=34).generator()
        ys = gen.random((5, 2))
        relax = TwoLevelRelaxation(Distribution.uniform(2), 8, RadiusLadder(3), LAMBDA_FIXED)
        state = TwoLevelState.replay(relax.prior, relax.ladder, 8, ys, LAMBDA_FIXED)
        np.testing.assert_array_equal(
            relax.strategy(ys).weights, twolevel_predict(state, 6).weights
        )

    def test_rate_is_kl_radius(self):
        relax = TwoLevelRelaxation(Distribution.uniform(4), 16)
        f = np.array([0.7, 0.1, 0.1, 0.1])
        from regretlab.bounds import kl_radius_rate

        assert relax.rate(f) == kl_radius_rate(Distribution(f), relax.prior, 16)

    def test_default_ladder_from_game(self):
        relax = TwoLevelRelaxation(Distribution.uniform(8), 256)
        assert relax.ladder.radii[-1] >= math.log(8)
