import math

import numpy as np
import pytest

from regretlab.core import (
    BinaryTree,
    Distribution,
    GameSpec,
    RadiusLadder,
    RngSpec,
    SupportError,
    expected_loss,
    kl_divergence,
    normalize_log_weights,
    path_node_indices,
    softmax_rows,
    path_signs,
    tree_get,
)


class TestNormalizeLogWeights:
    def test_symmetric(self):
        np.testing.assert_allclose(normalize_log_weights([0.0, 0.0]).weights, [0.5, 0.5])

    def test_two_point_softmax(self):
        w = normalize_log_weights([-1.0, 0.0]).weights
        np.testing.assert_allclose(w, [1.0 / (1.0 + math.e), math.e / (1.0 + math.e)], rtol=1e-12)
        assert abs(w[0] - 0.26894) < 1e-5 and abs(w[1] - 0.73106) < 1e-5

    def test_max_shift_stability(self):
        w = normalize_log_weights([-1000.0, 0.0, -1000.0]).weights
        assert not np.any(np.isnan(w))
        assert w[1] == pytest.approx(1.0, abs=1e-12)
        assert w[0] < 1e-300 and w[2] < 1e-300
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        gen = np.random.default_rng(0)
        for _ in range(50):
            logw = gen.normal(size=gen.integers(1, 9))
            c = gen.normal() * 100
            base = normalize_log_weights(logw).weights
            shifted = normalize_log_weights(logw + c).weights
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_rows_match_one_vector_at_a_time(self):
        gen = np.random.default_rng(3)
        for k in (1, 2, 7, 8, 9, 40):
            logw = gen.normal(size=(6, k)) * 50.0
            logw[gen.random((6, k)) < 0.2] = -math.inf
            logw[:, 0] = 1.0
            rows = softmax_rows(logw)
            for row, got in zip(logw, rows):
                w = np.exp(row - np.max(row))
                assert np.array_equal(got, w / w.sum())
                assert np.array_equal(normalize_log_weights(row).weights, got)

    def test_empty_support_error(self):
        with pytest.raises(SupportError, match="empty support"):
            normalize_log_weights([-math.inf, -math.inf])

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            normalize_log_weights([0.0, math.nan])
        with pytest.raises(ValueError):
            normalize_log_weights([0.0, math.inf])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_log_weights([])


class TestDistribution:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, -0.5, 1.0]))
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))
        d = Distribution.uniform(3)
        assert d.support_size == 3
        assert not d.weights.flags.writeable

    def test_point_mass(self):
        d = Distribution.point_mass(1, 3)
        np.testing.assert_array_equal(d.weights, [0.0, 1.0, 0.0])


class TestKlDivergence:
    def test_identity(self):
        pi = Distribution.uniform(4)
        assert kl_divergence(pi, pi) == 0.0

    def test_point_vs_uniform(self):
        got = kl_divergence(Distribution.point_mass(0, 2), Distribution.uniform(2))
        assert got == pytest.approx(math.log(2), rel=1e-12)

    def test_direct_summation_oracle(self):
        f = Distribution(np.array([0.7, 0.3]))
        pi = Distribution.uniform(2)
        expected = math.fsum(
            fi * math.log(fi / pii) for fi, pii in zip(f.weights, pi.weights)
        )
        assert kl_divergence(f, pi) == pytest.approx(expected, abs=1e-12)
        gen = np.random.default_rng(1)
        for _ in range(100):
            k = int(gen.integers(2, 7))
            a = gen.random(k) + 1e-3
            b = gen.random(k) + 1e-3
            fa = Distribution(a / a.sum())
            fb = Distribution(b / b.sum())
            expected = math.fsum(
                x * math.log(x / y) for x, y in zip(fa.weights, fb.weights)
            )
            assert kl_divergence(fa, fb) == pytest.approx(expected, abs=1e-12)
            assert kl_divergence(fa, fb) >= 0.0

    def test_infinite_outside_support(self):
        f = Distribution(np.array([0.5, 0.5]))
        pi = Distribution(np.array([1.0, 0.0]))
        assert kl_divergence(f, pi) == math.inf

    def test_mismatch_error(self):
        with pytest.raises(ValueError):
            kl_divergence(Distribution.uniform(2), Distribution.uniform(3))


def _coin_game(horizon=4):
    return GameSpec.experts_game([[0.0, 1.0], [1.0, 0.0]], horizon=horizon)


class TestExpectedLoss:
    def test_point_mass(self):
        game = _coin_game()
        for d in range(2):
            for y in range(2):
                q = Distribution.point_mass(d, 2)
                assert expected_loss(q, y, game) == game.loss[d, y]

    def test_uniform_average(self):
        game = _coin_game()
        assert expected_loss(Distribution.uniform(2), 0, game) == pytest.approx(0.5)

    def test_scalar_loop_oracle(self):
        gen = np.random.default_rng(2)
        outcomes = gen.random((5, 3))
        game = GameSpec.experts_game(outcomes, horizon=2)
        for _ in range(30):
            w = gen.random(3)
            q = Distribution(w / w.sum())
            y = int(gen.integers(0, 5))
            ref = math.fsum(q.weights[d] * game.loss[d, y] for d in range(3))
            assert expected_loss(q, y, game) == pytest.approx(ref, abs=1e-14)

    def test_index_error(self):
        with pytest.raises(IndexError):
            expected_loss(Distribution.uniform(2), 7, _coin_game())


class TestBinaryTree:
    def test_root(self):
        tree = BinaryTree(1, np.array([[3.5]]))
        assert tree_get(tree, 1, ()) == pytest.approx(3.5)

    def test_depth_two_addressing(self):
        tree = BinaryTree(2, np.array([[10.0], [20.0], [30.0]]))  # (a; b, c)
        assert tree_get(tree, 2, (-1,)) == pytest.approx(20.0)
        assert tree_get(tree, 2, (1,)) == pytest.approx(30.0)

    def test_depth_three_full_enumeration(self):
        # walking every path at every level visits each stored node exactly
        # once per matching path
        nodes = np.arange(7, dtype=float)[:, None]
        tree = BinaryTree(3, nodes)
        seen = {t: [] for t in (1, 2, 3)}
        for signs in [(a, b) for a in (-1, 1) for b in (-1, 1)]:
            for t in (1, 2, 3):
                seen[t].append(float(tree_get(tree, t, signs[: t - 1])[0]))
        assert sorted(set(seen[1])) == [0.0]
        assert sorted(set(seen[2])) == [1.0, 2.0]
        assert sorted(seen[3]) == [3.0, 4.0, 5.0, 6.0]
        for t, values in seen.items():
            counts = {v: values.count(v) for v in set(values)}
            assert all(c == 4 // 2 ** (t - 1) for c in counts.values())

    def test_malformed_path(self):
        tree = BinaryTree(2, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            tree_get(tree, 2, ())
        with pytest.raises(ValueError):
            tree_get(tree, 2, (0,))
        with pytest.raises(ValueError):
            tree_get(tree, 3, (1, 1))

    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            BinaryTree(3, np.zeros((6, 1)))

    def test_path_utilities_match_tree_get(self):
        depth = 4
        gen = np.random.default_rng(3)
        tree = BinaryTree(depth, gen.normal(size=(2 ** depth - 1, 2)))
        signs = path_signs(depth)
        idx = path_node_indices(depth, signs)
        for p in range(signs.shape[0]):
            for t in range(1, depth + 1):
                walked = tree_get(tree, t, tuple(int(e) for e in signs[p, : t - 1]))
                np.testing.assert_array_equal(walked, tree.nodes[idx[p, t - 1]])


class TestGameSpecValidation:
    def test_loss_range(self):
        with pytest.raises(ValueError, match="range"):
            GameSpec.experts_game([[0.0, 2.0]], horizon=1)

    @pytest.mark.parametrize("outcomes", [
        [[0.0, math.nan], [1.0, 0.0]],
        [[0.0, 1.0], [1.0, -math.inf]],
        [[0.0, 1.0 + 1e-9]],
        [[-1e-9, 1.0]],
    ])
    @pytest.mark.parametrize("build", ["experts_game", "GameSpec"])
    def test_loss_outside_unit_range_rejected(self, outcomes, build):
        with pytest.raises(ValueError, match=r"^loss entries outside the range \[0, 1\]$"):
            if build == "experts_game":
                GameSpec.experts_game(outcomes, 2)
            else:
                GameSpec(loss=np.asarray(outcomes).T, comparators=(0,), horizon=2)

    @pytest.mark.parametrize("build", [
        lambda loss: GameSpec(loss=loss, comparators=(0, 1), horizon=1, outcomes=loss.T),
        lambda loss: GameSpec(loss=loss, comparators=(0, 1), horizon=1, decisions=(0, 1)),
        lambda loss: GameSpec(loss=loss, comparators=(0, 1), horizon=1, loss_range=(0.0, 1.0)),
        lambda loss: GameSpec.experts_game(loss.T, 1, None, (0.0, 1.0)),
        lambda loss: GameSpec.experts_game(loss.T, 1, loss_range=(0.0, 1.0)),
    ], ids=["outcomes", "decisions", "loss_range", "experts_game-4th-arg", "experts_game-loss_range"])
    def test_removed_fields_rejected(self, build):
        with pytest.raises(TypeError):
            build(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_one_loss_matrix(self):
        outcomes = [[0.0, 0.25, 1.0], [0.5, 1.0, 0.0]]       # two outcomes, three decisions
        game = GameSpec.experts_game(outcomes, 2)
        np.testing.assert_array_equal(game.loss, np.transpose(outcomes))
        assert (game.n_decisions, game.n_outcomes) == (3, 2)
        assert not game.loss.flags.writeable
        assert not hasattr(game, "outcomes") and not hasattr(game, "decisions")
        for built in (GameSpec(loss=np.transpose(outcomes), comparators=range(3), horizon=2),
                      GameSpec.experts_game(outcomes, 2, [0, 1, 2])):
            np.testing.assert_array_equal(built.loss, game.loss)
            for a, b in zip(built.comparators, game.comparators, strict=True):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("build", [
        lambda cols: GameSpec.experts_game(cols, 3),
        lambda cols: GameSpec(loss=np.transpose(cols), comparators=(0, 1), horizon=3),
    ], ids=["experts_game", "GameSpec"])
    @pytest.mark.parametrize("check,want", [
        ("admissibility worst margin", 0.9207319912280107),
        ("pac-bayes value", -99.08797346140275),
    ], ids=["margin", "pac-bayes"])
    def test_binary_game_values_pinned(self, build, check, want):
        # the 2x4 binary game at n=3: the strategy sees and is charged the
        # same column of the one loss matrix
        from regretlab.algorithms import TwoLevelRelaxation
        from regretlab.bounds import AdaptiveRate
        from regretlab.oracle import achievability_check, admissibility_check

        game = build([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        if check == "pac-bayes value":
            got = achievability_check(game, AdaptiveRate.named("pac-bayes", 2)).value
        else:
            relax = TwoLevelRelaxation(Distribution.uniform(2), 3, lambda_mode="optimized")
            got = admissibility_check(relax, game, mode="exhaustive").worst_margin
        assert got == want

    def test_empty_comparators(self):
        with pytest.raises(ValueError):
            GameSpec.experts_game([[0.0, 1.0]], horizon=1, comparators=[])

    def test_horizon(self):
        with pytest.raises(ValueError):
            GameSpec.experts_game([[0.0, 1.0]], horizon=0)

    def test_expert_indices_as_comparators(self):
        game = GameSpec.experts_game([[0.0, 1.0]], horizon=1, comparators=[0, 1])
        np.testing.assert_array_equal(game.comparators[0], [1.0, 0.0])
        np.testing.assert_array_equal(game.comparators[1], [0.0, 1.0])


class TestLadderAndRng:
    def test_ladder_doubling(self):
        ladder = RadiusLadder(5)
        np.testing.assert_array_equal(ladder.radii, [1.0, 2.0, 4.0, 8.0, 16.0])
        with pytest.raises(ValueError):
            RadiusLadder(0)

    def test_default_truncation_covers_point_masses(self):
        for n in (4, 64, 512):
            for k in (2, 16, 64):
                ladder = RadiusLadder.for_game(n, k)
                assert ladder.radii[-1] >= math.log(k)

    def test_rng_determinism(self):
        spec = RngSpec(seed=7)
        a = spec.generator().random(5)
        b = spec.generator().random(5)
        np.testing.assert_array_equal(a, b)
        c = spec.generator(offset=1).random(5)
        assert not np.array_equal(a, c)

    def test_rng_unknown_algorithm(self):
        with pytest.raises(ValueError):
            RngSpec(seed=0, algorithm="mt19937")
