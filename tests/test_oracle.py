import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from regretlab import oracle
from regretlab.algorithms import LAMBDA_FIXED, LAMBDA_MODES, TwoLevelRelaxation, kl_ball_minimizer
from regretlab.bounds import RATE_NAMES, AdaptiveRate
from regretlab.core import Distribution, GameSpec, RadiusLadder, RngSpec, expected_loss
from regretlab.harness import simplex_grid
from regretlab.oracle import (
    LP_GAP_TOL,
    BudgetError,
    achievability_check,
    admissibility_check,
    matrix_game_value,
    regret_certificate,
)


def _binary_game(horizon, comparators=None):
    outcomes = [list(v) for v in itertools.product([0.0, 1.0], repeat=2)]
    return GameSpec.experts_game(outcomes, horizon=horizon, comparators=comparators)


def _fresh_state(relax, game, seq):
    """The relaxation's state at a prefix, played afresh from the empty prefix."""
    state = relax.start()
    for y in seq:
        state.update(game.loss[:, y])
    return state


def _fresh_margins(relax, game):
    """Every exhaustive margin, each prefix's state built afresh."""
    n, m = game.horizon, game.n_outcomes
    recursive = []
    for t in range(n):
        for prefix in itertools.product(range(m), repeat=t):
            state = _fresh_state(relax, game, prefix)
            q = relax.strategy(state)
            worst = max(expected_loss(q, y, game) + relax.value(_fresh_state(relax, game, prefix + (y,)))
                        for y in range(m))
            recursive.append((prefix, relax.value(state) - worst))
    initial = []
    for seq in itertools.product(range(m), repeat=n):
        cum = game.loss[:, list(seq)].sum(axis=1)
        best = min(float(np.dot(f, cum)) + relax.rate(f) for f in game.comparators)
        initial.append((seq, relax.value(_fresh_state(relax, game, seq)) + best))
    return tuple(recursive), tuple(initial)


class _Counted:
    """Replace ``oracle.<name>`` by a wrapper that counts its calls."""

    def __init__(self, name):
        self.name, self.calls = name, 0

    def __enter__(self):
        self.original = getattr(oracle, self.name)

        def counted(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        setattr(oracle, self.name, counted)
        return self

    def __exit__(self, *exc):
        setattr(oracle, self.name, self.original)


def _reference_tree(game, rate, refine):
    """Root value, worst path and history count by a plain recursion over the
    history tree, with leaf payoffs written out here."""
    ladder = RadiusLadder.for_game(game.horizon, rate.prior.support_size) if refine else None

    def leaf(history):
        columns = game.loss[:, list(history)]
        ys, cum = columns.T, columns.sum(axis=1)
        losses = [float(np.dot(f, cum)) + rate.evaluate(f, ys) for f in game.comparators]
        if ladder is not None:
            for radius in ladder.radii:
                f_star, _ = kl_ball_minimizer(rate.prior, float(radius), cum)
                losses.append(float(np.dot(f_star.weights, cum)) + rate.evaluate(f_star, ys))
        return -min(losses)

    def value(history):
        """(value, worst continuation, histories visited) below ``history``."""
        if len(history) == game.horizon:
            return leaf(history), (), 1
        below = [value(history + (y,)) for y in range(game.n_outcomes)]
        m = game.loss + np.array([v for v, _, _ in below])[None, :]
        val, q, _ = matrix_game_value(m)
        y = int(np.argmax(q.weights @ m))
        return val, (y,) + below[y][1], 1 + sum(c for _, _, c in below)

    return value(())


def _lp_value(m):
    """Value of the zero-sum game ``m`` (rows minimise) by one HiGHS LP."""
    r, c = m.shape
    res = linprog(np.r_[np.zeros(r), 1.0], A_ub=np.hstack([m.T, -np.ones((c, 1))]),
                  b_ub=np.zeros(c), A_eq=np.r_[np.ones(r), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * r + [(None, None)], method="highs")
    assert res.success
    return float(res.fun)


def _random_game(seed, rows, cols, integer, scale):
    m = np.random.default_rng(seed).uniform(-scale, scale, (rows, cols))
    return np.round(m / scale * 2.0) if integer else m  # integers: ties and degenerate games


class TestMatrixGameValue:
    def test_matching_pennies_vs_grid_oracle(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        value, row, col = matrix_game_value(m)
        grid = np.linspace(0.0, 1.0, 10 ** 4)
        brute = min(max(q * m[0, y] + (1 - q) * m[1, y] for y in range(2)) for q in grid)
        assert value == pytest.approx(brute, abs=1e-4)
        assert value == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(row.weights, [0.5, 0.5], atol=1e-9)

    def test_constant_matrix(self):
        value, _, _ = matrix_game_value(np.full((3, 2), 0.7))
        assert value == pytest.approx(0.7, abs=1e-9)

    def test_single_row_column_player_maximizes(self):
        value, row, col = matrix_game_value([[1.0, 2.0]])
        assert value == pytest.approx(2.0, abs=1e-9)
        assert col.weights[1] == pytest.approx(1.0, abs=1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            matrix_game_value([[0.0, math.nan]])

    def test_saddle_point_conditions_random(self):
        gen = RngSpec(seed=12).generator()
        for _ in range(25):
            m = gen.random((int(gen.integers(1, 5)), int(gen.integers(1, 5)))) * 4 - 2
            value, row, col = matrix_game_value(m)
            assert float(np.max(row.weights @ m)) <= value + 1e-9
            assert float(np.min(m @ col.weights)) >= value - 1e-9

    @settings(max_examples=120)
    @given(rows=st.integers(1, 6), cols=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           integer=st.booleans(), scale=st.sampled_from([1.0, 3.0, 50.0]))
    def test_one_lp_and_a_checked_saddle(self, rows, cols, seed, integer, scale):
        m = _random_game(seed, rows, cols, integer, scale)
        with _Counted("linprog") as lp:
            value, row, col = matrix_game_value(m)
        assert lp.calls == (0 if rows == 2 else 1)  # two rows take the closed form
        assert row.weights.shape == (rows,) and col.weights.shape == (cols,)
        for w in (row.weights, col.weights):
            assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
        upper, lower = float(np.max(row.weights @ m)), float(np.min(m @ col.weights))
        tol = LP_GAP_TOL * max(1.0, abs(value))
        assert upper - lower <= tol
        assert lower - tol <= value <= upper + tol

    @pytest.mark.parametrize("corrupt", [
        lambda y: -np.eye(y.size)[0],        # all mass on the first column
        lambda y: y[::-1],                   # columns reversed
        lambda y: np.zeros_like(y),          # no dual at all
    ], ids=["point-mass", "reversed", "zero"])
    def test_corrupted_duals_raise(self, corrupt, monkeypatch):
        # the column player's only optimal strategy is (2/3, 1/3); the
        # dominated third row sends the game down the LP path
        m = np.array([[0.0, 2.0], [1.0, 0.0], [3.0, 3.0]])
        real = oracle.linprog

        def stub(*args, **kwargs):
            res = real(*args, **kwargs)
            res.ineqlin.marginals = corrupt(res.ineqlin.marginals)
            return res

        monkeypatch.setattr(oracle, "linprog", stub)
        with np.errstate(invalid="ignore"), pytest.raises(AssertionError, match="saddle gap"):
            matrix_game_value(m)

    @pytest.mark.parametrize("corrupt", [
        lambda p: np.eye(p.size)[0],         # all mass on the first column
        lambda p: p[::-1],                   # columns reversed
        lambda p: np.full_like(p, 1.0 / p.size),
    ], ids=["point-mass", "reversed", "uniform"])
    def test_corrupted_closed_form_column_raises(self, corrupt, monkeypatch):
        # the column player's only optimal strategy is (2/3, 0, 1/3)
        m = np.array([[0.0, 0.5, 2.0], [1.0, 0.5, 0.0]])
        real = oracle._envelope_game
        assert matrix_game_value(m)[2].weights == pytest.approx([2 / 3, 0.0, 1 / 3], abs=1e-15)

        def stub(matrix):
            value, q, p = real(matrix)
            return value, q, corrupt(p)

        monkeypatch.setattr(oracle, "_envelope_game", stub)
        with pytest.raises(AssertionError, match="saddle gap"):
            matrix_game_value(m)

    @settings(max_examples=300)
    @given(cols=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           integer=st.booleans(), scale=st.sampled_from([1.0, 3.0, 50.0]))
    def test_two_row_closed_form_matches_the_lp(self, cols, seed, integer, scale):
        m = _random_game(seed, 2, cols, integer, scale)
        want = _lp_value(m)
        assert abs(matrix_game_value(m)[0] - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("m", [
        [[0.0, 0.0], [0.0, 0.0]],                   # every strategy optimal
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
        [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]],         # a flat line through the kink
        [[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]],
        [[0.0, 1.0], [0.0, 1.0]],                   # parallel lines
        [[0.0, 3.0, 1.0, 2.0], [3.0, 0.0, 2.0, 1.0]],  # two pairs cross at q = 1/2
        [[-1.0, 5.0], [2.0, 5.0]],                  # a dominating column
        [[1.0, 0.0], [2.0, 3.0]],                   # optimum at q = 1
        [[2.0, 3.0], [1.0, 0.0]],                   # optimum at q = 0
    ])
    def test_degenerate_two_row_games(self, m):
        m = np.array(m)
        assert matrix_game_value(m)[0] == pytest.approx(_lp_value(m), rel=1e-12, abs=1e-12)


def _value(game, rate):
    return achievability_check(game, rate).value


class TestOffsetMinimaxValue:
    def test_single_option_zero_rate(self):
        game = GameSpec.experts_game([[0.4]], horizon=3)
        rate = AdaptiveRate("uniform_constant", value=0.0)
        assert _value(game, rate) == pytest.approx(0.0, abs=1e-9)

    def test_two_experts_one_round(self):
        game = GameSpec.experts_game([[1.0, 0.0], [0.0, 1.0]], horizon=1)
        rate = AdaptiveRate("uniform_constant", value=0.0)
        value = _value(game, rate)
        assert value == pytest.approx(0.5, abs=1e-9)
        # brute force: min over a fine q grid of max over outcomes of
        # q-loss plus the (zero-rate) leaf value
        grid = np.linspace(0.0, 1.0, 10 ** 4)
        leaf = [-min(game.loss[d, y] for d in range(2)) for y in range(2)]
        brute = min(
            max(q * game.loss[0, y] + (1 - q) * game.loss[1, y] + leaf[y] for y in range(2))
            for q in grid
        )
        assert value == pytest.approx(brute, abs=1e-4)

    def test_constant_rate_shifts_leaf(self):
        game = GameSpec.experts_game([[1.0, 0.0], [0.0, 1.0]], horizon=1)
        rate = AdaptiveRate("uniform_constant", value=0.5)
        assert _value(game, rate) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_rate(self):
        gen = RngSpec(seed=13).generator()
        for _ in range(10):
            k = int(gen.integers(2, 4))
            m = int(gen.integers(2, 4))
            n = int(gen.integers(1, 4))
            game = GameSpec.experts_game(gen.random((m, k)), horizon=n)
            lo, hi = sorted(gen.random(2) * 2)
            a_small_rate = _value(game, AdaptiveRate("uniform_constant", value=lo))
            a_big_rate = _value(game, AdaptiveRate("uniform_constant", value=hi))
            assert a_big_rate <= a_small_rate + 1e-9

    def test_leaf_shift_identity(self):
        gen = RngSpec(seed=14).generator()
        game = GameSpec.experts_game(gen.random((3, 2)), horizon=2)
        base = _value(game, AdaptiveRate("uniform_constant", value=0.0))
        for c in (0.25, 1.0, 1.75):
            shifted = _value(game, AdaptiveRate("uniform_constant", value=c))
            assert shifted == pytest.approx(base - c, abs=1e-9)

    def test_single_outcome_degenerates_to_min_sum(self):
        game = GameSpec.experts_game([[0.3, 0.7]], horizon=3)
        rate = AdaptiveRate("uniform_constant", value=0.0)
        # per round the learner plays the pointwise best expert; comparator
        # grid contains that expert, so the offset value telescopes to zero
        assert _value(game, rate) == pytest.approx(0.0, abs=1e-9)

    def test_budget_error(self):
        # 3 experts and 8 outcomes at n=26 need C(34, 8) > 1e6 count states;
        # the check comes before any work
        game = GameSpec.experts_game(list(itertools.product([0.0, 1.0], repeat=3)), horizon=26)
        with _Counted("_leaf_value") as leaves, pytest.raises(BudgetError, match="budget"):
            _value(game, AdaptiveRate("uniform_constant", value=0.0))
        assert leaves.calls == 0

    def test_budget_counts_states_not_histories(self):
        # 4 ** 10 histories exceed the budget, but C(14, 4) = 1001 states do not
        report = achievability_check(_binary_game(horizon=10), AdaptiveRate("uniform_constant"))
        assert report.state_count == 1001
        assert report.node_count == sum(4 ** t for t in range(11))


class TestAchievabilityCheck:
    def test_fixed_vs_best_two_experts(self):
        game = _binary_game(horizon=3)
        report = achievability_check(game, AdaptiveRate("fixed_vs_best", fstar_index=0, class_size=2))
        assert report.achievable and report.value < -30
        assert len(report.worst_path) == 3

    def test_zero_rate_not_achievable(self):
        game = GameSpec.experts_game([[1.0, 0.0], [0.0, 1.0]], horizon=2)
        report = achievability_check(game, AdaptiveRate("uniform_constant", value=0.0))
        assert not report.achievable and report.value > 0

    def test_pac_bayes_with_simplex_grid_and_refinement(self):
        comparators = [np.array([j / 100, 1 - j / 100]) for j in range(101)]
        game = _binary_game(horizon=2, comparators=comparators)
        rate = AdaptiveRate("pac_bayes", prior=Distribution.uniform(2))
        report = achievability_check(game, rate)
        assert report.achievable
        assert report.refined_value is not None
        # refinement can only raise the root value toward the true one
        assert report.refined_value >= report.value - 1e-9

    def test_order_dependent_rate_rejected(self):
        class LastOutcomeRate:
            """Duck-typed rate that prices the last outcome alone."""
            kind, prior = "uniform_constant", None

            def evaluate(self, comparator, outcomes):
                return float(np.dot(comparator, outcomes[-1]))

        with _Counted("_leaf_value") as leaves, pytest.raises(ValueError, match="invariant"):
            achievability_check(_binary_game(horizon=2), LastOutcomeRate())
        assert leaves.calls == 0

    def test_pac_bayes_horizon_one_rejected(self):
        rate = AdaptiveRate("pac_bayes", prior=Distribution.uniform(2))
        with _Counted("_leaf_value") as leaves, pytest.raises(
                ValueError, match=r"^rate 'pac-bayes' needs horizon n >= 2, got horizon 1$"):
            achievability_check(_binary_game(horizon=1), rate)
        assert leaves.calls == 0


_REFINES = ("kl-radius", "pac-bayes")

_SMALL_GAMES = [
    pytest.param(_binary_game(2), id="2x4-n2"),
    pytest.param(_binary_game(3, [np.array(c) for c in ([1.0, 0.0], [0.0, 1.0], [0.3, 0.7], [0.65, 0.35])]),
                 id="2x4-n3-mixed"),
    pytest.param(GameSpec.experts_game(RngSpec(seed=16).generator().random((3, 3)), horizon=2),
                 id="3x3-n2"),
]


class TestOneWalk:
    @pytest.mark.parametrize("rate_name", RATE_NAMES)
    @pytest.mark.parametrize("game", _SMALL_GAMES)
    def test_report_matches_separate_solves_and_reference(self, rate_name, game):
        rate = AdaptiveRate.named(rate_name, game.n_decisions, value=0.5)
        report = achievability_check(game, rate)
        plain = _reference_tree(game, rate, refine=False)
        assert report.value == plain[0]
        if rate_name in _REFINES:
            refined = _reference_tree(game, rate, refine=True)
            assert report.refined_value == refined[0]
            certified = refined
        else:
            assert report.refined_value is None
            certified = plain
        assert report.worst_path == certified[1]
        assert report.node_count == certified[2] == sum(
            game.n_outcomes ** t for t in range(game.horizon + 1))
        assert report.state_count == math.comb(game.horizon + game.n_outcomes, game.n_outcomes)

    @settings(max_examples=60)
    @given(k=st.integers(2, 3), m=st.integers(2, 4), n=st.integers(2, 4),
           seed=st.integers(0, 2 ** 32 - 1), rate_name=st.sampled_from(sorted(RATE_NAMES)))
    def test_random_games_match_reference(self, k, m, n, seed, rate_name):
        # 0/½/1 losses sum exactly in any order, so count states and the
        # history tree solve the very same games
        gen = np.random.default_rng(seed)
        comparators = [np.eye(k)[i] for i in range(k)] + list(gen.dirichlet(np.ones(k), 2))
        game = GameSpec.experts_game(gen.integers(0, 3, (m, k)) / 2.0, horizon=n,
                                     comparators=comparators)
        rate = AdaptiveRate.named(rate_name, k, value=0.5)
        report = achievability_check(game, rate)
        refine = rate_name in _REFINES
        plain = _reference_tree(game, rate, refine=False)
        refined = _reference_tree(game, rate, refine=True) if refine else None
        assert report.value == plain[0]
        assert report.refined_value == (refined[0] if refine else None)
        assert (report.worst_path, report.node_count) == (refined or plain)[1:]

    @settings(max_examples=20)
    @given(k=st.integers(2, 3), m=st.integers(2, 3), n=st.integers(2, 3),
           seed=st.integers(0, 2 ** 32 - 1), rate_name=st.sampled_from(sorted(RATE_NAMES)))
    def test_float_loss_games_match_reference(self, k, m, n, seed, rate_name):
        # sorted leaf sums round differently from the history's order, so
        # values agree to rounding and best-response ties may break apart
        gen = np.random.default_rng(seed)
        game = GameSpec.experts_game(gen.random((m, k)), horizon=n)
        rate = AdaptiveRate.named(rate_name, k, value=0.5)
        report = achievability_check(game, rate)
        refine = rate_name in _REFINES
        assert report.value == pytest.approx(_reference_tree(game, rate, False)[0], rel=1e-12)
        if refine:
            assert report.refined_value == pytest.approx(
                _reference_tree(game, rate, True)[0], rel=1e-12)
        assert report.node_count == sum(m ** t for t in range(n + 1))

    @pytest.mark.parametrize("rate_name", RATE_NAMES)
    def test_one_lp_per_game_per_internal_node(self, rate_name):
        # an internal node is a count state: 3 experts, 4 outcomes, n=3 walk
        # 1 + 4 + 10 internal states above C(6, 3) = 20 leaves
        games = 2 if rate_name in _REFINES else 1
        three = GameSpec.experts_game(RngSpec(seed=17).generator().integers(0, 3, (4, 3)) / 2.0, 3)
        rate = AdaptiveRate.named(rate_name, 3, value=0.5)
        with _Counted("linprog") as lp, _Counted("_leaf_value") as leaves:
            report = achievability_check(three, rate)
        assert (leaves.calls, lp.calls, report.state_count) == (20, 15 * games, 35)
        # two decisions: the same count of games, each in closed form
        rate = AdaptiveRate.named(rate_name, 2, value=0.5)
        with _Counted("linprog") as lp, _Counted("matrix_game_value") as solved, \
                _Counted("_leaf_value") as leaves:
            achievability_check(_binary_game(3), rate)
        assert (leaves.calls, solved.calls, lp.calls) == (20, 15 * games, 0)


class TestAdmissibilityCheck:
    def test_two_level_exhaustive_passes(self):
        comps = [Distribution.point_mass(i, 2).weights for i in range(2)] + simplex_grid(2, 16)
        game = _binary_game(horizon=4, comparators=comps)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 4, RadiusLadder(3), LAMBDA_FIXED)
        report = admissibility_check(relax, game, mode="exhaustive")
        assert report.verdict
        assert len(report.recursive_margins) == 1 + 4 + 16 + 64
        assert len(report.initial_margins) == 256

    def test_corrupted_relaxation_identified(self):
        game = _binary_game(horizon=4)

        class Corrupt(TwoLevelRelaxation):
            # only the prefix (3, 3), two rounds of (1, 1), reaches losses (2, 2)
            def values(self, states):
                vs = super().values(states)
                for j, state in enumerate(states):
                    if state.t == 2 and np.array_equal(state.cumulative_losses, [2.0, 2.0]):
                        vs[j] -= 2.0
                return vs

        relax = Corrupt(Distribution.uniform(2), 4, RadiusLadder(3), LAMBDA_FIXED)
        report = admissibility_check(relax, game, mode="exhaustive")
        assert not report.verdict
        assert report.worst_prefix == (3, 3)

    def test_sampled_agrees_with_exhaustive(self):
        game = _binary_game(horizon=4)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 4, RadiusLadder(3), LAMBDA_FIXED)
        full = admissibility_check(relax, game, mode="exhaustive")
        sampled = admissibility_check(relax, game, mode="sampled", sample_count=300,
                                      rng=RngSpec(seed=15))
        assert sampled.verdict == full.verdict
        assert sampled.worst_margin >= full.worst_margin - 1e-12

    @pytest.mark.parametrize("mode", LAMBDA_MODES)
    @pytest.mark.parametrize("outcomes,horizon", [
        (list(itertools.product([0.0, 1.0], repeat=2)), 3),
        (list(itertools.product([0.0, 1.0], repeat=3)), 2),
    ], ids=["2x4-n3", "3x8-n2"])
    def test_exhaustive_margins_match_fresh_states(self, mode, outcomes, horizon):
        game = GameSpec.experts_game(outcomes, horizon=horizon)
        k = game.n_decisions
        relax = TwoLevelRelaxation(Distribution.uniform(k), horizon, lambda_mode=mode)
        report = admissibility_check(relax, game, mode="exhaustive")
        recursive, initial = _fresh_margins(relax, game)
        assert report.recursive_margins == recursive
        assert report.initial_margins == initial

    def test_each_comparator_is_penalised_once(self):
        gen = np.random.default_rng(41)
        # with four experts a comparator more than one nat from uniform
        # pays more than the rest
        comparators = [np.eye(4)[0], np.eye(4)[2], [0.97, 0.01, 0.01, 0.01]]
        comparators += [w / w.sum() for w in gen.random((3, 4))]
        game = GameSpec.experts_game(gen.random((3, 4)), horizon=3, comparators=comparators)
        penalised = []

        class Counted(TwoLevelRelaxation):
            def rate(self, comparator):
                penalised.append(comparator)
                return super().rate(comparator)

        relax = Counted(Distribution.uniform(4), 3, RadiusLadder(3))
        assert len({relax.rate(f) for f in game.comparators}) > 2
        penalised.clear()
        report = admissibility_check(relax, game, mode="exhaustive")
        assert len(penalised) == len(game.comparators)
        assert report.initial_margins == _fresh_margins(relax, game)[1]

    def test_exhaustive_budget(self):
        game = _binary_game(horizon=10)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 10)
        with pytest.raises(BudgetError):
            admissibility_check(relax, game, mode="exhaustive")


class TestRegretCertificate:
    def test_zero_losses(self):
        game = _binary_game(horizon=16)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 16, lambda_mode=LAMBDA_FIXED)
        report = regret_certificate(relax, game, [0] * 16)  # outcome 0 is (0, 0)
        assert report.lhs <= 0.0
        assert report.margin >= 0.0

    def test_alternating_adversary(self):
        game = _binary_game(horizon=16)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 16, lambda_mode=LAMBDA_FIXED)
        seq = [1, 2] * 8  # (0,1), (1,0) alternately
        assert regret_certificate(relax, game, seq).margin >= 0.0

    def test_random_battery(self):
        game = _binary_game(horizon=16)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 16, lambda_mode=LAMBDA_FIXED)
        worst = math.inf
        for s in range(500):
            seq = RngSpec(seed=900 + s).generator().integers(0, 4, size=16)
            worst = min(worst, regret_certificate(relax, game, seq).margin)
        assert worst >= 0.0

    @pytest.mark.parametrize("mode", LAMBDA_MODES)
    def test_per_round_losses_match_fresh_states(self, mode):
        game = _binary_game(horizon=12)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 12, lambda_mode=mode)
        seq = [int(y) for y in RngSpec(seed=41).generator().integers(0, 4, size=12)]
        want = tuple(expected_loss(relax.strategy(_fresh_state(relax, game, seq[:t])), y, game)
                     for t, y in enumerate(seq))
        assert regret_certificate(relax, game, seq).per_round_losses == want

    def test_admissibility_implies_certificate(self):
        # chaining the per-round inequalities bounds every play-out
        game = _binary_game(horizon=4)
        relax = TwoLevelRelaxation(Distribution.uniform(2), 4, RadiusLadder(3), LAMBDA_FIXED)
        adm = admissibility_check(relax, game, mode="exhaustive")
        assert adm.verdict
        for seq in itertools.product(range(4), repeat=4):
            assert regret_certificate(relax, game, seq).margin >= -adm.tol * 4
