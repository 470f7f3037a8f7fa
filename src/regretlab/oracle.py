"""Exact desk-scale certification of adaptive rates and relaxations.

One backward induction over the outcome-count states of a finite game,
with each round solved as a zero-sum matrix game whose saddle gap is
checked: the root value is nonpositive exactly when the rate is
achievable. Every game rate depends on the outcomes only through their
multiset, so histories with the same outcome counts share one value. A
companion checker advances a potential/strategy pair's state through every
outcome history (or a sample of them) and verifies the round-by-round and
terminal inequalities it must satisfy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .algorithms import kl_ball_minimizer
from .bounds import RATE_KINDS, AdaptiveRate, require_horizon
from .core import Distribution, GameSpec, RadiusLadder, RngSpec, expected_loss

LP_GAP_TOL = 1e-9
DEFAULT_BUDGET = 10 ** 6


class BudgetError(RuntimeError):
    pass


def matrix_game_value(matrix) -> tuple[float, Distribution, Distribution]:
    """Value and optimal mixed strategies of a finite zero-sum game.

    The row player minimises, the column player maximises. A game with two
    rows is solved in closed form (``_envelope_game``); any other takes one
    linear program (``_lp_game``). Every call checks the saddle gap,
    ``max_y (q^T m)_y - min_i (m p)_i``, to LP_GAP_TOL relative to the value.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if np.any(np.isnan(m)):
        raise ValueError("matrix contains NaN")
    value, q, p = _envelope_game(m) if m.shape[0] == 2 else _lp_game(m)
    gap = float(np.max(q @ m) - np.min(m @ p))
    if not gap <= LP_GAP_TOL * max(1.0, abs(value)):
        raise AssertionError(f"saddle gap {gap} exceeds tolerance")
    return value, Distribution(q), Distribution(p)


def _lp_game(m):
    """(value, row strategy, column strategy) from one LP: the value and the
    row strategy are its solution, the column strategy its inequality duals."""
    r, c = m.shape
    # variables: q_1..q_r, v ; minimise v subject to m^T q <= v, sum q = 1
    c_vec = np.zeros(r + 1)
    c_vec[-1] = 1.0
    a_ub = np.hstack([m.T, -np.ones((c, 1))])
    a_eq = np.zeros((1, r + 1))
    a_eq[0, :r] = 1.0
    bounds = [(0.0, None)] * r + [(None, None)]
    res = linprog(c_vec, A_ub=a_ub, b_ub=np.zeros(c), A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    return float(res.fun), _mixture(res.x[:r]), _mixture(-res.ineqlin.marginals)


def _mixture(x) -> np.ndarray:
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _envelope_game(m):
    """(value, row strategy, column strategy) of a two-row game in closed form.

    With weight q on row 0, column y pays the line ``a_y + q b_y`` (a = row 1,
    b = row 0 - row 1). The value is the least height over q in [0, 1] of
    the lines' upper envelope, reached at q = 0, at q = 1 or where a rising
    line crosses a falling one. The column strategy is the best of the pure
    columns and of the rising/falling pairs mixed so that both rows pay
    alike: at the optimum, a best-response column when q is 0 or 1, else the
    two active lines of opposite slopes.
    """
    a, b = m[1], m[0] - m[1]
    rise, fall = np.flatnonzero(b > 0.0), np.flatnonzero(b < 0.0)
    up, down = np.repeat(rise, fall.size), np.tile(fall, rise.size)   # every rising/falling pair
    span = b[up] - b[down]
    cross = (a[down] - a[up]) / span
    qs = np.concatenate(([0.0, 1.0], cross[(cross > 0.0) & (cross < 1.0)]))
    heights = np.max(a[None, :] + qs[:, None] * b[None, :], axis=1)
    k = int(np.argmin(heights))
    # mixed as (-b_down, b_up) / span, a pair pays the same on both rows
    w_up, w_down = -b[down] / span, b[up] / span
    c = m.shape[1]
    best = int(np.argmax(np.concatenate((np.minimum(m[0], m[1]), w_up * a[up] + w_down * a[down]))))
    p = np.zeros(c)
    if best < c:
        p[best] = 1.0
    else:
        p[up[best - c]], p[down[best - c]] = w_up[best - c], w_down[best - c]
    return float(heights[k]), np.array([qs[k], 1.0 - qs[k]]), p


def _leaf_ladder(game: GameSpec, rate):
    """The KL-ball radius ladder that refines the rate's leaves on this game,
    when the rate carries a prior over exactly the game's decisions. None
    otherwise."""
    prior = rate.prior
    if prior is None or prior.support_size != game.n_decisions:
        return None
    return RadiusLadder.for_game(game.horizon, prior.support_size)


def _least_penalised(comparators, penalties, cum) -> float:
    """Least comparator loss at the cumulative per-decision loss ``cum``,
    each comparator paying its own penalty."""
    return min(float(np.dot(f, cum)) + p for f, p in zip(comparators, penalties))


def _leaf_value(game: GameSpec, rate, history, ladder) -> tuple:
    """Terminal payoffs at a full history: the plain one, then, given a
    ladder, the refined one that also admits each radius's KL-ball minimiser."""
    columns = game.loss[:, list(history)]
    ys, cum = columns.T, columns.sum(axis=1)
    best = _least_penalised(game.comparators, [rate.evaluate(f, ys) for f in game.comparators], cum)
    if ladder is None:
        return (-best,)
    # comparator losses are linear in the weights, so the cumulative
    # per-decision loss doubles as the tilt direction
    tilted = [kl_ball_minimizer(rate.prior, float(radius), cum)[0].weights
              for radius in ladder.radii]
    return -best, -min(best, _least_penalised(tilted, [rate.evaluate(f, ys) for f in tilted], cum))


def _count_state_induction(game: GameSpec, rate, ladder):
    """One backward induction over outcome-count states: the root values
    (plain, then refined when a ladder is given), the adversary's worst path
    in the game of the last value, and the number of states walked.

    A state stands for every prefix with the same outcome counts and is
    keyed by its canonical history, the outcomes sorted by index, as
    ``combinations_with_replacement`` yields them. Each internal state
    solves one matrix game per value it carries and records its
    best-response outcome, from which the worst path is read going down
    from the root.
    """
    n, m = game.horizon, game.n_outcomes
    states = math.comb(n + m, m)
    if states > DEFAULT_BUDGET:
        raise BudgetError(f"game needs {states} outcome-count states, budget is {DEFAULT_BUDGET}")

    def child(state, y):
        return tuple(sorted(state + (y,)))

    below = {state: _leaf_value(game, rate, state, ladder)
             for state in itertools.combinations_with_replacement(range(m), n)}
    worst = {}
    for t in reversed(range(n)):
        here = {}
        for state in itertools.combinations_with_replacement(range(m), t):
            values = []
            for column in np.array([below[child(state, y)] for y in range(m)]).T:
                payoff = game.loss + column[None, :]
                value, q, _ = matrix_game_value(payoff)
                values.append(value)
            here[state] = tuple(values)
            worst[state] = int(np.argmax(q.weights @ payoff))
        below = here
    path, state = (), ()
    for _ in range(n):
        path += (worst[state],)
        state = child(state, path[-1])
    return below[()], path, states


@dataclass(frozen=True)
class AchievabilityReport:
    value: float
    refined_value: float | None
    achievable: bool
    tol: float
    worst_path: tuple
    node_count: int
    state_count: int


def achievability_check(game: GameSpec, rate, tol: float = 1e-7) -> AchievabilityReport:
    """Achievability verdict with the adversary's maximising outcome path.

    ``value`` is the root value of the rate-offset game. Its terminal
    payoff is the algorithm's cumulative loss minus the least penalised
    comparator loss over the comparator grid. A nonpositive root value
    certifies the rate as achievable on this game. When the rate carries a
    prior over the game's decisions, ``refined_value`` also admits the
    KL-ball minimisers at the leaves. The verdict then rests on that
    larger, hence conservative, value. Both come from one walk of the
    outcome-count states, which needs a rate invariant to outcome order:
    an ``AdaptiveRate`` of a kind in ``RATE_KINDS``.

    ``node_count`` is the number of outcome histories the verdict covers,
    the sum over t of |outcomes|^t; ``state_count`` is the number of count
    states walked, C(horizon + |outcomes|, |outcomes|).
    """
    if not (isinstance(rate, AdaptiveRate) and rate.kind in RATE_KINDS):
        raise ValueError(f"the count-state walk needs an AdaptiveRate of a kind in {RATE_KINDS}, "
                         f"invariant to outcome order; got {rate!r}")
    require_horizon(rate.kind, game.horizon)
    ladder = _leaf_ladder(game, rate)
    values, path, states = _count_state_induction(game, rate, ladder)
    return AchievabilityReport(
        value=values[0],
        refined_value=None if ladder is None else values[1],
        achievable=values[-1] <= tol,
        tol=tol,
        worst_path=path,
        node_count=sum(game.n_outcomes ** t for t in range(game.horizon + 1)),
        state_count=states,
    )


# ---------------------------------------------------------------------------
# Relaxation admissibility and regret certificates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    recursive_margins: tuple      # ((prefix, margin), ...)
    initial_margins: tuple        # ((sequence, margin), ...)
    worst_margin: float
    worst_prefix: tuple
    tol: float
    mode: str

    @property
    def verdict(self) -> bool:
        return self.worst_margin >= -self.tol


def admissibility_check(relaxation, game: GameSpec, mode: str = "exhaustive",
                        sample_count: int = 1000, rng: RngSpec | None = None,
                        tol: float = 1e-6) -> AdmissibilityReport:
    """Verify the potential's round-by-round and terminal inequalities.

    Recursive margin at a prefix: potential there minus the worst-case
    one-step continuation under the potential's own strategy. Terminal
    margin: potential at the full sequence plus the best penalised
    comparator loss. The check passes when every margin clears -tol.

    ``relaxation`` gives the empty-prefix state by ``start()``, reads a
    batch of states by ``values``, a state's play by ``strategy``, and
    penalises a comparator by ``rate(f)``; its states advance by
    ``update`` and fork by ``copy``. Exhaustive mode walks the history tree
    level by level in lexicographic order with one ``values`` call per
    level; sampled mode reads all its prefixes, their children and its
    sequences in three calls.
    """
    n, m = game.horizon, game.n_outcomes
    if mode == "exhaustive":
        if m ** n > 10 ** 5:
            raise BudgetError(f"exhaustive mode needs |outcomes|^n <= 1e5, got {m ** n}")
        prefixes, states = [()], [relaxation.start()]
        here = relaxation.values(states).tolist()
        recursive = []
        for _ in range(n):
            children = [_child(state, game.loss[:, y]) for state in states for y in range(m)]
            below = relaxation.values(children).tolist()
            recursive += _recursive_margins(relaxation, game, prefixes, states, here, below)
            prefixes = [prefix + (y,) for prefix in prefixes for y in range(m)]
            states, here = children, below
        terminals = list(zip(prefixes, here))
    elif mode == "sampled":
        if sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {sample_count}")
        if rng is None:
            raise ValueError("sampled mode needs an RngSpec")
        gen = rng.generator()
        prefixes = [tuple(gen.integers(0, m, size=int(gen.integers(0, n))))
                    for _ in range(sample_count)]
        sequences = [tuple(gen.integers(0, m, size=n)) for _ in range(sample_count)]
        states = [_advance(relaxation, game, prefix) for prefix in prefixes]
        here = relaxation.values(states).tolist()
        children = [_child(state, game.loss[:, y]) for state in states for y in range(m)]
        below = relaxation.values(children).tolist()
        recursive = _recursive_margins(relaxation, game, prefixes, states, here, below)
        ends = relaxation.values([_advance(relaxation, game, seq) for seq in sequences])
        terminals = list(zip(sequences, ends.tolist()))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    best = _penalised_minima(relaxation, game, [seq for seq, _ in terminals])
    initial = [(seq, value + b) for (seq, value), b in zip(terminals, best)]
    all_margins = recursive + initial
    worst_prefix, worst_margin = min(all_margins, key=lambda kv: kv[1])
    return AdmissibilityReport(
        recursive_margins=tuple(recursive),
        initial_margins=tuple(initial),
        worst_margin=worst_margin,
        worst_prefix=worst_prefix,
        tol=tol,
        mode=mode,
    )


def _recursive_margins(relaxation, game: GameSpec, prefixes, states, here, below) -> list:
    """(prefix, margin) at every state, given the states' potentials
    ``here`` and their children's potentials ``below``, outcome-major per
    state."""
    m = game.n_outcomes
    margins = []
    for j, (prefix, state) in enumerate(zip(prefixes, states)):
        q = relaxation.strategy(state)
        worst = max(expected_loss(q, y, game) + below[j * m + y] for y in range(m))
        margins.append((prefix, here[j] - worst))
    return margins


def _child(state, outcome):
    child = state.copy()
    child.update(outcome)
    return child


def _advance(relaxation, game: GameSpec, seq):
    state = relaxation.start()
    for y in seq:
        state.update(game.loss[:, y])
    return state


def _penalised_minima(relaxation, game: GameSpec, sequences) -> list:
    """``_least_penalised`` over every outcome sequence under the
    relaxation's rate. The rate depends on the comparator alone, so each
    comparator is penalised once for all the sequences."""
    penalties = [relaxation.rate(f) for f in game.comparators]
    return [_least_penalised(game.comparators, penalties, game.loss[:, list(seq)].sum(axis=1))
            for seq in sequences]


@dataclass(frozen=True)
class CertificateReport:
    algorithm_loss: float
    best_penalised_comparator: float
    lhs: float
    relaxation_at_start: float
    margin: float
    per_round_losses: tuple


def regret_certificate(relaxation, game: GameSpec, outcome_indices) -> CertificateReport:
    """Play the relaxation's strategy and compare realised regret with the
    potential's starting value."""
    seq = tuple(int(y) for y in outcome_indices)
    state = relaxation.start()
    start = relaxation.value(state)
    losses = []
    for y in seq:
        losses.append(expected_loss(relaxation.strategy(state), y, game))
        state.update(game.loss[:, y])
    best = _penalised_minima(relaxation, game, [seq])[0]
    lhs = sum(losses) - best
    return CertificateReport(
        algorithm_loss=float(sum(losses)),
        best_penalised_comparator=best,
        lhs=float(lhs),
        relaxation_at_start=float(start),
        margin=float(start - lhs),
        per_round_losses=tuple(losses),
    )
