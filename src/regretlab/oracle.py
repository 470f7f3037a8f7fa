"""Exact desk-scale certification of adaptive rates and relaxations.

Backward induction over all outcome histories of a finite game, with each
round solved as a zero-sum matrix game by linear programming: the root value
is nonpositive exactly when the rate is achievable. A companion checker
advances a potential/strategy pair's state through every outcome history
(or a sample of them) and verifies the round-by-round and terminal
inequalities it must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .algorithms import kl_ball_minimizer
from .core import Distribution, GameSpec, RngSpec, expected_loss

LP_GAP_TOL = 1e-9
DEFAULT_BUDGET = 10 ** 6


class BudgetError(RuntimeError):
    pass


def matrix_game_value(matrix) -> tuple[float, Distribution, Distribution]:
    """Value and optimal mixed strategies of a finite zero-sum game.

    The row player minimises, the column player maximises. Both sides are
    solved as linear programs; the duality gap is checked to 1e-9 on every
    call.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if np.any(np.isnan(m)):
        raise ValueError("matrix contains NaN")
    r, c = m.shape

    row_val, row_mix = _solve_side(m, minimize=True)
    col_val, col_mix = _solve_side(-m.T, minimize=True)
    col_val = -col_val
    if abs(row_val - col_val) > LP_GAP_TOL * max(1.0, abs(row_val)):
        raise AssertionError(f"LP duality gap {row_val - col_val} exceeds tolerance")
    return row_val, Distribution(row_mix), Distribution(col_mix)


def _solve_side(m, minimize=True):
    """min over mixtures q of max over columns of (q^T m), via linprog."""
    r, c = m.shape
    # variables: q_1..q_r, v ; minimise v subject to m^T q <= v, sum q = 1
    c_vec = np.zeros(r + 1)
    c_vec[-1] = 1.0
    a_ub = np.hstack([m.T, -np.ones((c, 1))])
    b_ub = np.zeros(c)
    a_eq = np.zeros((1, r + 1))
    a_eq[0, :r] = 1.0
    bounds = [(0.0, None)] * r + [(None, None)]
    res = linprog(c_vec, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    q = np.clip(res.x[:r], 0.0, None)
    return float(res.fun), q / q.sum()


@dataclass
class GameValueCache:
    """Backward-induction bookkeeping for one solve."""

    horizon: int
    values: dict = field(default_factory=dict)
    best_response: dict = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.values)


def _leaf_value(game: GameSpec, rate, history, refine: bool) -> float:
    outcome_seq = game.outcomes[list(history)]
    cum = game.loss[:, list(history)].sum(axis=1)
    best = math.inf
    for f in game.comparators:
        penalty = rate.evaluate(f, outcome_seq)
        best = min(best, float(np.dot(f, cum)) + penalty)
    if refine:
        ladder = rate.refinement_ladder(game.horizon)
        prior = rate.prior
        if ladder is not None and prior is not None and prior.support_size == game.n_decisions:
            # comparator losses are linear in the weights, so the cumulative
            # per-decision loss doubles as the tilt direction
            for radius in ladder.radii:
                f_star, _ = kl_ball_minimizer(prior, float(radius), cum)
                penalty = rate.evaluate(f_star, outcome_seq)
                best = min(best, float(np.dot(f_star.weights, cum)) + penalty)
    return -best


def _induct(game: GameSpec, rate, history, cache: GameValueCache, refine: bool) -> float:
    if history in cache.values:
        return cache.values[history]
    t = len(history)
    if t == game.horizon:
        val = _leaf_value(game, rate, history, refine)
    else:
        children = [_induct(game, rate, history + (y,), cache, refine)
                    for y in range(game.n_outcomes)]
        m = game.loss + np.asarray(children)[None, :]
        val, q, _ = matrix_game_value(m)
        payoffs = q.weights @ m
        cache.best_response[history] = int(np.argmax(payoffs))
    cache.values[history] = val
    return val


def offset_minimax_value(game: GameSpec, rate, refine: bool = False,
                         budget: int = DEFAULT_BUDGET,
                         cache: GameValueCache | None = None) -> float:
    """Root value of the rate-offset game by exact backward induction.

    Terminal payoff: cumulative algorithm loss minus the best comparator's
    cumulative loss plus its rate penalty, minimised over the comparator
    grid (optionally refined through KL-ball minimisers when the rate
    carries a prior over the decisions). Nonpositive root value certifies
    the rate as achievable on this game.
    """
    required = game.n_outcomes ** game.horizon
    if required > budget:
        raise BudgetError(
            f"game needs {required} terminal histories, budget is {budget}"
        )
    if cache is None:
        cache = GameValueCache(game.horizon)
    return _induct(game, rate, (), cache, refine)


@dataclass(frozen=True)
class AchievabilityReport:
    value: float
    refined_value: float | None
    achievable: bool
    tol: float
    worst_path: tuple
    node_count: int

    @property
    def certified_value(self) -> float:
        return self.value if self.refined_value is None else self.refined_value


def achievability_check(game: GameSpec, rate, tol: float = 1e-7) -> AchievabilityReport:
    """Achievability verdict with the adversary's maximising outcome path.

    When the rate supports KL-ball refinement the verdict is based on the
    refined (larger, hence conservative) root value; both values are
    reported.
    """
    cache = GameValueCache(game.horizon)
    value = offset_minimax_value(game, rate, refine=False, cache=cache)
    refined = None
    if rate.prior is not None and rate.refinement_ladder(game.horizon) is not None \
            and rate.prior.support_size == game.n_decisions:
        refined_cache = GameValueCache(game.horizon)
        refined = offset_minimax_value(game, rate, refine=True, cache=refined_cache)
        cache = refined_cache
    path = []
    h = ()
    while h in cache.best_response:
        y = cache.best_response[h]
        path.append(y)
        h = h + (y,)
    certified = value if refined is None else refined
    return AchievabilityReport(
        value=value,
        refined_value=refined,
        achievable=certified <= tol,
        tol=tol,
        worst_path=tuple(path),
        node_count=cache.node_count,
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
    state by ``value`` and ``strategy``, and penalises a comparator by
    ``rate(f, outcomes)``; its states advance by ``update`` and fork by
    ``copy``. Exhaustive mode walks the history tree level by level in
    lexicographic order, computing each node's potential once.
    """
    n, m = game.horizon, game.n_outcomes
    recursive = []
    if mode == "exhaustive":
        if m ** n > 10 ** 5:
            raise BudgetError(f"exhaustive mode needs |outcomes|^n <= 1e5, got {m ** n}")
        root = relaxation.start()
        level = [((), root, relaxation.value(root))]
        for t in range(n):
            children = []
            for prefix, state, here in level:
                margin, nodes = _one_step(relaxation, game, state, here)
                recursive.append((prefix, margin))
                # a leaf keeps only its potential, so the widest level holds no states
                children += [(prefix + (y,), child if t < n - 1 else None, value)
                             for y, (child, value) in enumerate(nodes)]
            level = children
        terminals = [(seq, value) for seq, _, value in level]
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an RngSpec")
        gen = rng.generator()
        prefixes = [tuple(gen.integers(0, m, size=int(gen.integers(0, n))))
                    for _ in range(sample_count)]
        sequences = [tuple(gen.integers(0, m, size=n)) for _ in range(sample_count)]
        for prefix in prefixes:
            state = _advance(relaxation, game, prefix)
            margin, _ = _one_step(relaxation, game, state, relaxation.value(state))
            recursive.append((prefix, margin))
        terminals = [(seq, relaxation.value(_advance(relaxation, game, seq))) for seq in sequences]
    else:
        raise ValueError(f"unknown mode {mode!r}")

    initial = [(seq, value + _best_penalised(relaxation, game, seq)) for seq, value in terminals]
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


def _one_step(relaxation, game: GameSpec, state, here: float):
    """Recursive margin at a state whose potential is ``here``, and each
    outcome's (child state, child potential) in outcome order."""
    q = relaxation.strategy(state)
    worst = -math.inf
    children = []
    for y in range(game.n_outcomes):
        child = state.copy()
        child.update(game.outcomes[y])
        cont = relaxation.value(child)
        worst = max(worst, expected_loss(q, y, game) + cont)
        children.append((child, cont))
    return here - worst, children


def _advance(relaxation, game: GameSpec, seq):
    state = relaxation.start()
    for y in seq:
        state.update(game.outcomes[y])
    return state


def _best_penalised(relaxation, game: GameSpec, seq) -> float:
    """Least comparator loss plus rate penalty over the outcome sequence."""
    ys = game.outcomes[list(seq)]
    cum = game.loss[:, list(seq)].sum(axis=1)
    return min(float(np.dot(f, cum)) + relaxation.rate(f, ys) for f in game.comparators)


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
        state.update(game.outcomes[y])
    best = _best_penalised(relaxation, game, seq)
    lhs = sum(losses) - best
    return CertificateReport(
        algorithm_loss=float(sum(losses)),
        best_penalised_comparator=best,
        lhs=float(lhs),
        relaxation_at_start=float(start),
        margin=float(start - lhs),
        per_round_losses=tuple(losses),
    )
