"""Constructive strategies for the experts setting.

A family of low-level exponential-weights instances, one per doubling
complexity radius, aggregated by a high-level softmax whose prior offset
grows with the radius. The paired potential function certifies the regret
bound round by round; its scale parameter is either optimised by a bracketed
golden-section search or pinned at 1/sqrt(n). A KL-ball comparator
optimizer (exponential tilting of the prior) supports both the analysis
checks and the oracle's leaf refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .bounds import kl_radius_rate
from .core import Distribution, RadiusLadder, kl_divergence, normalize_log_weights

LAMBDA_OPTIMIZED = "optimized"
LAMBDA_FIXED = "fixed_inverse_sqrt_n"
LAMBDA_MODES = (LAMBDA_OPTIMIZED, LAMBDA_FIXED)

# Bracket for the scale search, in multiples of 1/sqrt(n).
LAMBDA_BRACKET = (1e-6, 1e3)
GOLDEN_TOL = 1e-10


def lowlevel_ew(prior: Distribution, radius: float, horizon: int, outcomes) -> Distribution:
    """Exponential weights with learning rate sqrt(radius / horizon).

    Radius zero degenerates to the prior regardless of history.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    cum = _cumulative_losses(outcomes, prior.support_size)
    if radius == 0.0 or not np.any(cum):
        return prior
    with np.errstate(divide="ignore"):
        logw = np.log(prior.weights) - math.sqrt(radius / horizon) * cum
    return normalize_log_weights(logw)


def _cumulative_losses(outcomes, k: int) -> np.ndarray:
    if outcomes is None or len(outcomes) == 0:
        return np.zeros(k)
    ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
    if ys.shape[1] != k:
        raise ValueError("loss vector dimension mismatch")
    return ys.sum(axis=0)


class TwoLevelState:
    """Replayable state of the two-level strategy after t observed rounds.

    Keeps the cumulative expert losses, the full outcome history, the
    realized loss of every rung's low-level instance at every round, and the
    running sums of those rung losses after every prefix, so any prefix
    quantity is reproducible from (prior, ladder, outcomes) alone.
    """

    def __init__(self, prior: Distribution, ladder: RadiusLadder, horizon: int,
                 lambda_mode: str = LAMBDA_OPTIMIZED):
        if lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"lambda_mode must be one of {LAMBDA_MODES}")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.prior = prior
        self.ladder = ladder
        self.horizon = horizon
        self.lambda_mode = lambda_mode
        self.cumulative_losses = np.zeros(prior.support_size)
        self.outcome_history: list[np.ndarray] = []
        self.rung_round_losses: list[np.ndarray] = []   # one (i_max,) vector per round
        # rung_prefix_sums[t] is the sum of the first t rung-loss vectors
        self.rung_prefix_sums: list[np.ndarray] = [np.zeros(ladder.i_max)]

    @property
    def t(self) -> int:
        return len(self.outcome_history)

    @property
    def radii(self) -> np.ndarray:
        return self.ladder.radii

    def rung_distributions(self) -> np.ndarray:
        """Current q^{R_i} for every rung, as an (i_max, K) row-stochastic array."""
        rates = np.sqrt(self.radii / self.horizon)
        with np.errstate(divide="ignore"):
            logw = np.log(self.prior.weights)[None, :] - rates[:, None] * self.cumulative_losses[None, :]
        shifted = logw - logw.max(axis=1, keepdims=True)
        w = np.exp(shifted)
        return w / w.sum(axis=1, keepdims=True)

    def rung_cumulative_losses(self) -> np.ndarray:
        return self.rung_prefix_sums[-1].copy()

    def update(self, outcome) -> None:
        y = np.asarray(outcome, dtype=float)
        if y.shape != (self.prior.support_size,):
            raise ValueError("outcome must be a per-expert loss vector")
        rung_q = self.rung_distributions()
        rung_loss = rung_q @ y
        self.rung_round_losses.append(rung_loss)
        self.rung_prefix_sums.append(self.rung_prefix_sums[-1] + rung_loss)
        self.cumulative_losses = self.cumulative_losses + y
        self.outcome_history.append(y)

    @classmethod
    def replay(cls, prior, ladder, horizon, outcomes, lambda_mode=LAMBDA_OPTIMIZED):
        state = cls(prior, ladder, horizon, lambda_mode)
        for y in outcomes:
            state.update(y)
        return state


def _rung_exponents(state: TwoLevelState, prefix_len: int) -> np.ndarray:
    """A_i = realized rung losses through the prefix plus sqrt(n R_i)."""
    if not 0 <= prefix_len <= state.t:
        raise ValueError("state is not consistent through the requested round")
    return state.rung_prefix_sums[prefix_len] + np.sqrt(state.horizon * state.radii)


def _potential(lam: float, exponents: np.ndarray, remaining: int) -> float:
    return float(logsumexp(-lam * exponents) / lam + 2.0 * lam * remaining)


def _golden_min(fn, lo: float, hi: float, tol: float = GOLDEN_TOL):
    """Golden-section minimum of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    xs = [(fn(lo), lo), (fc, c), (fd, d), (fn(hi), hi)]
    return min(xs)


def _lambda_bracket(horizon: int):
    root = math.sqrt(horizon)
    return math.log(LAMBDA_BRACKET[0] / root), math.log(LAMBDA_BRACKET[1] / root)


def relaxation_lambda(state: TwoLevelState, t: int) -> float:
    """Scale used by round t's high-level weights.

    In optimized mode this is the bracketed argmin of the potential at the
    (t-1)-prefix with t-1 rounds consumed; in fixed mode it is 1/sqrt(n).
    """
    if state.lambda_mode == LAMBDA_FIXED:
        return 1.0 / math.sqrt(state.horizon)
    exponents = _rung_exponents(state, t - 1)
    remaining = state.horizon - t + 1
    lo, hi = _lambda_bracket(state.horizon)
    _, u = _golden_min(lambda x: _potential(math.exp(x), exponents, remaining), lo, hi)
    return math.exp(u)


def highlevel_weights(state: TwoLevelState, t: int) -> Distribution:
    """Round-t mixing weights over the rung instances."""
    if not 1 <= t <= state.t + 1:
        raise ValueError("round t must be within the observed history plus one")
    lam = relaxation_lambda(state, t)
    return normalize_log_weights(-lam * _rung_exponents(state, t - 1))


def twolevel_predict(state: TwoLevelState, t: int) -> Distribution:
    """Round-t prediction: the exact rung mixture of low-level instances.

    Under linear loss the mixture matches two-stage sampling in expectation.
    """
    weights = highlevel_weights(state, t)
    if t == state.t + 1:
        rung_q = state.rung_distributions()
    else:
        fresh = TwoLevelState(state.prior, state.ladder, state.horizon, state.lambda_mode)
        for y in state.outcome_history[: t - 1]:
            fresh.update(y)
        rung_q = fresh.rung_distributions()
    mixture = weights.weights @ rung_q
    return Distribution(mixture / mixture.sum())


def relaxation_value(state: TwoLevelState, outcomes=None) -> float:
    """Potential value at the given prefix (default: the state's history).

    Optimized mode takes the bracketed minimum over the scale; fixed mode
    evaluates at 1/sqrt(n). At the empty prefix the fixed-mode value stays
    below 4 sqrt(n).
    """
    if outcomes is None:
        prefix_state, t = state, state.t
    else:
        prefix_state = TwoLevelState.replay(
            state.prior, state.ladder, state.horizon, outcomes, state.lambda_mode
        )
        t = prefix_state.t
    exponents = _rung_exponents(prefix_state, t)
    remaining = state.horizon - t
    if remaining < 0:
        raise ValueError("prefix longer than the horizon")
    if state.lambda_mode == LAMBDA_FIXED:
        return _potential(1.0 / math.sqrt(state.horizon), exponents, remaining)
    lo, hi = _lambda_bracket(state.horizon)
    best, _ = _golden_min(lambda x: _potential(math.exp(x), exponents, remaining), lo, hi)
    return best


class TwoLevelRelaxation:
    """Potential/strategy pair targeting the KL-radius rate.

    ``value`` and ``strategy`` replay the prefix deterministically, so the
    object is stateless across calls and safe to share.
    """

    name = "two-level-ew"

    def __init__(self, prior: Distribution, horizon: int,
                 ladder: RadiusLadder | None = None,
                 lambda_mode: str = LAMBDA_OPTIMIZED):
        self.prior = prior
        self.horizon = horizon
        self.ladder = ladder if ladder is not None else RadiusLadder.for_game(horizon, prior.support_size)
        self.lambda_mode = lambda_mode

    def _replay(self, outcomes) -> TwoLevelState:
        return TwoLevelState.replay(self.prior, self.ladder, self.horizon, outcomes, self.lambda_mode)

    def value(self, outcomes) -> float:
        return relaxation_value(self._replay(outcomes))

    def strategy(self, outcomes) -> Distribution:
        state = self._replay(outcomes)
        return twolevel_predict(state, state.t + 1)

    def rate(self, comparator, outcomes=None) -> float:
        f = comparator if isinstance(comparator, Distribution) else Distribution(np.asarray(comparator, dtype=float))
        return kl_radius_rate(f, self.prior, self.horizon)


# ---------------------------------------------------------------------------
# KL-ball comparator optimisation.
# ---------------------------------------------------------------------------

KL_BISECT_TOL = 1e-10
ETA_WINDOW = 1e6


def kl_ball_minimizer(prior: Distribution, radius: float, cumulative) -> tuple[Distribution, float]:
    """Minimise <cumulative, f> over {f : KL(f | prior) <= radius}.

    The minimiser is an exponential tilt prior * exp(-eta * cumulative) with
    eta >= 0 chosen by bisection so the KL constraint is active, unless the
    eta -> infinity limit (prior mass restricted to the argmin entries,
    renormalised) is already inside the ball, in which case that limit is
    returned outright instead of chasing the bisection into overflow.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cum = np.asarray(cumulative, dtype=float)
    if cum.shape != (prior.support_size,) or not np.all(np.isfinite(cum)):
        raise ValueError("cumulative losses must be a finite vector over the support")
    if radius == 0.0:
        return prior, float(np.dot(cum, prior.weights))

    support = prior.weights > 0.0
    floor = cum[support].min()
    argmin = support & (cum <= floor + 1e-15)
    limit_w = np.where(argmin, prior.weights, 0.0)
    limit_kl = -math.log(limit_w.sum())
    limit = Distribution(limit_w / limit_w.sum())

    if limit_kl <= radius + KL_BISECT_TOL:
        return limit, float(np.dot(cum, limit.weights))

    def tilt(eta):
        with np.errstate(divide="ignore"):
            return normalize_log_weights(np.log(prior.weights) - eta * cum)

    lo, hi = 0.0, 1.0
    while kl_divergence(tilt(hi), prior) < radius and hi < ETA_WINDOW:
        lo, hi = hi, hi * 2.0
    hi = min(hi, ETA_WINDOW)
    f = tilt(hi)
    if kl_divergence(f, prior) >= radius:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f = tilt(mid)
            gap = kl_divergence(f, prior) - radius
            if abs(gap) <= KL_BISECT_TOL:
                break
            if gap > 0:
                hi = mid
            else:
                lo = mid
        else:
            f = tilt(0.5 * (lo + hi))
    return f, float(np.dot(cum, f.weights))


@dataclass(frozen=True)
class FixedRadiusReport:
    lhs: float
    rhs: float
    margin: float
    violation: bool


def fixed_radius_inequality_check(prior: Distribution, radius: float, horizon: int,
                                  outcomes) -> FixedRadiusReport:
    """Check that the tilted-prior strategy at one radius loses at most
    2 sqrt(radius * n) to the best element of the matching KL ball.

    The left side uses the exact ball minimiser; a negative margin beyond
    -1e-8 is flagged as a violation.
    """
    ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
    if ys.shape[0] != horizon:
        raise ValueError("need exactly horizon outcome vectors")
    if np.any(ys < -1e-12) or np.any(ys > 1.0 + 1e-12):
        raise ValueError("losses must lie in [0, 1]")
    _, best = kl_ball_minimizer(prior, radius, ys.sum(axis=0))
    lhs = -best
    algo = 0.0
    for t in range(horizon):
        q = lowlevel_ew(prior, radius, horizon, ys[:t])
        algo += float(np.dot(q.weights, ys[t]))
    rhs = -algo + 2.0 * math.sqrt(radius * horizon)
    margin = rhs - lhs
    return FixedRadiusReport(lhs=lhs, rhs=rhs, margin=margin, violation=margin < -1e-8)
