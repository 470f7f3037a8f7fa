"""Constructive strategies for the experts setting.

A family of low-level exponential-weights instances, one per doubling
complexity radius, aggregated by a high-level softmax whose prior offset
grows with the radius. The paired potential function certifies the regret
bound round by round; its scale parameter is either optimised by a bracketed
golden-section search, run on a whole batch of states at once, or pinned at
1/sqrt(n). A KL-ball comparator optimizer (exponential tilting of the prior)
supports both the analysis checks and the oracle's leaf refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import kl_radius_rate
from .core import Distribution, RadiusLadder, kl_divergence, normalize_log_weights, softmax_rows

LAMBDA_OPTIMIZED = "optimized"
LAMBDA_FIXED = "fixed_inverse_sqrt_n"
LAMBDA_MODES = (LAMBDA_OPTIMIZED, LAMBDA_FIXED)

# Bracket for the scale search, in multiples of 1/sqrt(n).
LAMBDA_BRACKET = (1e-6, 1e3)
GOLDEN_TOL = 1e-10
GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Incremental state of the two-level strategy after t observed rounds.

    Holds the cumulative expert losses, the running sum of every rung's
    realised loss, and builds the rung distributions when first asked at each
    round. ``update`` advances it one round by rebinding these arrays, never
    writing into them, so a ``copy`` forks the state without copying any
    array. ``scale`` holds the optimized-mode scale once a value search has
    found it at this round.
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
        self.t = 0
        self.cumulative_losses = np.zeros(prior.support_size)
        self.rung_cumulative = np.zeros(ladder.i_max)
        self.scale = None
        self._rung_q = None
        self._rates = np.sqrt(ladder.radii / horizon)
        with np.errstate(divide="ignore"):
            self._log_prior = np.log(prior.weights)

    @property
    def radii(self) -> np.ndarray:
        return self.ladder.radii

    @property
    def rung_q(self) -> np.ndarray:
        """q^{R_i} for every rung at the cumulative losses, as an (i_max, K)
        row-stochastic array, built on first use at each round."""
        if self._rung_q is None:
            self._rung_q = softmax_rows(self._log_prior[None, :]
                                        - self._rates[:, None] * self.cumulative_losses[None, :])
        return self._rung_q

    def update(self, outcome) -> None:
        y = np.asarray(outcome, dtype=float)
        if y.shape != (self.prior.support_size,):
            raise ValueError("outcome must be a per-expert loss vector")
        self.rung_cumulative = self.rung_cumulative + self.rung_q @ y
        self.cumulative_losses = self.cumulative_losses + y
        self._rung_q = None
        self.scale = None
        self.t += 1

    def copy(self) -> TwoLevelState:
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        return twin


def _rung_exponents(state: TwoLevelState) -> np.ndarray:
    """A_i = realized rung losses so far plus sqrt(n R_i)."""
    return state.rung_cumulative + np.sqrt(state.horizon * state.radii)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of every row of a finite (L, i) array.

    A numpy copy of the algorithm of ``scipy.special.logsumexp`` (scipy
    1.17), equal to it bit for bit on every row: shift by the row maximum,
    sum the exponentials of all but the m tied maxima, and return
    log1p(s / m) + log(m) + max.
    """
    top = a.max(axis=1, keepdims=True)
    tied = a == top
    m = tied.sum(axis=1, keepdims=True, dtype=float)
    s = np.exp(np.where(tied, -np.inf, a) - top).sum(axis=1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + top)[:, 0]


def _potential(lam: np.ndarray, exponents: np.ndarray, remaining) -> np.ndarray:
    """(1/lam) LSE(-lam A) + 2 lam (n - t), one row of A per scale."""
    return _logsumexp_rows(-lam[:, None] * exponents) / lam + 2.0 * lam * remaining


def _scale_search(exponents: np.ndarray, remaining, horizon: int):
    """(minima, log-scales) of the potential of every row of an (L, i_max)
    exponent matrix, over the bracket LAMBDA_BRACKET / sqrt(n).

    Golden section on all rows in lockstep: each row keeps its own bracket
    and its own stop, and takes the scale as math.exp of its log, so every
    row repeats the iterates of a search of that row alone. The pick is the
    least (value, log-scale) pair among the last two probes and the ends.
    """
    root = math.sqrt(horizon)
    lo, hi = math.log(LAMBDA_BRACKET[0] / root), math.log(LAMBDA_BRACKET[1] / root)

    def fn(x):
        return _potential(np.array([math.exp(v) for v in x.tolist()]), exponents, remaining)

    a = np.full(exponents.shape[0], lo)
    b = np.full(exponents.shape[0], hi)
    c, d = b - GOLDEN_RATIO * (b - a), a + GOLDEN_RATIO * (b - a)
    fc, fd = fn(c), fn(d)
    live = b - a > GOLDEN_TOL
    while live.any():
        # a live row with fc <= fd keeps [a, d], any other live row [c, b]
        left = live & (fc <= fd)
        right = live & ~left
        a, b = np.where(right, c, a), np.where(left, d, b)
        probe = np.where(left, b - GOLDEN_RATIO * (b - a), a + GOLDEN_RATIO * (b - a))
        fp = fn(probe)
        c, fc, d, fd = (np.where(left, probe, np.where(right, d, c)),
                        np.where(left, fp, np.where(right, fd, fc)),
                        np.where(right, probe, np.where(left, c, d)),
                        np.where(right, fp, np.where(left, fc, fd)))
        live = b - a > GOLDEN_TOL
    ends = np.full_like(a, lo), np.full_like(a, hi)
    best_f, best_x = fn(ends[0]), ends[0]
    for f, x in ((fc, c), (fd, d), (fn(ends[1]), ends[1])):
        better = (f < best_f) | ((f == best_f) & (x < best_x))
        best_f, best_x = np.where(better, f, best_f), np.where(better, x, best_x)
    return best_f, best_x


def relaxation_values(states) -> np.ndarray:
    """Potential value at every state's prefix, by one batched scale search.

    The states share one horizon, ladder and scale mode; each may sit at
    its own round. Optimized mode takes the bracketed minimum over the
    scale and leaves each state's minimising scale in ``state.scale`` for
    its strategy; fixed mode evaluates at 1/sqrt(n).
    """
    states = list(states)
    if not states:
        return np.empty(0)
    first = states[0]
    n = first.horizon
    for state in states:
        if (state.horizon, state.ladder, state.lambda_mode) != (n, first.ladder, first.lambda_mode):
            raise ValueError("states of one batch must share horizon, ladder and scale mode")
        if state.t > n:
            raise ValueError("prefix longer than the horizon")
    exponents = np.array([state.rung_cumulative for state in states]) + np.sqrt(n * first.radii)
    remaining = np.array([n - state.t for state in states], dtype=float)
    if first.lambda_mode == LAMBDA_FIXED:
        return _potential(np.full(len(states), 1.0 / math.sqrt(n)), exponents, remaining)
    values, logs = _scale_search(exponents, remaining, n)
    for state, x in zip(states, logs.tolist()):
        state.scale = math.exp(x)
    return values


def relaxation_value(state: TwoLevelState) -> float:
    """Potential value at the state's prefix: ``relaxation_values`` of one
    state. At the empty prefix the fixed-mode value stays below 4 sqrt(n)."""
    return float(relaxation_values([state])[0])


def relaxation_lambda(state: TwoLevelState) -> float:
    """Scale used by the next round's high-level weights.

    In optimized mode this is the bracketed argmin of the potential at the
    state's prefix, searched once per state; in fixed mode it is 1/sqrt(n).
    """
    if state.lambda_mode == LAMBDA_FIXED:
        return 1.0 / math.sqrt(state.horizon)
    if state.scale is None:
        relaxation_values([state])
    return state.scale


def _highlevel_softmax(state: TwoLevelState) -> np.ndarray:
    return softmax_rows(-relaxation_lambda(state) * _rung_exponents(state)[None, :])[0]


def highlevel_weights(state: TwoLevelState) -> Distribution:
    """Next round's mixing weights over the rung instances."""
    return Distribution(_highlevel_softmax(state))


def twolevel_predict(state: TwoLevelState) -> Distribution:
    """Next round's prediction: the exact rung mixture of low-level instances.

    Under linear loss the mixture matches two-stage sampling in expectation.
    """
    mixture = _highlevel_softmax(state) @ state.rung_q
    return Distribution(mixture / mixture.sum())


class TwoLevelRelaxation:
    """Potential/strategy pair targeting the KL-radius rate.

    ``start`` gives the state at the empty prefix; ``values`` reads the
    potential of a batch of states at once (``value`` is its one-state
    call) and ``strategy`` the next round's play at a state. The caller
    advances states with ``update`` and forks them with ``copy``; the
    object itself holds no play state and is safe to share.
    """

    name = "two-level-ew"

    def __init__(self, prior: Distribution, horizon: int,
                 ladder: RadiusLadder | None = None,
                 lambda_mode: str = LAMBDA_OPTIMIZED):
        self.prior = prior
        self.horizon = horizon
        self.ladder = ladder if ladder is not None else RadiusLadder.for_game(horizon, prior.support_size)
        self.lambda_mode = lambda_mode

    def start(self) -> TwoLevelState:
        return TwoLevelState(self.prior, self.ladder, self.horizon, self.lambda_mode)

    def values(self, states) -> np.ndarray:
        return relaxation_values(states)

    def value(self, state: TwoLevelState) -> float:
        return float(self.values([state])[0])

    def strategy(self, state: TwoLevelState) -> Distribution:
        return twolevel_predict(state)

    def rate(self, comparator) -> float:
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
    # round t plays the prior tilted by the losses of the rounds before it,
    # or the prior itself at radius zero and before any loss
    before = np.zeros_like(ys)
    before[1:] = np.cumsum(ys, axis=0)[:-1]
    q = np.tile(prior.weights, (horizon, 1))
    tilted = before.any(axis=1) if radius > 0.0 else np.zeros(horizon, dtype=bool)
    with np.errstate(divide="ignore"):
        logw = np.log(prior.weights) - math.sqrt(radius / horizon) * before[tilted]
    q[tilted] = softmax_rows(logw)
    algo = float(np.sum(q * ys))
    rhs = -algo + 2.0 * math.sqrt(radius * horizon)
    margin = rhs - lhs
    return FixedRadiusReport(lhs=lhs, rhs=rhs, margin=margin, violation=margin < -1e-8)
