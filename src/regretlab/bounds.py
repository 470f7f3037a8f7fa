"""Catalog of adaptive regret-rate formulas as pure evaluators.

Each rate maps (comparator, outcome sequence) to a nonnegative penalty. The
formulas are exact closed forms in natural logarithms. ``AdaptiveRate`` is
the registry of the four game rates, which price weight-vector comparators
for the achievability oracle and the audit harness; callers of the other
closed forms call them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import FunctionTable, chained_penalty, covering_number_report
from .core import Distribution, kl_divergence, kl_divergence_rows, validate_weights

# The generic-radius constants are never pinned numerically by the analysis;
# these defaults are order-of-magnitude readings and are configurable.
GENERIC_RADIUS_K1 = 64.0
GENERIC_RADIUS_K2 = 16.0

RATE_KINDS = ("kl_radius", "pac_bayes", "fixed_vs_best", "uniform_constant")

# ``lab`` names each kind with hyphens for underscores.
RATE_NAMES = tuple(kind.replace("_", "-") for kind in RATE_KINDS)


def rate_kind(name: str) -> str:
    """The kind of the rate ``lab`` calls ``name``."""
    if name not in RATE_NAMES:
        raise ValueError(f"unknown rate {name!r}; registry: {RATE_NAMES}")
    return name.replace("-", "_")


def require_horizon(kind: str, horizon: int) -> None:
    """Reject a horizon the rate of ``kind`` is undefined at: the pac-bayes
    penalty carries log n, which needs n >= 2."""
    if kind == "pac_bayes" and horizon < 2:
        raise ValueError(f"rate 'pac-bayes' needs horizon n >= 2, got horizon {horizon}")


@dataclass(frozen=True)
class CoveringProfile:
    """How log N_2(delta) is obtained for entropy-based rates.

    analytic_power_law uses delta**(-p) with 0 < p < 2; the finite modes
    compute internal covers of a concrete class table (exact search or the
    greedy upper bound), which can only enlarge the rate. Only the exact
    mode's entropy integral is piecewise (over ``table.covers``).
    """

    mode: str                       # analytic_power_law | finite_class_exact | greedy
    p: float | None = None
    table: FunctionTable | None = None

    def __post_init__(self):
        if self.mode == "analytic_power_law":
            if self.p is None or not (0.0 < self.p < 2.0):
                raise ValueError("analytic profile needs exponent 0 < p < 2")
        elif self.mode in ("finite_class_exact", "greedy"):
            if self.table is None:
                raise ValueError(f"{self.mode} profile needs a class table")
        else:
            raise ValueError(f"unknown covering profile mode {self.mode!r}")

    def log_covering(self, delta: float) -> float:
        if delta <= 0:
            raise ValueError("scale must be positive")
        if self.mode == "analytic_power_law":
            return delta ** (-self.p)
        if self.mode == "greedy":
            return math.log(covering_number_report(self.table, delta, "l2", exact_cap=0).size)
        return self.table.covers.log_covering(delta)


def spectral_norm_psd(matrix: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix, clamped at 0."""
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0.0
    return max(float(np.linalg.eigvalsh(a)[-1]), 0.0)


def spectral_rate(outcomes, d: int) -> float:
    """Unit-ball linear-game rate driven by the spectral norm of sum y y^T."""
    ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
    n = ys.shape[0]
    if n < 2:
        raise ValueError("need horizon n >= 2")
    if ys.shape[1] != d:
        raise ValueError("outcome dimension mismatch")
    norms = np.linalg.norm(ys, axis=1)
    if np.any(norms > 1.0 + 1e-9):
        raise ValueError("outcome outside unit ball")
    gram = ys.T @ ys
    lam_max = spectral_norm_psd(gram)
    return 16.0 * math.sqrt(d) * math.log(n) * (math.sqrt(lam_max) + 1.0)


def _dyadic_gamma_grid(n: int):
    return [2.0 ** j / n for j in range(math.ceil(math.log2(2 * n)) + 1)]


def predictable_rate(f_values, centers, profile: CoveringProfile, n: int) -> float:
    """Second-moment rate against a predictable center sequence.

    Minimises over the dyadic scale grid {2**j / n}; the infimum over a
    continuum could only be smaller, so the grid value stays achievable.
    """
    f_values = np.asarray(f_values, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if f_values.shape != (n,) or centers.shape != (n,):
        raise ValueError("f_values and centers must both have length n")
    if profile.mode == "analytic_power_law" and profile.p >= 2.0:
        raise ValueError("profile exponent must satisfy p < 2")
    source = profile.table.covers if profile.mode == "finite_class_exact" else profile
    s = float(np.sum((f_values - centers) ** 2))
    return float(chained_penalty(source, s, n, _dyadic_gamma_grid(n))) + 2.0 * math.log(n) + 7.0


def fixed_vs_best_rate(f_values, fstar_values, class_size: int) -> float:
    """Rate that collapses to O(1) against a designated reference element."""
    f_values = np.asarray(f_values, dtype=float)
    fstar_values = np.asarray(fstar_values, dtype=float)
    if f_values.shape != fstar_values.shape:
        raise ValueError("value sequences must have equal length")
    if class_size < 2:
        raise ValueError("class size must be >= 2")
    return float(_fixed_vs_best_penalty(float(np.sum((f_values - fstar_values) ** 2)), class_size))


def _fixed_vs_best_penalty(sq_distance, class_size: int):
    """4 log(s) sqrt(32 s) + 2 with s = log(class size) * sq_distance + e,
    elementwise in the squared distance to the reference sequence."""
    s = math.log(class_size) * sq_distance + math.e
    return 4.0 * np.log(s) * np.sqrt(32.0 * s) + 2.0


def pacbayes_rate(f: Distribution, prior: Distribution, outcomes) -> float:
    """Prior-relative mixture rate with a small-loss second-moment term.

    Comparators outside the prior's support are legal but infinitely
    penalised.
    """
    ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
    n = ys.shape[0]
    if n < 2:
        raise ValueError("need horizon n >= 2")
    if ys.shape[1] != f.support_size or f.support_size != prior.support_size:
        raise ValueError("dimension mismatch")
    second_moment = float(np.sum(ys ** 2 @ f.weights))
    return float(_pacbayes_penalty(kl_divergence(f, prior), second_moment, n))


def _pacbayes_penalty(kl, second_moment, n: int):
    """sqrt(c m) + c + 10 with c = 50 (KL + log n), elementwise in the KL and
    the second moment m; +inf where the KL is infinite."""
    c = 50.0 * (kl + math.log(n))
    # inf * 0 is NaN: an infinite KL must give +inf even when m is zero.
    return np.sqrt(c * np.where(c == math.inf, 1.0, second_moment)) + c + 10.0


def kl_radius_rate(f: Distribution, prior: Distribution, n: int) -> float:
    """Rate tied to the doubling-radius ladder of prior-relative KL balls."""
    if n < 1:
        raise ValueError("need horizon n >= 1")
    return float(_kl_radius_penalty(kl_divergence(f, prior), n))


def _kl_radius_penalty(kl, n: int):
    """3 sqrt(2 n max(KL, 1)) + 4 sqrt(n), elementwise in the KL."""
    return 3.0 * np.sqrt(2.0 * n * np.maximum(kl, 1.0)) + 4.0 * math.sqrt(n)


def norm_adaptive_rate(norm_f: float, smoothness: float, n: int) -> float:
    """Comparator-norm adaptive rate for smooth-normed linear games.

    Defined for norms >= 1; there log(2r) + log log(2r) > 0 so the square
    root is real.
    """
    if norm_f < 1.0:
        raise ValueError("below adaptive range: need comparator norm >= 1")
    if n < 1:
        raise ValueError("need horizon n >= 1")
    inner = math.log(2.0 * norm_f) + math.log(math.log(2.0 * norm_f))
    return smoothness * math.sqrt(n) * (8.0 * norm_f * (1.0 + math.sqrt(inner)) + 12.0)


def generic_radius_rate(
    comparator_radius: float,
    rad_table,
    k1: float = GENERIC_RADIUS_K1,
    k2: float = GENERIC_RADIUS_K2,
    gamma: float = 1.0,
    n: int = 2,
) -> float:
    """Model-selection rate over a nested-radius family with tabulated
    complexity values.

    ``rad_table`` is a sorted sequence of (radius, complexity) pairs with
    positive nondecreasing complexity; lookups snap up to the smallest
    tabulated rung. The square-root argument is clamped at zero when
    2 * radius < e, where its log log term goes negative; clamping only
    loosens the bound in a regime it was never meant to be sharp in.
    """
    if n < 2:
        raise ValueError("need horizon n >= 2")
    rungs = [(float(r), float(v)) for r, v in rad_table]
    if not rungs or any(v <= 0 for _, v in rungs):
        raise ValueError("rad_table needs positive complexity values")
    if any(rungs[i][0] >= rungs[i + 1][0] or rungs[i][1] > rungs[i + 1][1] for i in range(len(rungs) - 1)):
        raise ValueError("rad_table must be increasing in radius, nondecreasing in value")

    def lookup(target):
        for r, v in rungs:
            if r >= target - 1e-12:
                return v
        raise ValueError(f"table gap: no rung at or above radius {target}")

    rad_2r = lookup(2.0 * comparator_radius)
    rad_1 = lookup(1.0)
    loglog = math.log(math.log(2.0 * comparator_radius)) if 2.0 * comparator_radius > 1.0 else -math.inf
    arg = math.log(rad_2r / rad_1) + loglog
    root = math.sqrt(max(arg, 0.0))
    scale = math.log(n) ** 1.5
    return k1 * rad_2r * scale * (1.0 + root) + k2 * gamma * rad_1 * scale


class AdaptiveRate:
    """One comparator-facing evaluator per game rate kind.

    ``evaluate(comparator, outcomes)`` returns the penalty granted to a
    weight-vector comparator on an outcome sequence. Every kind depends on
    the outcomes only through their multiset.
    """

    def __init__(self, kind: str, **params):
        if kind not in RATE_KINDS:
            raise ValueError(f"unknown rate kind {kind!r}; known: {RATE_KINDS}")
        self.kind = kind
        self.params = params
        self._validate()

    @classmethod
    def named(cls, name: str, experts: int, value: float = 0.0) -> "AdaptiveRate":
        """The rate ``lab`` calls ``name`` on a game of ``experts`` decisions;
        ``value`` is the uniform-constant rate's constant."""
        kind = rate_kind(name)
        if kind == "uniform_constant":
            return cls(kind, value=value)
        if kind == "fixed_vs_best":
            return cls(kind, fstar_index=0, class_size=max(experts, 2))
        return cls(kind, prior=Distribution.uniform(experts))

    def _validate(self):
        p = self.params
        if self.kind == "uniform_constant":
            if p.get("value", 0.0) < 0.0:
                raise ValueError("uniform constant must be nonnegative")
        elif self.kind == "fixed_vs_best":
            if p.get("class_size", 0) < 2:
                raise ValueError("fixed_vs_best needs class_size >= 2")
            if "fstar_index" not in p:
                raise ValueError("fixed_vs_best needs fstar_index")
        elif not isinstance(p.get("prior"), Distribution):
            raise ValueError(f"{self.kind} rate needs a prior Distribution")

    @property
    def prior(self) -> Distribution | None:
        return self.params.get("prior")

    def evaluate(self, comparator, outcomes) -> float:
        kind = self.kind
        p = self.params
        if kind == "uniform_constant":
            return float(p.get("value", 0.0))
        if kind == "kl_radius":
            return kl_radius_rate(_as_distribution(comparator), p["prior"], len(outcomes))
        if kind == "pac_bayes":
            return pacbayes_rate(_as_distribution(comparator), p["prior"], outcomes)
        ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
        f = np.asarray(comparator, dtype=float)
        if f.ndim != 1 or f.size != ys.shape[1]:
            raise ValueError("fixed_vs_best comparator must be a weight vector")
        f_vals = ys @ f
        fstar_vals = ys[:, int(p["fstar_index"])]
        return fixed_vs_best_rate(f_vals, fstar_vals, int(p["class_size"]))

    def evaluate_many(self, comparators, outcomes) -> np.ndarray:
        """``evaluate`` for every row of a comparator matrix, as one array.

        ``kl_radius``, ``pac_bayes`` and ``fixed_vs_best`` are computed for all
        rows at once from one statistic per row: the KL to the prior, the
        second moment, the squared distance to the reference expert. Their
        rows are weight vectors, checked as ``Distribution`` checks one for
        the prior-relative kinds.
        """
        kind = self.kind
        p = self.params
        if kind == "uniform_constant":
            return np.full(len(comparators), float(p.get("value", 0.0)))
        w = np.asarray(comparators, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"{kind} comparators must be a matrix of weight vectors")
        if kind == "fixed_vs_best":
            ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
            if w.shape[1] != ys.shape[1]:
                raise ValueError("fixed_vs_best comparator must be a weight vector")
            # sum_t <y_t, w - e*>^2 = (w - e*)^T (Y^T Y) (w - e*)
            d = w.copy()
            d[:, int(p["fstar_index"])] -= 1.0
            return _fixed_vs_best_penalty(np.sum((d @ (ys.T @ ys)) * d, axis=1),
                                          int(p["class_size"]))
        validate_weights(w)
        prior = p["prior"]
        if kind == "kl_radius":
            n = len(outcomes)
            if n < 1:
                raise ValueError("need horizon n >= 1")
            return _kl_radius_penalty(kl_divergence_rows(w, prior), n)
        ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
        n = ys.shape[0]
        if n < 2:
            raise ValueError("need horizon n >= 2")
        if ys.shape[1] != w.shape[1] or w.shape[1] != prior.support_size:
            raise ValueError("dimension mismatch")
        return _pacbayes_penalty(kl_divergence_rows(w, prior), w @ np.sum(ys ** 2, axis=0), n)


def _as_distribution(comparator) -> Distribution:
    if isinstance(comparator, Distribution):
        return comparator
    return Distribution(np.asarray(comparator, dtype=float))
