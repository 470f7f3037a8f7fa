"""Catalog of adaptive regret-rate formulas as pure evaluators.

Each rate maps (comparator, outcome sequence) to a nonnegative penalty. The
formulas are exact closed forms in natural logarithms; the only iterative
piece is the power-iteration spectral norm. ``AdaptiveRate`` wraps the
evaluators behind one comparator-facing interface used by the achievability
oracle and the audit harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import FunctionTable, covering_number, dudley_integral
from .core import Distribution, RadiusLadder, kl_divergence, kl_divergence_rows, validate_weights

PREDICTABLE_K1 = 4.0 * math.sqrt(2.0)
PREDICTABLE_K2 = 24.0 * math.sqrt(2.0)

# The generic-radius constants are never pinned numerically by the analysis;
# these defaults are order-of-magnitude readings and are configurable.
GENERIC_RADIUS_K1 = 64.0
GENERIC_RADIUS_K2 = 16.0

RATE_KINDS = (
    "spectral",
    "predictable",
    "fixed_vs_best",
    "pac_bayes",
    "kl_radius",
    "norm_adaptive",
    "generic_radius",
    "uniform_constant",
)


@dataclass(frozen=True)
class CoveringProfile:
    """How log N_2(delta) is obtained for entropy-based rates.

    analytic_power_law uses delta**(-p) with 0 < p < 2; the finite modes
    compute internal covers of a concrete class table (exact search or the
    greedy upper bound), which can only enlarge the rate.
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
            from .complexity import covering_number_report

            return math.log(covering_number_report(self.table, delta, "l2", exact_cap=0).size)
        return math.log(covering_number(self.table, delta, "l2"))


def spectral_norm_psd(matrix: np.ndarray, rel_tol: float = 1e-12, max_iter: int = 10 ** 5) -> float:
    """Largest eigenvalue of a PSD matrix by deterministic power iteration.

    Starts from the normalised all-ones vector with a Rayleigh-quotient
    convergence test. If the start lands in the kernel, or converges below
    the max diagonal entry (a lower bound on the top eigenvalue), the
    iteration restarts from the dominant basis vector.
    """
    a = np.asarray(matrix, dtype=float)
    d = a.shape[0]
    scale = float(np.abs(a).max(initial=0.0))
    if scale == 0.0:
        return 0.0

    def iterate(v):
        lam = 0.0
        for _ in range(max_iter):
            w = a @ v
            norm = float(np.linalg.norm(w))
            if norm <= scale * 1e-300:
                return None
            v = w / norm
            new = float(v @ (a @ v))
            if abs(new - lam) <= rel_tol * max(abs(new), 1e-300):
                return new
            lam = new
        return lam

    lam = iterate(np.full(d, 1.0 / math.sqrt(d)))
    diag_floor = float(np.max(np.diag(a)))
    if lam is None or lam < diag_floor - rel_tol * scale:
        start = np.zeros(d)
        start[int(np.argmax(np.diag(a)))] = 1.0
        retried = iterate(start)
        lam = diag_floor if retried is None else max(retried, lam or 0.0, diag_floor)
    return max(lam, 0.0)


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
    logn = math.log(n)
    s = float(np.sum((f_values - centers) ** 2))
    best = math.inf
    for gamma in _dyadic_gamma_grid(n):
        ent = profile.log_covering(gamma / 2.0)
        term1 = PREDICTABLE_K1 * math.sqrt(logn * ent * (s + 1.0))
        term2 = PREDICTABLE_K2 * logn * dudley_integral(profile, gamma, n)
        best = min(best, term1 + term2)
    return best + 2.0 * logn + 7.0


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
    """One comparator-facing evaluator per cataloged rate kind.

    ``evaluate(comparator, outcomes)`` returns the penalty granted to that
    comparator on that outcome sequence. The comparator convention depends
    on the kind: weight vectors for the prior-relative and expert rates,
    a scalar norm or radius for the norm/radius rates, a value sequence for
    the predictable rate, and ignored entirely for the data-only rates.
    """

    def __init__(self, kind: str, **params):
        if kind not in RATE_KINDS:
            raise ValueError(f"unknown rate kind {kind!r}; known: {RATE_KINDS}")
        self.kind = kind
        self.params = params
        self._validate()

    def _validate(self):
        p = self.params
        if self.kind == "uniform_constant":
            if p.get("value", 0.0) < 0.0:
                raise ValueError("uniform constant must be nonnegative")
        elif self.kind in ("kl_radius", "pac_bayes"):
            if not isinstance(p.get("prior"), Distribution):
                raise ValueError(f"{self.kind} rate needs a prior Distribution")
        elif self.kind == "fixed_vs_best":
            if p.get("class_size", 0) < 2:
                raise ValueError("fixed_vs_best needs class_size >= 2")
            if "fstar_index" not in p:
                raise ValueError("fixed_vs_best needs fstar_index")
        elif self.kind == "spectral":
            if p.get("dimension", 0) < 1:
                raise ValueError("spectral rate needs dimension >= 1")
        elif self.kind == "norm_adaptive":
            if p.get("smoothness", 0.0) <= 0.0:
                raise ValueError("norm_adaptive needs smoothness > 0")
        elif self.kind == "generic_radius":
            if "rad_table" not in p:
                raise ValueError("generic_radius needs rad_table")
        elif self.kind == "predictable":
            if not isinstance(p.get("profile"), CoveringProfile):
                raise ValueError("predictable rate needs a CoveringProfile")
            if "centers" not in p:
                raise ValueError("predictable rate needs a center sequence")

    @property
    def prior(self) -> Distribution | None:
        return self.params.get("prior")

    def refinement_ladder(self, n: int) -> RadiusLadder | None:
        """Radius ladder to probe with KL-ball minimizers, when applicable."""
        prior = self.prior
        if prior is None:
            return None
        return RadiusLadder.for_game(n, prior.support_size)

    def evaluate(self, comparator, outcomes, inputs=None) -> float:
        kind = self.kind
        p = self.params
        if kind == "uniform_constant":
            return float(p.get("value", 0.0))
        if kind == "kl_radius":
            return kl_radius_rate(_as_distribution(comparator), p["prior"], len(outcomes))
        if kind == "pac_bayes":
            return pacbayes_rate(_as_distribution(comparator), p["prior"], outcomes)
        if kind == "fixed_vs_best":
            ys = np.atleast_2d(np.asarray(outcomes, dtype=float))
            f = np.asarray(comparator, dtype=float)
            if f.ndim != 1 or f.size != ys.shape[1]:
                raise ValueError("fixed_vs_best comparator must be a weight vector")
            f_vals = ys @ f
            fstar_vals = ys[:, int(p["fstar_index"])]
            return fixed_vs_best_rate(f_vals, fstar_vals, int(p["class_size"]))
        if kind == "spectral":
            return spectral_rate(outcomes, int(p["dimension"]))
        if kind == "norm_adaptive":
            norm = float(comparator) if np.isscalar(comparator) else float(
                np.linalg.norm(np.asarray(comparator, dtype=float))
            )
            return norm_adaptive_rate(norm, float(p["smoothness"]), len(outcomes))
        if kind == "generic_radius":
            return generic_radius_rate(
                float(comparator),
                p["rad_table"],
                k1=float(p.get("k1", GENERIC_RADIUS_K1)),
                k2=float(p.get("k2", GENERIC_RADIUS_K2)),
                gamma=float(p.get("gamma", 1.0)),
                n=len(outcomes),
            )
        if kind == "predictable":
            f_vals = np.asarray(comparator, dtype=float)
            n = len(p["centers"])
            if f_vals.ndim != 1 or f_vals.size != n:
                raise ValueError(
                    "predictable rate needs a comparator value sequence matching its centers"
                )
            return predictable_rate(f_vals, p["centers"], p["profile"], n)
        raise AssertionError(kind)

    def evaluate_many(self, comparators, outcomes) -> np.ndarray:
        """``evaluate`` for every row of a comparator matrix, as one array.

        ``kl_radius``, ``pac_bayes`` and ``fixed_vs_best`` are computed for all
        rows at once from one statistic per row: the KL to the prior, the
        second moment, the squared distance to the reference expert. Their
        rows are weight vectors, checked as ``Distribution`` checks one for
        the prior-relative kinds. Other kinds call ``evaluate`` per row.
        """
        kind = self.kind
        p = self.params
        if kind not in ("kl_radius", "pac_bayes", "fixed_vs_best"):
            return np.array([self.evaluate(c, outcomes) for c in comparators], dtype=float)
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
