"""Dilation multipliers for maximal inequalities and one-sided tail checks.

Given per-index tail envelopes with subgaussian and subexponential parts,
the theta multipliers dilate each typical size so the expected supremum of
the excesses is controlled by a two-term constant. Monte Carlo validation
uses synthetic families whose tails are certified by construction, and the
tail validators compare exact or sampled deviation probabilities of the
norm, chained-supremum, and offset processes against their closed-form
envelopes. Every check is one-sided: over-conservative bounds always pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexity import (
    EXACT_DEPTH_CAP,
    FunctionTable,
    OffsetForm,
    TableCovers,
    dudley_integral,
    offset_expectation,
    path_covers,
    _sign_paths,
    _signed_and_square_sums,
)
from .core import BinaryTree, RngSpec


@dataclass(frozen=True)
class TailSpec:
    """Per-index tail envelope P(X_i - B_i > tau) <= C1 e^{-tau^2/2 sigma_i^2} + C2 e^{-tau s_i}."""

    c1: float
    c2: float
    b: np.ndarray
    sigma: np.ndarray
    s: np.ndarray
    sigma_bar: float
    s_bar: float

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if not (b.shape == sigma.shape == s.shape) or b.ndim != 1 or b.size == 0:
            raise ValueError("b, sigma, s must be equal-length vectors")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("tail constants must be nonnegative")
        if np.any(b <= 0):
            raise ValueError("every B_i must be positive")
        if np.any(sigma < 0) or np.any(s < 0):
            raise ValueError("sigma and s must be nonnegative")
        if self.sigma_bar > sigma[0] + 1e-15:
            raise ValueError("need sigma_bar <= sigma_1")
        if self.s_bar < s[0] - 1e-15:
            raise ValueError("need s_bar >= s_1")
        for name, arr in (("b", b), ("sigma", sigma), ("s", s)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.b.size)


def theta_multipliers(spec: TailSpec) -> np.ndarray:
    """Dilation factors theta_i >= 1, one per index.

    The subgaussian branch is omitted when C1 = 0 or sigma_i = 0, the
    subexponential branch when C2 = 0 or s_i = 0; with both absent the
    multiplier is 1. Negative branch values (possible when an s_i far
    exceeds s_bar) are clamped at zero, which keeps theta_i >= 1 and only
    loosens the dilation.
    """
    n = spec.size
    theta = np.empty(n)
    for j in range(n):
        i = j + 1
        branches = [0.0]
        if spec.c1 > 0 and spec.sigma[j] > 0:
            if spec.sigma[j] < spec.sigma_bar - 1e-15:
                raise ValueError(f"sigma_{i} below sigma_bar violates the hypotheses")
            if spec.sigma_bar <= 0:
                raise ValueError("active subgaussian branch needs sigma_bar > 0")
            branches.append(
                spec.sigma[j] / spec.b[j]
                * math.sqrt(2.0 * math.log(spec.sigma[j] / spec.sigma_bar) + 4.0 * math.log(i))
            )
        if spec.c2 > 0 and spec.s[j] > 0:
            branches.append(
                math.log(i * i * (spec.s_bar / spec.s[j])) / (spec.b[j] * spec.s[j])
            )
        theta[j] = max(branches) + 1.0
    return theta


def maximal_bound(spec: TailSpec) -> float:
    """Constant controlling E sup_i (X_i - B_i theta_i): 3 C1 sigma_bar + 2 C2 / s_bar."""
    if spec.c2 > 0 and spec.s_bar <= 0:
        raise ValueError("exponential tail term needs s_bar > 0")
    exp_term = 2.0 * spec.c2 / spec.s_bar if spec.c2 > 0 else 0.0
    return 3.0 * spec.c1 * spec.sigma_bar + exp_term


GENERATORS = ("shifted_gaussian", "shifted_exponential")


@dataclass(frozen=True)
class MaximalReport:
    estimate: float
    stderr: float
    bound: float
    passed: bool
    theta: np.ndarray = field(repr=False)


def maximal_inequality_mc(spec: TailSpec, generator: str, replicates: int,
                          rng: RngSpec) -> MaximalReport:
    """Monte Carlo check of the dilated maximal inequality.

    Built-in families with tails certified inside the envelope:
      shifted_gaussian      X_i = B_i + sigma_i |Z|, needs C1 >= 1
      shifted_exponential   X_i = B_i + Exp(rate s_i), needs C2 >= 1
    Passes when the estimate is below the bound plus four standard errors.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; known: {GENERATORS}")
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    gen = rng.generator()
    n = spec.size
    if generator == "shifted_gaussian":
        if spec.c1 < 1.0:
            raise ValueError("shifted_gaussian tails need C1 >= 1")
        draws = spec.b[None, :] + spec.sigma[None, :] * np.abs(gen.standard_normal((replicates, n)))
    else:
        if spec.c2 < 1.0:
            raise ValueError("shifted_exponential tails need C2 >= 1")
        if np.any(spec.s <= 0):
            raise ValueError("shifted_exponential needs every s_i > 0")
        draws = spec.b[None, :] + gen.standard_exponential((replicates, n)) / spec.s[None, :]
    theta = theta_multipliers(spec)
    sups = (draws - (spec.b * theta)[None, :]).max(axis=1)
    estimate = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(replicates))
    bound = maximal_bound(spec)
    return MaximalReport(estimate, stderr, bound, estimate <= bound + 4.0 * stderr, theta)


# ---------------------------------------------------------------------------
# One-sided tail validators.
# ---------------------------------------------------------------------------

TAIL_KINDS = ("pinelis", "chaining", "offset_process")


@dataclass(frozen=True)
class PinelisInstance:
    """Unit-ball-valued tree in Euclidean space (2-smooth with D = 1)."""

    tree: BinaryTree
    smoothness: float = 1.0

    def __post_init__(self):
        norms = np.linalg.norm(self.tree.nodes, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise ValueError("tree values must lie in the unit ball")


@dataclass(frozen=True)
class ChainingInstance:
    table: FunctionTable


@dataclass(frozen=True)
class OffsetProcessInstance:
    table: FunctionTable
    alpha: float
    gamma: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma < 1.0 / self.table.depth:
            raise ValueError("gamma must be at least 1/n")


@dataclass(frozen=True)
class TailPoint:
    threshold: float
    empirical: float | None
    bound: float | None
    stderr: float
    passed: bool
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class TailReport:
    kind: str
    points: tuple

    @property
    def passed(self) -> bool:
        return all(p.passed or p.skipped for p in self.points)


def _deviation_samples_pinelis(inst: PinelisInstance, signs, idx):
    nodes = inst.tree.nodes[idx]                       # (P, n, d)
    sums = np.einsum("pnd,pn->pd", nodes, signs)
    return np.linalg.norm(sums, axis=1)


def _inverse_cover_term(covers: TableCovers, scale: float, metric: str, power: int) -> float:
    """One 1/N**power term of an inverse-cover series.

    Only exact minimum covers of every path may shrink a term; any other
    term is charged as 1 (N >= 1), since underestimating the series would
    invalidate the envelope.
    """
    if not covers.minimal:
        return 1.0
    return 1.0 / covers.size(scale, metric) ** power


def _chaining_gamma_constant(covers: TableCovers, n: int) -> float:
    """Upper anchor for the inverse-cover series sum_j N_inf(2^-j)^{-1}.

    Truncated at ceil(log2 n) + 4 terms with the geometric tail charged as
    one extra copy of the last term.
    """
    j_max = math.ceil(math.log2(n)) + 4
    terms = [_inverse_cover_term(covers, 2.0 ** (-j), "linf", 1) for j in range(1, j_max + 1)]
    return float(sum(terms) + terms[-1])


def tail_validate(kind: str, instance, thresholds, mode: str = "exact",
                  replicates: int | None = None, rng: RngSpec | None = None) -> TailReport:
    """Compare empirical deviation probabilities with their tail envelopes.

    Exact mode enumerates all sign paths (zero acceptance margin); mc mode
    samples and allows four binomial standard errors. Points outside a
    lemma's stated regime are skipped, not failed.
    """
    if kind not in TAIL_KINDS:
        raise ValueError(f"unknown tail kind {kind!r}; known: {TAIL_KINDS}")
    if kind == "pinelis":
        n = instance.tree.depth
    else:
        n = instance.table.depth

    signs, idx = _sign_paths(n, mode, rng, replicates)
    weight = replicates if mode == "mc" else None

    points = []
    if kind == "pinelis":
        d2 = float(instance.smoothness) ** 2
        devs = _deviation_samples_pinelis(instance, signs, idx)
        for tau in thresholds:
            if n <= tau / (4.0 * d2):
                points.append(TailPoint(tau, None, None, 0.0, True, skipped=True,
                                        note="outside regime: needs n > tau / (4 D^2)"))
                continue
            emp = float(np.mean(devs >= tau))
            bound = 2.0 * math.exp(-tau * tau / (8.0 * d2 * n))
            points.append(_judge(tau, emp, bound, weight))
    elif kind == "chaining":
        table = instance.table
        signed, _ = _signed_and_square_sums(table, signs, idx)
        sup_abs = np.abs(signed).max(axis=0)
        if mode == "exact":     # every path is in hand: the anchor is their mean supremum
            rad = float(signed.max(axis=0).mean())
        elif n <= EXACT_DEPTH_CAP:
            rad = offset_expectation(table, OffsetForm("none"))
        else:   # no exact anchor above the cap: 20 000 sampled paths stand in
            rad, _ = offset_expectation(table, OffsetForm("none"), mode="mc", rng=rng,
                                        replicates=20000)
        gamma_const = _chaining_gamma_constant(path_covers(table, idx), n)
        log_cubed = math.log(math.e * n * n) ** 3
        theta_floor = math.sqrt(12.0 / n)
        for theta in thresholds:
            if theta <= theta_floor:
                points.append(TailPoint(theta, None, None, 0.0, True, skipped=True,
                                        note="outside regime: needs theta > sqrt(12/n)"))
                continue
            cut = 8.0 * (1.0 + theta * math.sqrt(8.0 * n * log_cubed)) * rad
            emp = float(np.mean(sup_abs > cut))
            bound = 2.0 * gamma_const * math.exp(-n * theta * theta / 4.0)
            points.append(_judge(theta, emp, bound, weight))
    else:
        table, alpha, gamma = instance.table, instance.alpha, instance.gamma
        signed, squares = _signed_and_square_sums(table, signs, idx)
        # above the cover depth cap the penalty and the scale come from
        # covers of the sampled paths; exact ones are no larger than covers
        # of every path, so they can only make the check stricter
        covers = path_covers(table, idx)
        integ = dudley_integral(covers, gamma, n)
        penalty = covers.log_covering(gamma) / alpha + 12.0 * math.sqrt(2.0) * integ + 1.0
        objective = (signed - 2.0 * alpha * squares).max(axis=0) - penalty
        sigma = 12.0 * integ
        j_max = math.ceil(math.log2(2.0 * n * gamma))
        gamma_const = sum(
            _inverse_cover_term(covers, gamma * 2.0 ** (-j), "l2", 2)
            for j in range(1, j_max + 1)
        )
        for tau in thresholds:
            if tau <= 0:
                points.append(TailPoint(tau, None, None, 0.0, True, skipped=True,
                                        note="validator needs tau > 0"))
                continue
            emp = float(np.mean(objective > tau))
            gauss = gamma_const * math.exp(-tau * tau / (2.0 * sigma * sigma)) if sigma > 0 else 0.0
            bound = gauss + math.exp(-alpha * tau / 2.0)
            points.append(_judge(tau, emp, bound, weight))
    return TailReport(kind, tuple(points))


def _judge(threshold, empirical, bound, weight) -> TailPoint:
    if weight is None:
        return TailPoint(threshold, empirical, bound, 0.0, empirical <= bound + 1e-12)
    stderr = math.sqrt(max(empirical * (1.0 - empirical), 1e-12) / weight)
    return TailPoint(threshold, empirical, bound, stderr, empirical <= bound + 4.0 * stderr)
