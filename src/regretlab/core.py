"""Shared domain types and numerically stable primitives.

Probability vectors over finite sets, finite online games, decorated binary
trees addressed by sign paths, doubling radius ladders, and deterministic
RNG plumbing. Everything here is immutable after construction and pure, so
the higher modules can share instances freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-12


class SupportError(ValueError):
    """A weight vector has no usable support."""


def _as_float_vector(x, name="vector"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    return arr


def validate_weights(w: np.ndarray) -> None:
    """Raise unless every row of ``w`` (its last axis) is a probability vector:
    no NaN, no negative entry, and a sum within SUM_TOL of 1."""
    if np.isnan(w).any():
        raise ValueError("weights contain NaN")
    if (w < 0.0).any():
        raise ValueError("negative weight")
    total = w.sum(axis=-1)
    off = np.abs(total - 1.0) > SUM_TOL
    if off.any():
        first = total[off][0] if total.ndim else total
        raise ValueError(f"weights sum to {float(first)!r}, not 1")


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite set (experts, decisions, rungs)."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_vector(self.weights, "weights")
        validate_weights(w)
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def support_size(self) -> int:
        return int(self.weights.size)

    @staticmethod
    def uniform(k: int) -> "Distribution":
        return Distribution(np.full(k, 1.0 / k))

    @staticmethod
    def point_mass(index: int, k: int) -> "Distribution":
        w = np.zeros(k)
        w[index] = 1.0
        return Distribution(w)


def normalize_log_weights(logw) -> Distribution:
    """Max-shift softmax: exp(logw - max(logw)), renormalised.

    Entries may be -inf (zero weight). All entries -inf is an error since
    there is nothing left to normalise. Adding a constant to every entry
    leaves the result unchanged.
    """
    logw = _as_float_vector(logw, "logw")
    if np.any(np.isnan(logw)) or np.any(logw == np.inf):
        raise ValueError("log-weights must be finite or -inf")
    m = float(np.max(logw))
    if m == -np.inf:
        raise SupportError("empty support: all log-weights are -infinity")
    w = np.exp(logw - m)
    return Distribution(w / w.sum())


def kl_divergence(f: Distribution, pi: Distribution) -> float:
    """KL(f | pi) with the 0 log 0 = 0 convention.

    Returns +inf when f puts mass outside pi's support. Tiny negative
    rounding residue is clamped to zero.
    """
    if f.support_size != pi.support_size:
        raise ValueError("support sizes differ")
    fw, pw = f.weights, pi.weights
    mask = fw > 0.0
    if np.any(pw[mask] == 0.0):
        return math.inf
    val = float(np.sum(fw[mask] * np.log(fw[mask] / pw[mask])))
    if val < 0.0:
        if val < -1e-9:
            raise AssertionError(f"KL summation produced {val}")
        val = 0.0
    return val


def kl_divergence_rows(weights: np.ndarray, pi: Distribution) -> np.ndarray:
    """``kl_divergence`` of every row of a (m, K) weight matrix against pi.

    The rows must already be valid weight vectors (see ``validate_weights``).
    Same conventions: +inf for mass outside pi's support, negative rounding
    residue clamped to zero and an error below -1e-9. Zero entries enter the
    row sums as zero terms, so a row may differ from ``kl_divergence`` in the
    last bits.
    """
    pw = pi.weights
    if weights.shape[1] != pw.size:
        raise ValueError("support sizes differ")
    mass = weights > 0.0
    inside = pw > 0.0
    ratio = np.divide(weights, pw, out=np.ones_like(weights), where=mass & inside)
    val = np.sum(weights * np.log(ratio), axis=1)
    val[np.any(mass & ~inside, axis=1)] = math.inf
    if np.any(val < -1e-9):
        raise AssertionError(f"KL summation produced {float(np.min(val))}")
    val[val < 0.0] = 0.0
    return val


@dataclass(frozen=True)
class GameSpec:
    """Finite online game: decisions vs. outcomes under a bounded loss matrix.

    ``outcomes`` holds one vector per outcome (for experts games these are the
    per-decision loss columns). ``comparators`` are weight vectors over the
    decisions; point masses recover single decisions.
    """

    decisions: tuple
    outcomes: np.ndarray            # (n_outcomes, outcome_dim)
    loss: np.ndarray                # (n_decisions, n_outcomes)
    comparators: tuple              # weight vectors over decisions
    horizon: int
    loss_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        outcomes = np.atleast_2d(np.asarray(self.outcomes, dtype=float))
        loss = np.asarray(self.loss, dtype=float)
        if loss.shape != (len(self.decisions), outcomes.shape[0]):
            raise ValueError("loss must be (decisions x outcomes)")
        lo, hi = self.loss_range
        if np.any(loss < lo - 1e-12) or np.any(loss > hi + 1e-12):
            raise ValueError(f"loss entries outside declared range [{lo}, {hi}]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        comparators = tuple(_check_comparator(c, len(self.decisions)) for c in self.comparators)
        if not comparators:
            raise ValueError("comparator grid is empty")
        outcomes = outcomes.copy()
        outcomes.flags.writeable = False
        loss = loss.copy()
        loss.flags.writeable = False
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "comparators", comparators)
        object.__setattr__(self, "decisions", tuple(self.decisions))

    @property
    def n_outcomes(self) -> int:
        return int(self.outcomes.shape[0])

    @property
    def n_decisions(self) -> int:
        return len(self.decisions)

    def comparator_loss(self, f, y: int) -> float:
        """Expected loss of mixture comparator f on outcome index y."""
        return float(np.dot(np.asarray(f, dtype=float), self.loss[:, y]))

    @staticmethod
    def experts_game(outcome_vectors, horizon, comparators=None, loss_range=(0.0, 1.0)):
        """Linear experts game: loss of expert k on outcome y is y[k]."""
        outcomes = np.atleast_2d(np.asarray(outcome_vectors, dtype=float))
        k = outcomes.shape[1]
        loss = outcomes.T
        if comparators is None:
            comparators = [Distribution.point_mass(i, k).weights for i in range(k)]
        return GameSpec(
            decisions=tuple(range(k)),
            outcomes=outcomes,
            loss=loss,
            comparators=tuple(comparators),
            horizon=horizon,
            loss_range=loss_range,
        )


def _check_comparator(c, n_decisions):
    if isinstance(c, (int, np.integer)):
        return Distribution.point_mass(int(c), n_decisions).weights
    arr = _as_float_vector(c, "comparator")
    if arr.size != n_decisions:
        raise ValueError("comparator dimension mismatch")
    if np.any(arr < -1e-12) or abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError("comparator must be a weight vector over decisions")
    arr = np.clip(arr, 0.0, None)
    arr = arr / arr.sum()
    arr.flags.writeable = False
    return arr


def expected_loss(q: Distribution, y: int, game: GameSpec) -> float:
    """Expected loss of randomized decision q on outcome index y."""
    if not 0 <= y < game.n_outcomes:
        raise IndexError(f"outcome index {y} out of range")
    return float(np.dot(q.weights, game.loss[:, y]))


@dataclass(frozen=True)
class BinaryTree:
    """Depth-n complete binary tree with one value vector per node.

    The node at level t (1-based) is addressed by the sign path e_{1:t-1};
    a -1 step selects the left child. Nodes are stored in heap order, so the
    value at level t depends on the first t-1 signs only, by construction.
    """

    depth: int
    nodes: np.ndarray               # (2**depth - 1, value_dim)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim == 1:
            nodes = nodes[:, None]
        expected = 2 ** self.depth - 1
        if nodes.shape[0] != expected:
            raise ValueError(f"tree of depth {self.depth} needs {expected} nodes, got {nodes.shape[0]}")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def value_dim(self) -> int:
        return int(self.nodes.shape[1])

    @staticmethod
    def constant(depth: int, value) -> "BinaryTree":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return BinaryTree(depth, np.tile(v, (2 ** depth - 1, 1)))


def tree_get(tree: BinaryTree, t: int, path) -> np.ndarray:
    """Value at level t along the sign path e_{1:t-1}."""
    if not 1 <= t <= tree.depth:
        raise ValueError(f"level {t} outside tree of depth {tree.depth}")
    path = tuple(path)
    if len(path) != t - 1:
        raise ValueError(f"path length {len(path)} does not address level {t}")
    idx = 0
    for e in path:
        if e not in (-1, 1):
            raise ValueError("path entries must be -1 or +1")
        idx = 2 * idx + (1 if e == -1 else 2)
    return tree.nodes[idx]


def path_signs(depth: int) -> np.ndarray:
    """All 2**depth sign sequences as a (+/-1)-valued (2**depth, depth) array.

    Row s encodes e_t = +1 iff bit (t-1) of s is set.
    """
    s = np.arange(2 ** depth, dtype=np.int64)
    bits = (s[:, None] >> np.arange(depth, dtype=np.int64)[None, :]) & 1
    return np.where(bits == 1, 1.0, -1.0)


def path_node_indices(depth: int, signs: np.ndarray | None = None) -> np.ndarray:
    """Heap-order node index visited at each level for each sign path."""
    if signs is None:
        signs = path_signs(depth)
    signs = np.asarray(signs)
    n_paths, n_levels = signs.shape
    idx = np.zeros((n_paths, n_levels), dtype=np.int64)
    cur = np.zeros(n_paths, dtype=np.int64)
    for t in range(n_levels):
        idx[:, t] = cur
        cur = 2 * cur + np.where(signs[:, t] < 0, 1, 2)
    return idx


@dataclass(frozen=True)
class RadiusLadder:
    """Doubling complexity radii R_i = 2**(i-1), truncated at i_max."""

    i_max: int

    def __post_init__(self):
        if self.i_max < 1:
            raise ValueError("i_max must be >= 1")

    @property
    def radii(self) -> np.ndarray:
        return 2.0 ** np.arange(self.i_max)

    @staticmethod
    def for_game(horizon: int, n_experts: int) -> "RadiusLadder":
        """Default truncation: rungs beyond this exceed any attainable regret."""
        i_max = math.ceil(math.log2(horizon * max(math.log(max(n_experts, 2)), 1.0) + 1.0)) + 1
        return RadiusLadder(max(i_max, 1))


@dataclass(frozen=True)
class RngSpec:
    """Named, counter-seeded randomness.

    The same spec always yields byte-identical streams. Replicate r of a
    batch uses ``generator(r)`` so serial and parallel schedules agree.
    """

    seed: int
    algorithm: str = "pcg64"

    def __post_init__(self):
        if self.algorithm != "pcg64":
            raise ValueError(f"unknown rng algorithm {self.algorithm!r}")

    def generator(self, offset: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + offset)

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "seed": int(self.seed)}
