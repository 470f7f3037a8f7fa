"""Sequential complexity functionals on decorated binary trees.

Signed-path suprema of a finite function class over a tree: exact
enumeration up to depth 12, Monte Carlo beyond; offset variants that
subtract data-dependent penalties; internal sequential covering numbers by
exact set-cover search (greedy upper bound for large classes), one
memoised ``TableCovers`` per table and path set; and the entropy integral
and chained penalty built on them.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import RngSpec, path_node_indices, path_signs

EXACT_DEPTH_CAP = 12
EXACT_COVER_CLASS_CAP = 12
DUDLEY_GRID_POINTS = 64


@dataclass(frozen=True)
class FunctionTable:
    """Values g(z) of a finite function class on every node of one tree.

    ``values[g, node]`` follows the heap node order of ``core.BinaryTree``.
    All entries are bounded by ``bound`` in absolute value.
    """

    values: np.ndarray              # (n_functions, 2**depth - 1)
    bound: float = 1.0

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.ndim != 2 or 0 in vals.shape:
            raise ValueError(f"a table needs at least one function and one node in a "
                             f"(functions, nodes) matrix, got shape {vals.shape}")
        n_nodes = vals.shape[1]
        depth = int(round(math.log2(n_nodes + 1)))
        if 2 ** depth - 1 != n_nodes:
            raise ValueError(f"{n_nodes} nodes is not a complete tree")
        if np.any(np.abs(vals) > self.bound + 1e-12):
            raise ValueError(f"table values exceed declared bound {self.bound}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def depth(self) -> int:
        return (self.values.shape[1] + 1).bit_length() - 1

    @property
    def n_functions(self) -> int:
        return int(self.values.shape[0])

    @cached_property
    def covers(self) -> "TableCovers":
        """The internal covers of the class on every path of its tree. They
        hold the table by a weak proxy, so use them while the table lives: a
        cycle would keep both in memory until the cycle collector runs."""
        return TableCovers(weakref.proxy(self))


@lru_cache(maxsize=16)
def _paths(depth: int):
    signs = path_signs(depth)
    idx = path_node_indices(depth, signs)
    return signs, idx


def _sign_paths(n: int, mode: str, rng: RngSpec | None, replicates: int | None):
    """(signs, idx) of the sign paths a depth-n functional averages over.

    Exact mode returns every path (depth <= EXACT_DEPTH_CAP); mc mode draws
    ``replicates`` uniform paths from a fresh generator of ``rng``.
    """
    if mode == "exact":
        if n > EXACT_DEPTH_CAP:
            raise ValueError(f"depth {n} exceeds exact cap {EXACT_DEPTH_CAP}; use mode='mc'")
        return _paths(n)
    if mode == "mc":
        if rng is None or replicates is None:
            raise ValueError("mc mode needs rng and replicates")
        if replicates < 100:
            raise ValueError("need at least 100 replicates")
        gen = rng.generator()
        signs = gen.integers(0, 2, size=(replicates, n)).astype(float) * 2.0 - 1.0
        return signs, path_node_indices(n, signs)
    raise ValueError(f"unknown mode {mode!r}")


def _signed_and_square_sums(table: FunctionTable, signs, idx):
    vals = table.values[:, idx]                     # (G, P, n)
    signed = np.einsum("gpt,pt->gp", vals, signs)
    squares = np.einsum("gpt,gpt->gp", vals, vals)
    return signed, squares


# ---------------------------------------------------------------------------
# Sequential covering numbers (internal covers drawn from the class itself).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverReport:
    size: int
    exact: bool
    scale: float
    metric: str


def _cover_masks(stats, n: int, alpha: float, metric: str):
    """Bitmask per candidate v over the (function, path) universe it covers,
    from the pairwise discrepancies ``stats`` of a depth-n table."""
    d2, dinf = stats
    if metric == "l2":
        close = d2 <= n * alpha * alpha + 1e-12
    elif metric == "linf":
        close = dinf <= alpha + 1e-12
    else:
        raise ValueError(f"unknown metric {metric!r}")
    masks = []
    for v in range(len(close)):
        bits = np.packbits(close[v].reshape(-1))
        masks.append(int.from_bytes(bits.tobytes(), "big"))
    universe_bits = close[0].size
    pad = (-universe_bits) % 8
    full = ((1 << universe_bits) - 1) << pad
    return masks, full


def _greedy_cover(masks, full):
    chosen = []
    covered = 0
    while covered != full:
        best_v, best_gain = -1, -1
        for v, m in enumerate(masks):
            gain = bin(m & ~covered).count("1")
            if gain > best_gain:
                best_v, best_gain = v, gain
        if best_gain <= 0:
            raise AssertionError("universe not coverable (every g covers itself)")
        chosen.append(best_v)
        covered |= masks[best_v]
    return chosen


def _exact_cover_size(masks, full):
    """Minimum set-cover size by depth-first branch and bound."""
    best = len(_greedy_cover(masks, full))

    def dfs(uncovered, depth):
        nonlocal best
        if uncovered == 0:
            best = min(best, depth)
            return
        if depth + 1 >= best:
            return
        # branch on the lowest uncovered bit: some chosen set must cover it
        bit = uncovered & -uncovered
        candidates = [v for v, m in enumerate(masks) if m & bit]
        candidates.sort(key=lambda v: -bin(masks[v] & uncovered).count("1"))
        for v in candidates:
            dfs(uncovered & ~masks[v], depth + 1)

    dfs(full, 0)
    return best


COVER_DEPTH_CAP = 16


class TableCovers:
    """Internal covers of one table on every path of its tree, which
    ``table.covers`` holds, or on the sampled paths ``paths`` alone (node
    indices, one row per path). The pairwise discrepancies are built once
    and sizes are memoised per (scale, metric). ``minimal``: every size is
    an exact minimum over every path, which needs every path and at most
    EXACT_COVER_CLASS_CAP functions (larger classes get greedy covers).
    """

    def __init__(self, table: FunctionTable, paths=None):
        if paths is None and table.depth > COVER_DEPTH_CAP:
            raise ValueError(f"covering needs per-path enumeration; depth cap is {COVER_DEPTH_CAP}")
        self.table = table
        self.paths = paths
        self.minimal = paths is None and table.n_functions <= EXACT_COVER_CLASS_CAP
        self._sizes = {}

    @cached_property
    def _stats(self):
        """Per-pair, per-path l2 and linf discrepancies."""
        idx = _paths(self.table.depth)[1] if self.paths is None else self.paths
        vals = self.table.values[:, idx]                # (G, P, n)
        g = self.table.n_functions
        d2 = np.empty((g, g, vals.shape[1]))
        dinf = np.empty_like(d2)
        for v in range(g):
            diff = vals - vals[v]
            d2[v] = np.einsum("gpt,gpt->gp", diff, diff)
            dinf[v] = np.abs(diff).max(axis=2)
        return d2, dinf

    def search(self, alpha: float, metric: str = "l2",
               exact_cap: int = EXACT_COVER_CLASS_CAP) -> CoverReport:
        """Unmemoised search: exact up to ``exact_cap`` functions, greedy beyond."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        masks, full = _cover_masks(self._stats, self.table.depth, alpha, metric)
        if len(masks) <= exact_cap:
            return CoverReport(_exact_cover_size(masks, full), True, alpha, metric)
        return CoverReport(len(_greedy_cover(masks, full)), False, alpha, metric)

    def size(self, alpha: float, metric: str = "l2") -> int:
        """Memoised size; every-path searches go through covering_number_report."""
        key = (alpha, metric)
        if key not in self._sizes:
            if self.paths is None:
                report = covering_number_report(self.table, alpha, metric)
            else:
                report = self.search(alpha, metric)
            self._sizes[key] = report.size
        return self._sizes[key]

    def log_covering(self, delta: float) -> float:
        return math.log(self.size(delta, "l2"))


def covering_number_report(table: FunctionTable, alpha: float, metric: str = "l2",
                           exact_cap: int = EXACT_COVER_CLASS_CAP) -> CoverReport:
    """Smallest internal cover of the class on its tree at scale alpha.

    Exact for classes of at most ``exact_cap`` functions, greedy upper bound
    beyond (flagged via ``exact``). A candidate covers a function on a path
    when the chosen per-path discrepancy condition holds, so the candidate
    may differ across paths.
    """
    return table.covers.search(alpha, metric, exact_cap)


def covering_number(table: FunctionTable, alpha: float, metric: str = "l2") -> int:
    return covering_number_report(table, alpha, metric).size


def path_covers(table: FunctionTable, idx) -> TableCovers:
    """The covers a functional averaging over the sign paths ``idx``
    measures: every path up to COVER_DEPTH_CAP, the sampled ones beyond. An
    exact cover of fewer paths is no larger, so its penalties only shrink."""
    return table.covers if table.depth <= COVER_DEPTH_CAP else TableCovers(table, idx)


def dudley_integral(source, gamma: float, n: int) -> float:
    """Entropy integral of sqrt(n log N_2(delta)) over delta in [1/n, gamma].

    A ``TableCovers`` (a FunctionTable stands for its every-path covers)
    gives an integer step integrand, integrated piecewise by
    ``_step_integral``; any other source's ``log_covering`` is integrated
    by trapezoidal quadrature on a 64-point geometric grid. The multiplying
    constants are left to the callers; an empty range integrates to 0.
    """
    lo = 1.0 / n
    if gamma <= lo:
        return 0.0
    if isinstance(source, FunctionTable):
        source = source.covers
    if isinstance(source, TableCovers):
        return _step_integral(source.size, lo, gamma, n)
    deltas = np.geomspace(lo, gamma, DUDLEY_GRID_POINTS)
    heights = np.array([math.sqrt(n * max(source.log_covering(float(d)), 0.0)) for d in deltas])
    return float(np.trapezoid(heights, deltas))


def _step_integral(cover, lo: float, hi: float, n: int) -> float:
    """Integral of sqrt(n log N_2(delta)) over [lo, hi] for the cover sizes
    ``cover`` of one table, in pieces that take the size at their bisected
    left end: exact for exact minima, which are nonincreasing, up to gaps of
    width <= tol. Greedy sizes need not be monotone, but a left-end size is
    at least the minimum cover anywhere to its right, so the result bounds
    the exact-cover integral from above, up to the same gaps.
    """

    def height(size):
        return math.sqrt(n * math.log(size))

    total = 0.0
    tol = max(1e-13 * hi, 1e-15)
    left = lo
    size_left = cover(lo)
    while hi - left > tol:
        if cover(hi) == size_left:
            total += (hi - left) * height(size_left)
            break
        a, b = left, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if cover(mid) == size_left:
                a = mid
            else:
                b = mid
        total += (a - left) * height(size_left)
        left = b
        size_left = cover(b)
    return total


def chained_penalty(source, squares, n: int, scales):
    """Least chained penalty over the scales gamma in ``scales``,
    elementwise in the square sums S: 4 sqrt(2 log n log N_2(gamma/2) (S+1))
    plus 24 sqrt(2) log n times the entropy integral up to gamma. ``source``
    is a TableCovers or any object with ``log_covering``."""
    logn = math.log(n)
    best = None
    for gamma in scales:
        ent = source.log_covering(gamma / 2.0)
        integ = dudley_integral(source, gamma, n)
        pen = 4.0 * np.sqrt(2.0 * logn * ent * (squares + 1.0)) \
            + 24.0 * math.sqrt(2.0) * logn * integ
        best = pen if best is None else np.minimum(best, pen)
    return best


# ---------------------------------------------------------------------------
# Offset suprema: signed sums minus a data-dependent penalty.
# ---------------------------------------------------------------------------

OFFSET_KINDS = ("none", "quadratic", "finite_class_penalty", "chained_penalty", "custom_penalty")


@dataclass(frozen=True)
class OffsetForm:
    """Penalty subtracted inside the per-path supremum.

    kind:
      none                  plain signed sums
      quadratic             2 * alpha * sum of squares
      finite_class_penalty  second-moment penalty with a log(class size)
                            multiplier; the expected supremum stays <= 1
      chained_penalty       covering-based penalty with an entropy integral,
                            least over a dyadic scale grid; the expected
                            supremum stays <= 7 + 2 log n
      custom_penalty        caller-supplied penalty(square_sums) -> array
    """

    kind: str
    alpha: float | None = None
    penalty: object | None = None

    def __post_init__(self):
        if self.kind not in OFFSET_KINDS:
            raise ValueError(f"unknown offset kind {self.kind!r}")
        if self.kind == "quadratic" and not (self.alpha is not None and self.alpha > 0):
            raise ValueError("quadratic offset needs alpha > 0")
        if self.kind == "custom_penalty" and not callable(self.penalty):
            raise ValueError("custom offset needs a callable penalty")


def _chained_scale_grid(n: int):
    """Dyadic scales 2**j / n capped at 1."""
    top = int(math.floor(math.log2(n))) if n > 1 else 0
    return [2.0 ** j / n for j in range(top + 1)]


def _offset_objective(table: FunctionTable, form: OffsetForm, signed, squares, idx):
    """(G, P) objective values before the per-path supremum; a chained
    penalty measures the covers of the sign paths ``idx`` (see path_covers)."""
    if form.kind == "none":
        return signed
    if form.kind == "quadratic":
        return signed - 2.0 * form.alpha * squares
    if form.kind == "finite_class_penalty":
        scaled = math.log(table.n_functions) * squares + math.e
        return signed - 2.0 * np.log(scaled) * np.sqrt(32.0 * scaled)
    if form.kind == "chained_penalty":
        # rounding is monotone, so fl(s - min p) = max fl(s - p) over scales
        return signed - chained_penalty(path_covers(table, idx), squares, table.depth,
                                        _chained_scale_grid(table.depth))
    if form.kind == "custom_penalty":
        return signed - form.penalty(squares)
    raise AssertionError(form.kind)


def offset_expectation(
    table: FunctionTable,
    form: OffsetForm,
    mode: str = "exact",
    rng: RngSpec | None = None,
    replicates: int | None = None,
):
    """Expected per-path supremum of the offset objective.

    With ``OffsetForm("none")`` this is the sequential Rademacher complexity
    of the class on its tree. Exact mode enumerates every sign path
    (depth <= 12) and returns a float; mc mode samples paths and returns
    (estimate, stderr). Above COVER_DEPTH_CAP a chained penalty measures the
    covers on the sampled paths.
    """
    n = table.depth
    signs, idx = _sign_paths(n, mode, rng, replicates)
    signed, squares = _signed_and_square_sums(table, signs, idx)
    sups = _offset_objective(table, form, signed, squares, idx).max(axis=0)
    estimate = float(sups.mean())
    if mode == "exact":
        return estimate
    return estimate, float(sups.std(ddof=1) / math.sqrt(replicates))
