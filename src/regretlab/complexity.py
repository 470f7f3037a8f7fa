"""Sequential complexity functionals on decorated binary trees.

Signed-path suprema of a finite function class over a tree: exact
enumeration up to depth 12, Monte Carlo beyond; offset variants that
subtract data-dependent penalties; internal sequential covering numbers by
exact set-cover search (greedy upper bound for large classes); and the
entropy integral used by the chained penalties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

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
        n_nodes = vals.shape[1]
        depth = int(round(math.log2(n_nodes + 1)))
        if 2 ** depth - 1 != n_nodes:
            raise ValueError(f"{n_nodes} nodes is not a complete tree")
        if np.any(np.abs(vals) > self.bound + 1e-12):
            raise ValueError(f"table values exceed declared bound {self.bound}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_depth", depth)

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def n_functions(self) -> int:
        return int(self.values.shape[0])


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


def _pairwise_path_stats(table: FunctionTable, paths=None):
    """Per-pair, per-path l2 and linf discrepancies: over every path of the
    table, cached on it, or over the sampled paths ``paths`` alone."""
    cached = getattr(table, "_pair_stats", None)
    if paths is None and cached is not None:
        return cached
    idx = _paths(table.depth)[1] if paths is None else paths
    vals = table.values[:, idx]                     # (G, P, n)
    g = table.n_functions
    d2 = np.empty((g, g, vals.shape[1]))
    dinf = np.empty_like(d2)
    for v in range(g):
        diff = vals - vals[v]
        d2[v] = np.einsum("gpt,gpt->gp", diff, diff)
        dinf[v] = np.abs(diff).max(axis=2)
    if paths is None:
        object.__setattr__(table, "_pair_stats", (d2, dinf))
    return d2, dinf


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


def covering_number_report(table: FunctionTable, alpha: float, metric: str = "l2",
                           exact_cap: int = EXACT_COVER_CLASS_CAP) -> CoverReport:
    """Smallest internal cover of the class on its tree at scale alpha.

    Exact for classes of at most ``exact_cap`` functions, greedy upper bound
    beyond (flagged via ``exact``). A candidate covers a function on a path
    when the chosen per-path discrepancy condition holds, so the candidate
    may differ across paths.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if table.depth > COVER_DEPTH_CAP:
        raise ValueError(
            f"covering needs per-path enumeration; depth cap is {COVER_DEPTH_CAP}"
        )
    return _cover_report(_pairwise_path_stats(table), table.depth, alpha, metric, exact_cap)


def _cover_report(stats, n: int, alpha: float, metric: str, exact_cap: int) -> CoverReport:
    masks, full = _cover_masks(stats, n, alpha, metric)
    if len(masks) <= exact_cap:
        return CoverReport(_exact_cover_size(masks, full), True, alpha, metric)
    return CoverReport(len(_greedy_cover(masks, full)), False, alpha, metric)


def covering_number(table: FunctionTable, alpha: float, metric: str = "l2") -> int:
    return covering_number_report(table, alpha, metric).size


def _cover_paths(n: int, idx):
    """The paths a depth-n functional measures its covers on, given the
    sign paths ``idx`` it averages over: None (every path of the tree) up to
    COVER_DEPTH_CAP, the sampled paths beyond it. An exact cover of fewer
    paths is no larger, so the penalties it prices can only shrink."""
    return idx if n > COVER_DEPTH_CAP else None


def _cover_fn(table: FunctionTable, paths=None):
    """Memoised delta -> l2 cover size of the table, over every path or over
    the sampled paths ``paths`` alone."""
    if paths is None:
        return cache(lambda delta: covering_number(table, delta, "l2"))
    stats = _pairwise_path_stats(table, paths)
    return cache(lambda delta: _cover_report(stats, table.depth, delta, "l2",
                                             EXACT_COVER_CLASS_CAP).size)


def _log_cover_fn(source, paths=None):
    """delta -> log N_2(delta) for a FunctionTable or analytic profile; a
    table's covers are measured on ``paths`` when given (see _cover_paths)."""
    if isinstance(source, FunctionTable):
        cover = _cover_fn(source, paths)
        return lambda delta: math.log(cover(delta))
    if hasattr(source, "log_covering"):
        return source.log_covering
    raise TypeError("expected a FunctionTable or an object with log_covering")


def dudley_integral(source, gamma: float, n: int, paths=None) -> float:
    """Entropy integral of sqrt(n log N_2(delta)) over delta in [1/n, gamma].

    Finite tables give an integer step integrand, which is integrated
    exactly (piecewise, with bisected breakpoints) so the result is
    monotone in gamma; analytic profiles use trapezoidal quadrature on a
    64-point geometric grid. A table's covers are measured on ``paths``
    when given (see _cover_paths). The multiplying constants are left to the
    callers; an empty range integrates to 0.
    """
    lo = 1.0 / n
    if gamma <= lo:
        return 0.0
    table = source if isinstance(source, FunctionTable) else None
    if table is None and getattr(source, "mode", None) == "finite_class_exact":
        table = source.table
    if table is not None:
        return _step_integral(_cover_fn(table, paths), lo, gamma, n)
    log_cov = _log_cover_fn(source)
    deltas = np.geomspace(lo, gamma, DUDLEY_GRID_POINTS)
    heights = np.array([math.sqrt(n * max(log_cov(float(d)), 0.0)) for d in deltas])
    return float(np.trapezoid(heights, deltas))


def _step_integral(cover, lo: float, hi: float, n: int) -> float:
    """Exact integral of sqrt(n log N_2(delta)) for the integer-valued,
    nonincreasing cover-size function ``cover`` of one table.

    Greedy covers are not monotone in the scale, so only exact minima take
    this route; everything else falls back to quadrature.
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
                            maximised over a dyadic scale grid; the expected
                            supremum stays <= 7 + 2 log n
      custom_penalty        caller-supplied penalty(square_sums) -> array
    """

    kind: str
    alpha: float | None = None
    class_size: int | None = None
    profile: object | None = None
    penalty: object | None = None

    def __post_init__(self):
        if self.kind not in OFFSET_KINDS:
            raise ValueError(f"unknown offset kind {self.kind!r}")
        if self.kind == "quadratic" and not (self.alpha is not None and self.alpha > 0):
            raise ValueError("quadratic offset needs alpha > 0")
        if self.kind == "custom_penalty" and not callable(self.penalty):
            raise ValueError("custom offset needs a callable penalty")
        if self.class_size is not None and self.class_size < 1:
            raise ValueError("class_size must be >= 1")


def _chained_scale_grid(n: int):
    """Dyadic scales 2**j / n capped at 1."""
    top = int(math.floor(math.log2(n))) if n > 1 else 0
    return [2.0 ** j / n for j in range(top + 1)]


def _offset_objective(table: FunctionTable, form: OffsetForm, signed, squares, n: int,
                      paths=None):
    """(G, P) objective values before the per-path supremum; a chained
    penalty measures the table's covers on ``paths`` (see _cover_paths)."""
    if form.kind == "none":
        return signed
    if form.kind == "quadratic":
        return signed - 2.0 * form.alpha * squares
    if form.kind == "finite_class_penalty":
        size = form.class_size if form.class_size is not None else table.n_functions
        scaled = math.log(size) * squares + math.e
        return signed - 2.0 * np.log(scaled) * np.sqrt(32.0 * scaled)
    if form.kind == "chained_penalty":
        source = form.profile if form.profile is not None else table
        log_cov = _log_cover_fn(source, paths)
        logn = math.log(n)
        best = None
        for gamma in _chained_scale_grid(n):
            ent = log_cov(gamma / 2.0)
            integ = dudley_integral(source, gamma, n, paths)
            pen = 4.0 * np.sqrt(2.0 * logn * ent * (squares + 1.0)) \
                + 24.0 * math.sqrt(2.0) * logn * integ
            obj = signed - pen
            best = obj if best is None else np.maximum(best, obj)
        return best
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
    sups = _offset_objective(table, form, signed, squares, n, _cover_paths(n, idx)).max(axis=0)
    estimate = float(sups.mean())
    if mode == "exact":
        return estimate
    return estimate, float(sups.std(ddof=1) / math.sqrt(replicates))
