"""Independent reference computations for the benchmark's output checks.

Nothing here imports regretlab. Each solver recomputes a program output
from the closed forms it is defined by:

- ``two_level_fixed_losses``: the fixed-scale two-level exponential-weights
  strategy, vectorised over rungs, round by round.
- ``two_level_optimized_losses``: the same strategy with the scale chosen by
  minimising the potential at every round (``scipy``'s bounded scalar
  minimiser, not the program's golden-section search).
- ``envelope_game_value``: backward induction over all outcome histories of
  a two-decision game, each round solved exactly as the minimum over
  ``q in [0, 1]`` of the upper envelope of the outcome lines; no LP.
- ``tree_walk_sums``: signed and square sums of every function along every
  sign path, by a direct recursive walk of the tree.
- ``brute_cover_size``: smallest internal cover by trying subsets in order
  of size.
- ``cover_steps`` and ``step_integral``: the entropy integral of a finite
  class from the exact breakpoints of its cover-size step function.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp


# ---------------------------------------------------------------------------
# Rate closed forms (natural logarithms throughout).
# ---------------------------------------------------------------------------

def kl_to_uniform(weights) -> np.ndarray:
    """KL(f | uniform) for each row of an (m, K) array of weight vectors."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    k = w.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(w * k), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)


def kl_radius_penalty(weights, n: int) -> np.ndarray:
    kl = kl_to_uniform(weights)
    return 3.0 * np.sqrt(2.0 * n * np.maximum(kl, 1.0)) + 4.0 * math.sqrt(n)


def pac_bayes_penalty(weights, losses) -> np.ndarray:
    ys = np.atleast_2d(np.asarray(losses, dtype=float))
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    c = 50.0 * (kl_to_uniform(w) + math.log(ys.shape[0]))
    second = w @ (ys ** 2).sum(axis=0)
    return np.sqrt(c * second) + c + 10.0


def fixed_vs_best_penalty(weights, losses, fstar: int = 0) -> np.ndarray:
    ys = np.atleast_2d(np.asarray(losses, dtype=float))
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    k = max(ys.shape[1], 2)
    gaps = ys @ w.T - ys[:, [fstar]]                # (n, m)
    s = math.log(k) * (gaps ** 2).sum(axis=0) + math.e
    return 4.0 * np.log(s) * np.sqrt(32.0 * s) + 2.0


PENALTIES = {
    "uniform-constant": lambda w, ys: np.zeros(np.atleast_2d(w).shape[0]),
    "kl-radius": lambda w, ys: kl_radius_penalty(w, np.atleast_2d(ys).shape[0]),
    "pac-bayes": pac_bayes_penalty,
    "fixed-vs-best": fixed_vs_best_penalty,
}


def ladder_radii(n: int, k: int) -> np.ndarray:
    """Doubling radii 2**(i-1), i = 1..i_max, i_max = ceil(log2(n max(ln K, 1) + 1)) + 1."""
    i_max = math.ceil(math.log2(n * max(math.log(max(k, 2)), 1.0) + 1.0)) + 1
    return 2.0 ** np.arange(max(i_max, 1))


def simplex_points(k: int, resolution: int, budget: int) -> np.ndarray:
    """Stars-and-bars grid at the largest resolution <= requested within budget."""
    m = resolution
    while m > 1 and math.comb(m + k - 1, k - 1) > budget:
        m -= 1
    rows = []
    for cuts in combinations(range(m + k - 1), k - 1):
        edges = (-1,) + cuts + (m + k - 1,)
        rows.append([edges[j + 1] - edges[j] - 1 for j in range(k)])
    return np.asarray(rows, dtype=float) / m


def kl_ball_point(cum, radius: float) -> np.ndarray:
    """Minimiser of <cum, f> over KL(f | uniform) <= radius.

    The prior restricted to the argmin entries when that lies in the ball,
    otherwise the exponential tilt whose KL equals the radius, located by
    bisection on the tilt to float resolution.
    """
    cum = np.asarray(cum, dtype=float)
    k = cum.size
    argmin = cum <= cum.min() + 1e-15
    if math.log(k / argmin.sum()) <= radius + 1e-10:
        return argmin / argmin.sum()

    def tilt(eta):
        z = -eta * (cum - cum.min())
        w = np.exp(z - z.max())
        return w / w.sum()

    lo, hi = 0.0, 1.0
    while kl_to_uniform(tilt(hi))[0] < radius:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if kl_to_uniform(tilt(mid))[0] < radius:
            lo = mid
        else:
            hi = mid
    return tilt(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# The two-level strategy.
# ---------------------------------------------------------------------------

def _rung_mixture(cum, eta):
    """Row-stochastic (I, K) tilts of the uniform prior, one per rung rate."""
    z = -eta[:, None] * cum[None, :]
    w = np.exp(z - z.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def _potential(lam, exponents, remaining):
    return logsumexp(-lam * exponents) / lam + 2.0 * lam * remaining


def _play(losses, n, choose_lambda):
    ys = np.atleast_2d(np.asarray(losses, dtype=float))
    k = ys.shape[1]
    radii = ladder_radii(n, k)
    eta = np.sqrt(radii / n)
    base = np.sqrt(n * radii)
    cum = np.zeros(k)
    rung_cum = np.zeros(radii.size)
    out = np.empty(ys.shape[0])
    for t, y in enumerate(ys):
        q = _rung_mixture(cum, eta)
        exponents = rung_cum + base
        lam = choose_lambda(exponents, n - t)
        z = -lam * exponents
        w = np.exp(z - z.max())
        pred = (w / w.sum()) @ q
        out[t] = (pred / pred.sum()) @ y
        rung_cum += q @ y
        cum += y
    return out


def two_level_fixed_losses(losses) -> np.ndarray:
    """Per-round expected losses of the two-level strategy at scale 1/sqrt(n)."""
    n = np.atleast_2d(losses).shape[0]
    return _play(losses, n, lambda exponents, remaining: 1.0 / math.sqrt(n))


def two_level_fixed_start(n: int, k: int) -> float:
    """Potential at the empty prefix, scale 1/sqrt(n)."""
    radii = ladder_radii(n, k)
    lam = 1.0 / math.sqrt(n)
    return float(_potential(lam, np.sqrt(n * radii), n))


def _argmin_scale(exponents, remaining, n):
    lo, hi = math.log(1e-6 / math.sqrt(n)), math.log(1e3 / math.sqrt(n))
    res = minimize_scalar(lambda x: _potential(math.exp(x), exponents, remaining),
                          bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return res.x, float(res.fun)


def two_level_optimized_losses(losses, n: int) -> np.ndarray:
    """Per-round losses when round t minimises the potential at its prefix."""
    return _play(losses, n, lambda exponents, remaining: math.exp(
        _argmin_scale(exponents, remaining, n)[0]))


def two_level_optimized_start(n: int, k: int) -> float:
    radii = ladder_radii(n, k)
    return _argmin_scale(np.sqrt(n * radii), n, n)[1]


# ---------------------------------------------------------------------------
# Backward induction for two-decision games, without linear programming.
# ---------------------------------------------------------------------------

def envelope_value(matrix) -> float:
    """min over q in [0, 1] of max_y (q m[0, y] + (1 - q) m[1, y])."""
    m = np.asarray(matrix, dtype=float)
    if m.shape[0] != 2:
        raise ValueError("envelope solver needs exactly two decisions")
    a, b = m[1], m[0] - m[1]
    candidates = [0.0, 1.0]
    for i in range(b.size):
        for j in range(i + 1, b.size):
            if b[i] != b[j]:
                q = (a[j] - a[i]) / (b[i] - b[j])
                if 0.0 < q < 1.0:
                    candidates.append(q)
    return min(float(np.max(a + q * b)) for q in candidates)


def envelope_game_value(outcomes, horizon: int, comparators, rate: str,
                        refine: bool) -> float:
    """Root value of the rate-offset game on a two-expert linear game.

    ``outcomes`` holds one per-expert loss column per outcome. Leaves take
    the best penalised comparator (optionally also the KL-ball minimisers of
    every ladder radius); internal nodes take the envelope value of the
    per-decision loss plus the child values.
    """
    ys = np.asarray(outcomes, dtype=float)
    comps = np.asarray(comparators, dtype=float)
    penalty = PENALTIES[rate]
    radii = ladder_radii(horizon, ys.shape[1])

    def leaf(history):
        seq = ys[list(history)]
        cum = seq.sum(axis=0)
        cands = comps
        if refine:
            cands = np.vstack([comps] + [kl_ball_point(cum, r) for r in radii])
        return -float(np.min(cands @ cum + penalty(cands, seq)))

    def node(history):
        if len(history) == horizon:
            return leaf(history)
        children = np.array([node(history + (y,)) for y in range(len(ys))])
        return envelope_value(ys.T + children[None, :])

    return node(())


# ---------------------------------------------------------------------------
# Trees: path sums, covers, entropy integrals.
# ---------------------------------------------------------------------------

def tree_walk_sums(values):
    """(signed, squares), each (G, 2**depth), by a recursive walk.

    ``values[g, node]`` is in heap order; a -1 step goes to child 2i+1.
    Path columns come out in walk order; every function shares the order.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    n_nodes = vals.shape[1]
    signed, squares = [], []

    def walk(node, s, q):
        if node >= n_nodes:
            signed.append(s)
            squares.append(q)
            return
        v = vals[:, node]
        walk(2 * node + 1, s - v, q + v * v)
        walk(2 * node + 2, s + v, q + v * v)

    zero = np.zeros(vals.shape[0])
    walk(0, zero, zero)
    return np.array(signed).T, np.array(squares).T


def tree_walk_paths(values) -> np.ndarray:
    """(G, 2**depth, depth) values along every path, in walk order."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    n_nodes = vals.shape[1]
    rows = []

    def walk(node, trail):
        if node >= n_nodes:
            rows.append(trail)
            return
        walk(2 * node + 1, trail + [node])
        walk(2 * node + 2, trail + [node])

    walk(0, [])
    return vals[:, np.array(rows)]


def pair_distances(values) -> np.ndarray:
    """(G, G, P) squared l2 distances of each function pair along each path."""
    paths = tree_walk_paths(values)
    diff = paths[:, None, :, :] - paths[None, :, :, :]
    return (diff ** 2).sum(axis=3)


def _cover_masks(d2, depth: int, alpha: float):
    close = d2 <= depth * alpha * alpha + 1e-12          # (centre, g, path)
    masks = [int.from_bytes(np.packbits(c.ravel()).tobytes(), "big") for c in close]
    full = int.from_bytes(np.packbits(np.ones(close[0].size, dtype=bool)).tobytes(), "big")
    return masks, full


def brute_cover_size(d2, depth: int, alpha: float) -> int:
    """Smallest set of centres covering every (function, path) at scale alpha."""
    masks, full = _cover_masks(d2, depth, alpha)
    for size in range(1, len(masks) + 1):
        for subset in combinations(masks, size):
            covered = 0
            for m in subset:
                covered |= m
            if covered == full:
                return size
    raise AssertionError("every function covers itself")


def cover_steps(d2, depth: int, lo: float, hi: float):
    """The cover-size step function on [lo, hi] as (left, right, size) pieces.

    The size only changes where some pair's path distance crosses the scale,
    and it never grows with the scale, so the pieces between two crossings
    with equal sizes all share that size.
    """
    crossings = np.sqrt(np.maximum(d2.ravel() - 1e-12, 0.0) / depth)
    inside = np.unique(crossings[(crossings > lo) & (crossings < hi)])
    edges = np.concatenate([[lo], inside, [hi]])
    sizes = [None] * (edges.size - 1)

    def size_at(i):
        if sizes[i] is None:
            sizes[i] = brute_cover_size(d2, depth, 0.5 * (edges[i] + edges[i + 1]))
        return sizes[i]

    def fill(i, j):
        if size_at(i) == size_at(j):
            for k in range(i + 1, j):
                sizes[k] = sizes[i]
        elif j - i > 1:
            mid = (i + j) // 2
            fill(i, mid)
            fill(mid, j)

    fill(0, len(sizes) - 1)
    return [(edges[i], edges[i + 1], sizes[i]) for i in range(len(sizes))]


def step_integral(steps, depth: int, hi: float) -> float:
    """Integral of sqrt(depth * log N(delta)) over the steps, up to hi."""
    total = 0.0
    for a, b, size in steps:
        if a >= hi:
            break
        total += (min(b, hi) - a) * math.sqrt(depth * math.log(size))
    return total


def chained_offset(values) -> float:
    """Expected per-path supremum of the chained-penalty offset objective."""
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    depth = int(round(math.log2(vals.shape[1] + 1)))
    signed, squares = tree_walk_sums(vals)
    d2 = pair_distances(vals)
    logn = math.log(depth)
    top = int(math.floor(math.log2(depth)))
    steps = cover_steps(d2, depth, 1.0 / depth, 2.0 ** top / depth)
    best = None
    for j in range(top + 1):
        gamma = 2.0 ** j / depth
        ent = math.log(brute_cover_size(d2, depth, gamma / 2.0))
        integ = step_integral(steps, depth, gamma)
        obj = signed - 4.0 * np.sqrt(2.0 * logn * ent * (squares + 1.0)) \
            - 24.0 * math.sqrt(2.0) * logn * integ
        best = obj if best is None else np.maximum(best, obj)
    return float(best.max(axis=0).mean())


def finite_class_offset(values) -> float:
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    signed, squares = tree_walk_sums(vals)
    scaled = math.log(vals.shape[0]) * squares + math.e
    return float((signed - 2.0 * np.log(scaled) * np.sqrt(32.0 * scaled)).max(axis=0).mean())


def quadratic_offset(values, alpha: float) -> float:
    signed, squares = tree_walk_sums(values)
    return float((signed - 2.0 * alpha * squares).max(axis=0).mean())
