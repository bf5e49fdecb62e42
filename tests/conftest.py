import numpy as np

import matmeasure as mm
from matmeasure.measures import (ATOM_MERGE_TOL, MASS_SLACK, METRICS, SET_DEDUP_TOL,
                                 _lp_breakpoints, _lp_subsets, _point_distances,
                                 _uses_subset_kernel)

# 3x3 worked example: row sums (2, 1, 2), commutant of order 2.
EXAMPLE_A = np.array([[0.0, 1.0, 1.0],
                      [0.0, 1.0, 0.0],
                      [1.0, 1.0, 0.0]])

# 2x2 worked example with an irreducible and a non-irreducible vector.
EXAMPLE_B = np.array([[0.0, 2.0],
                      [3.0, 1.0]])


def random_weights(rng: np.random.Generator, m: int) -> np.ndarray:
    w = rng.random(m) + 0.1
    return w / w.sum()


def random_measure(rng: np.random.Generator, dim: int = 2, max_atoms: int = 4,
                   scale: float = 1.0) -> mm.WeightedPointMeasure:
    m = int(rng.integers(1, max_atoms + 1))
    points = rng.uniform(-1.0, 1.0, (m, dim)) * scale
    return mm.WeightedPointMeasure(points, random_weights(rng, m))


def four_vertex_classes() -> dict[str, mm.Graph]:
    """One representative per isomorphism class of graphs on 4 vertices."""
    return {
        "empty": mm.Graph(4, []),
        "edge": mm.Graph(4, [(0, 1)]),
        "matching": mm.Graph(4, [(0, 1), (2, 3)]),
        "path3": mm.Graph(4, [(0, 1), (1, 2)]),
        "triangle": mm.Graph(4, [(0, 1), (1, 2), (0, 2)]),
        "path4": mm.Graph(4, [(0, 1), (1, 2), (2, 3)]),
        "star": mm.Graph(4, [(0, 1), (0, 2), (0, 3)]),
        "cycle4": mm.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "paw": mm.Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        "diamond": mm.Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)]),
        "k4": mm.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    }


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices (use only for small n)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield mm.Graph(n, [pairs[t] for t in range(len(pairs)) if bits >> t & 1])


def lp_reference(mu: mm.WeightedPointMeasure, nu: mm.WeightedPointMeasure,
                 metric: str = "euclidean") -> float:
    """One pair's LP distance on its own path, outside the batched evaluator:
    0.0 for pairs of one atom count whose canonical keys agree within
    ``SET_DEDUP_TOL`` entry by entry (compared with numpy, not by the
    library's predicate); otherwise the pair, with fewer atoms (then smaller
    key bytes) first, goes to the subset kernel where ``_uses_subset_kernel``
    allows and to the Dinic search elsewhere."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if mu.atom_count == nu.atom_count and np.all(np.abs(mu._key - nu._key) <= SET_DEDUP_TOL):
        return 0.0
    if (nu.atom_count, nu._key.tobytes()) < (mu.atom_count, mu._key.tobytes()):
        mu, nu = nu, mu
    dist = _point_distances(mu.points, nu.points, metric)
    if _uses_subset_kernel(mu.atom_count, nu.atom_count):
        return float(_lp_subsets(dist[None], mu.weights[None], nu.weights[None])[0])
    return _lp_breakpoints(dist, mu.weights, nu.weights)


def canonical_key_reference(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One measure's canonical key on its own, atom by atom: the atoms sorted
    lexicographically, each merged into the first atom of its run when within
    ``ATOM_MERGE_TOL`` of it componentwise, weights added in sorted order."""
    key = np.column_stack((points, weights))[np.lexsort(points.T[::-1])]
    firsts = [0]
    for r in range(1, len(key)):
        if np.all(np.abs(key[r, :-1] - key[firsts[-1], :-1]) <= ATOM_MERGE_TOL):
            key[firsts[-1], -1] += key[r, -1]
        else:
            firsts.append(r)
    return key[firsts]


def tuple_law(matrix: mm.MeasuredMatrix, vectors) -> mm.WeightedPointMeasure:
    """Law of (Z_1, A Z_1, ..., Z_k, A Z_k) under the index weights, with each
    A z one ``A @ z`` on its own: the per-vector reference for the batched
    builders."""
    columns = []
    for z in vectors:
        z = np.asarray(z, dtype=float).ravel()
        columns.append(z)
        columns.append(matrix.entries @ z)
    return mm.WeightedPointMeasure(np.column_stack(columns), matrix.p)


def far_mass_pair():
    """A planar pair whose distance is its far mass, 0.445, which the kernel
    sums in atom order and the lower bound in nearest-distance order: the
    computed bound reads 2 ulps above the computed distance (both metrics)."""
    far = [0.175, 0.035, 0.025, 0.11, 0.1]
    mu = mm.WeightedPointMeasure([[0.0, 0.0]] + [[x, 0.0] for x in (4.0, 3.0, 3.5, 4.5, 5.0)],
                                 [1.0 - sum(far)] + far)
    nu = mm.WeightedPointMeasure([[0.0, 0.0], [-5.0, 0.0]], [1.0 - sum(far), sum(far)])
    return mu, nu


def hausdorff_reference(x: mm.MeasureSet, y: mm.MeasureSet, metric: str = "euclidean") -> float:
    """Unpruned Hausdorff distance: the full ``lp_reference`` table, then the
    larger of the largest row minimum and the largest column minimum."""
    table = np.array([[lp_reference(a, b, metric) for b in y] for a in x])
    return float(max(table.min(axis=1).max(), table.min(axis=0).max()))


def lower_bound_reference(dist: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lower bounds max(tau_mu, tau_nu) on the LP distances of a batch of
    pairs (``dist`` (P, m1, m2), weights ``a`` (P, m1) and ``b`` (P, m2)),
    the reference ``measures._far_pairs`` is held to.  With r_i the distance
    from atom i of mu to the nearest atom of nu and W_k the mass of the k
    atoms of largest r, tau_mu = min over k = 0..m of max(r_(k+1), W_k),
    r_(m+1) = 0; it exceeds t iff the atoms with r_i > t weigh more than t,
    the far test.  The weights are put in r's descending order by a stable
    argsort and summed there, and the minima are numpy reductions."""
    taus = []
    for r, w in ((dist.min(axis=2), a), (dist.min(axis=1), b)):
        order = np.argsort(-r, axis=1, kind="stable")
        r = np.take_along_axis(r, order, axis=1)
        mass = np.take_along_axis(w, order, axis=1).cumsum(axis=1)
        taus.append(np.minimum(np.minimum(r[:, 0], mass[:, -1]),
                               np.maximum(r[:, 1:], mass[:, :-1]).min(axis=1, initial=np.inf)))
    return np.maximum(*taus)


def measure_set_reference(measures, tol: float = SET_DEDUP_TOL) -> list:
    """Greedy dedup by hand: keep each measure unless a member with the same
    atom count kept before it has canonical atoms within ``tol`` of its own,
    entry by entry (compared with numpy, not by the library's predicate)."""
    kept: list = []
    for mu in measures:
        if not any(nu.atom_count == mu.atom_count and np.all(np.abs(mu._key - nu._key) <= tol)
                   for nu in kept):
            kept.append(mu)
    return kept


def dedup_reference(keys, tol: float = SET_DEDUP_TOL) -> list[int]:
    """The greedy dedup rule, quadratic: positions of the kept keys, where a
    key is dropped iff an earlier kept key of its shape lies within ``tol``
    componentwise."""
    kept: list[int] = []
    for i, key in enumerate(keys):
        if not any(keys[j].shape == key.shape and np.all(np.abs(keys[j] - key) <= tol)
                   for j in kept):
            kept.append(i)
    return kept


# ---------------------------------------------------------------------------
# Brute-force LP oracle: the reference path for both LP kernels
# ---------------------------------------------------------------------------

_ORACLE_MAX_POINTS = 16


def _combined_support(mu: mm.WeightedPointMeasure, nu: mm.WeightedPointMeasure):
    points: list[np.ndarray] = []

    def index_of(p: np.ndarray) -> int:
        for idx, q in enumerate(points):
            if np.all(np.abs(p - q) <= ATOM_MERGE_TOL):
                return idx
        points.append(p)
        return len(points) - 1

    idx_mu = [index_of(p) for p in mu.points]
    idx_nu = [index_of(p) for p in nu.points]
    w1 = np.zeros(len(points))
    w2 = np.zeros(len(points))
    for i, k in enumerate(idx_mu):
        w1[k] += mu.weights[i]
    for j, k in enumerate(idx_nu):
        w2[k] += nu.weights[j]
    return np.array(points), w1, w2


def lp_oracle(mu: mm.WeightedPointMeasure, nu: mm.WeightedPointMeasure,
              metric: str = "euclidean") -> float:
    """Direct-definition Levy-Prokhorov distance by subset enumeration.

    Candidate eps values are all pairwise support
    distances together with all values 1 - (s1 + s2) where s1, s2 range over
    subset sums of the two weight lists; the least candidate for which both
    defining inequalities hold over every union of support atoms is
    returned.  Requires at most 16 distinct support points in total.
    """
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    points, w1, w2 = _combined_support(mu, nu)
    k_pts = len(points)
    if k_pts > _ORACLE_MAX_POINTS:
        raise ValueError(
            f"combined support has {k_pts} points; subset enumeration is "
            f"limited to {_ORACLE_MAX_POINTS}")

    point_dist = _point_distances(points, points, metric)
    n_masks = 1 << k_pts
    masks = np.arange(n_masks)
    eta1 = np.zeros(n_masks)
    eta2 = np.zeros(n_masks)
    for k in range(k_pts):
        sel = (masks >> k) & 1 == 1
        eta1[sel] += w1[k]
        eta2[sel] += w2[k]

    sums1 = np.unique(eta1)
    sums2 = np.unique(eta2)
    cand = np.concatenate([point_dist.ravel(),
                           (1.0 - np.add.outer(sums1, sums2)).ravel()])
    cand = np.unique(cand[(cand >= 0.0) & (cand <= 1.0)])
    if cand[-1] != 1.0:
        cand = np.append(cand, 1.0)

    def feasible(eps: float) -> bool:
        neighborhoods = np.zeros(k_pts, dtype=np.int64)
        within = point_dist <= eps
        for k in range(k_pts):
            neighborhoods[k] = int(np.sum(within[k].astype(np.int64) << masks[:k_pts]))
        enlarged = np.zeros(n_masks, dtype=np.int64)
        for k in range(k_pts):
            enlarged[(masks >> k) & 1 == 1] |= neighborhoods[k]
        bound = eps + MASS_SLACK
        return bool(np.all(eta1 <= eta2[enlarged] + bound)
                    and np.all(eta2 <= eta1[enlarged] + bound))

    lo, hi = 0, len(cand) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(float(cand[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(cand[lo])
