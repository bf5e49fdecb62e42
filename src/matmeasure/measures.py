"""Finitely supported probability measures on R^d and metrics between them.

A measure is a finite weighted sum of Dirac atoms.  The central metric is the
Levy-Prokhorov distance, computed exactly through its coupling
characterization (Strassen): an epsilon is feasible iff a coupling places
mass at least 1 - epsilon on atom pairs at distance at most epsilon.  By
max-flow/min-cut the mass left uncoupled is

    1 - F(eps) = max over subsets S of supp mu of  mu(S) - nu(N_eps(S)),

with N_eps(S) the atoms of nu within eps of S.  Each subset alone is
feasible from a threshold g_S on, which has a closed form in the sorted
distances from S to the atoms of nu, and the distance is the largest g_S.

One evaluator, ``_pair_lp``, gives every LP value: ``lp_distance`` and
``lp_feasible`` ask it for one pair, ``hausdorff_distance`` and
``min_pairwise_lp`` for batches.  It answers pairs whose keys agree within
``SET_DEDUP_TOL`` (``_same_keys``) with 0.0, orients the others, and hands
them to one of two exact kernels:

* the subset min-cut kernel (``_lp_subsets``) enumerates all 2^m subsets of
  the smaller support with numpy, for a batch of pairs at once.  It runs
  whenever the smaller support has at most ``SUBSET_KERNEL_MAX_ATOMS``
  atoms, the measured crossover, and the subset table fits in
  ``_SUBSET_TABLE_MAX_CELLS`` cells;
* above that, Dinic max flow (``flows.bipartite_max_flow``) runs at the
  pairwise support distances, which are the breakpoints of the step
  function F, and a binary search over them finds the exact infimum.

Given a cap per pair, it evaluates only the pairs whose far mass does not
show their distance above the cap (``_far_pairs``, the one lower bound) and
leaves NaN for the others: the Hausdorff search caps each candidate at its
row's running minimum, ``min_pairwise_lp`` each block of pairs at the
smallest distance so far, and reconstruction's isolation check at its
threshold.

A collection of measures has one form, the key table (``_stack_keys``) of
its canonical keys stacked by atom count.  A ``MeasureSet`` is one, so a set
made by ``from_arrays`` builds its member objects only when they are read.

The tests cross-check both kernels and the far test against a brute-force
oracle that evaluates the two defining inequalities directly over all unions
of support atoms, and the pruned searches against the full distance table.

Semantics note: the enlargement U^eps is taken closed (distance <= eps) and
the infimum over the finite candidate set is attained, so the returned value
is a minimum.  For finitely supported measures the open and closed
conventions only disagree on a measure-zero set of epsilon values.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .flows import bipartite_max_flow

# Two tolerance tiers: numerical noise in a matrix-vector product must never
# split an atom, while genuinely distinct generated measures must not be
# merged when collected into sets.
ATOM_MERGE_TOL = 1e-12
SET_DEDUP_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
MASS_SLACK = 1e-12

METRICS = ("euclidean", "chebyshev")

# Largest smaller-support atom count served by the subset min-cut kernel.
# Median time of one exact LP evaluation on uniform planar m-vs-m pairs,
# kernel vs Dinic search (the full table is in CHANGES.md):
#   m = 5: 58 vs 194 us, m = 8: 193 vs 507 us, m = 10: 582 vs 811 us,
#   m = 11: 1080 vs 893 us, m = 12: 2881 vs 993 us.
SUBSET_KERNEL_MAX_ATOMS = 10
# Cap on one pair's subset table, 2^m_small * m_large cells, which keeps
# the kernel's three table-sized arrays under 32 MB; larger pairs use Dinic.
_SUBSET_TABLE_MAX_CELLS = 1 << 20
# Subset-table cells per chunk of pairs in _pair_lp, which keeps the kernel's
# work buffer and argsort near 0.2 MB.  It also bounds the candidate orders
# of one Hausdorff wave and the squared gaps of one block of sketch rows.
# The traced peak of one exact-orbit dist of 360 x 60 members (house vs
# K(2,3)) is 0.94 MB with it, and was 1.8 MB with 1 << 15.
_CHUNK_CELLS = 1 << 13
# Margin by which a pair's computed far mass (``_far_pairs``) may exceed the
# computed LP value of its pair: a pruned search skips a pair only when its
# far mass exceeds the value to beat by more.  Both read one distance table,
# so only mass terms round, by at most u = 2^-53 per operation on masses of
# at most 1 + 1e-12.  The far mass is a sum of at most m weights in atom
# order, off by under m u; the kernel's a(S) and C_k are sums of at most 10
# and 2^19 weights (the table cap), so a(S) - C_k is off by under 6e-11.
# Dinic's flow changes by one rounded update per edge of each augmenting
# path, which keeps it within 1e-10 on supports of a few dozen atoms; the
# exhaustion cut ``flows.CAP_EPS`` only stops flow, which raises the value.
# 1e-9 covers the sum with room to spare.
_BOUND_SLACK = 1e-9


def _canonical_keys(points: np.ndarray, weights: np.ndarray) -> tuple:
    """Checked canonical keys of measures ``points`` (P, m, d), ``weights`` (P, m),
    as a key table (``_stack_keys``): the bits ``WeightedPointMeasure`` gives
    each row on its own.  The rows that merge atoms are merged together, one
    atom position at a time; the others stay one slice of the sorted stack."""
    if points.shape[1] == 0:
        raise ValueError("a measure needs at least one atom")
    if points.shape[2] == 0:
        raise ValueError("atoms need at least one coordinate")
    if not np.isfinite(points).all() or not np.isfinite(weights).all():
        raise ValueError("atoms must be finite")
    if (weights <= 0.0).any():
        raise ValueError("atom weights must be strictly positive")
    totals = weights.sum(axis=-1)
    if (off := np.abs(totals - 1.0) > WEIGHT_SUM_TOL).any():
        raise ValueError(f"atom weights sum to {float(totals[off][0])!r}, expected 1")
    order = np.lexsort(points[..., ::-1].transpose(2, 0, 1), axis=-1)
    stack = np.take_along_axis(np.concatenate((points, weights[..., None]), axis=-1),
                               order[..., None], axis=1)
    touching = (np.abs(np.diff(stack[..., :-1], axis=1)) <= ATOM_MERGE_TOL).all(axis=-1)
    merged = touching.any(axis=-1).nonzero()[0]
    p, m = stack.shape[:2]
    counts = np.full(p, m, dtype=np.intp)
    if not len(merged):  # the stack is the table's one stack
        return _group(counts, lambda c, group: stack)
    # Atom r joins the run of the last run start if within ATOM_MERGE_TOL of it,
    # and its weight is added to the start's in sorted order, as in one row.
    keys, rows = stack[merged], np.arange(len(merged))
    start, starts = np.zeros(len(merged), dtype=np.intp), np.ones(keys.shape[:2], dtype=bool)
    for r in range(1, m):
        close = (np.abs(keys[:, r, :-1] - keys[rows, start, :-1]) <= ATOM_MERGE_TOL).all(axis=1)
        keys[rows[close], start[close], -1] += keys[close, r, -1]
        starts[:, r] = ~close
        start[~close] = r
    counts[merged] = starts.sum(axis=1)

    def stack_of(c, group):  # a row that merges has fewer than m atoms
        if c == m:  # the rows left with m atoms are one slice
            return stack[group]
        same = counts[merged] == c
        return keys[same][starts[same]].reshape(len(group), c, -1)
    return _group(counts, stack_of)


def _same_keys(a: np.ndarray, b: np.ndarray, tol: float = SET_DEDUP_TOL) -> np.ndarray:
    """Whether keys ``a``, ``b`` (..., m, d + 1) agree within ``tol`` entry by
    entry: at ``SET_DEDUP_TOL``, the identity rule of sets and of LP zeros."""
    return (np.abs(a - b) <= tol).all(axis=(-2, -1))


def _dedup(table: tuple) -> np.ndarray:
    """Members, ascending, of a key table that the greedy rule keeps: a key is
    dropped iff an earlier kept key of its atom count agrees with it within
    ``SET_DEDUP_TOL`` (``_same_keys``).  Only the first of each run of equal
    keys in a stable sort of a stack's rows is compared: the rule drops the
    copies after it too."""
    counts, _, stacks = table
    keep = np.zeros(len(counts), dtype=bool)
    for m, keys in stacks.items():
        if not len(keys):
            continue
        flat = keys.reshape(len(keys), -1)
        order = np.lexsort(flat.T[::-1])
        ordered, runs = flat[order], np.ones(len(order), dtype=bool)
        runs[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        group = np.sort(order[runs])
        flat = flat[group]
        # Only keys with projections on r within pad of each other are compared.
        # Sound: if _same_keys, fl|a_k - b_k| <= tol (SET_DEDUP_TOL) for all k, the
        # exact projections differ by at most 1.01 tol (r > 0 sums to at most 1 +
        # L eps, L >= 2 the key size); each computed one is within gamma_L sum r_k
        # |a_k| <= 0.51 L eps M of the exact one in any summation order (Higham
        # 2002, eq. 3.5; M the largest |entry|); pad = 4 (tol + L eps M) exceeds 1.01
        # tol + 1.03 L eps M by more than eps (1.01 M + pad), the rounding of p +- pad.
        r = np.sqrt(np.arange(1.0, flat.shape[1] + 1.0))
        proj = flat @ (r / r.sum())
        pad = 4.0 * (SET_DEDUP_TOL + flat.shape[1] * np.finfo(float).eps * np.abs(flat).max())
        ranks = np.argsort(proj)
        lo = np.searchsorted(proj[ranks], proj - pad)
        hi = np.searchsorted(proj[ranks], proj + pad, side="right")
        if not np.isfinite(proj).all():
            lo[:], hi[:] = 0, len(group)
        kept = np.ones(len(group), dtype=bool)
        # A key alone in its window is kept; the others go in insertion order.
        for g in np.flatnonzero(hi - lo > 1):
            near = ranks[lo[g]:hi[g]]
            near = near[(near < g) & kept[near]]
            kept[g] = not _same_keys(keys[group[near]], keys[group[g]]).any()
        keep[np.flatnonzero(counts == m)[group[kept]]] = True
    return np.flatnonzero(keep)


class WeightedPointMeasure:
    """Probability measure with finitely many atoms in R^d.

    Atoms are canonicalized at construction: they are sorted
    lexicographically by coordinates, and each sorted atom within
    ``ATOM_MERGE_TOL`` componentwise of the first atom of its run is merged
    into that atom (weights added in sorted order).  This makes equality
    testing deterministic and order-insensitive.

    Parameters
    ----------
    points : array_like, shape (m, d) or (m,)
        Atom locations; a 1-D input is treated as m points in R^1.
    weights : array_like, shape (m,)
        Strictly positive atom weights summing to 1 within 1e-12.
    """

    __slots__ = ("points", "weights", "_key")

    def __init__(self, points, weights):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(weights, dtype=float).ravel()
        if pts.ndim != 2 or pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights must have matching leading length")
        (keys,) = _canonical_keys(pts[None], w[None])[2].values()
        self._set_key(keys[0])

    def _set_key(self, key: np.ndarray) -> "WeightedPointMeasure":
        """Take a canonical key (``_canonical_keys``) as this measure's atoms."""
        key.setflags(write=False)
        self._key = key
        # Contiguous copies: the mean's bits depend on the operands' layout.
        self.points = np.ascontiguousarray(key[:, :-1])
        self.weights = np.ascontiguousarray(key[:, -1])
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        return self

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def atom_count(self) -> int:
        return self.points.shape[0]

    @property
    def mean(self) -> np.ndarray:
        """Weighted mean of the atom locations."""
        return self.weights @ self.points

    def to_text(self) -> str:
        """Serialize as ``d m`` followed by ``w x_1 ... x_d`` lines."""
        lines = [f"{self.dim} {self.atom_count}"]
        for i in range(self.atom_count):
            coords = " ".join(format(c, ".17g") for c in self.points[i])
            lines.append(f"{format(self.weights[i], '.17g')} {coords}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "WeightedPointMeasure":
        rows = [ln.split() for ln in text.splitlines() if ln.strip()]
        if not rows or len(rows[0]) != 2:
            raise ValueError("measure text must start with a 'd m' line")
        d, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) != m + 1:
            raise ValueError(f"expected {m} atom lines, found {len(rows) - 1}")
        pts = np.empty((m, d))
        w = np.empty(m)
        for i, row in enumerate(rows[1:]):
            if len(row) != d + 1:
                raise ValueError(f"atom line {i + 1} has {len(row)} fields, expected {d + 1}")
            w[i] = float(row[0])
            pts[i] = [float(c) for c in row[1:]]
        return cls(pts, w)

    def __repr__(self) -> str:
        return f"WeightedPointMeasure(dim={self.dim}, atoms={self.atom_count})"


def dirac(point) -> WeightedPointMeasure:
    """Point mass at ``point``."""
    return WeightedPointMeasure(np.asarray(point, dtype=float)[None, :], [1.0])


def measure_equal(mu: WeightedPointMeasure, nu: WeightedPointMeasure,
                  tol: float = SET_DEDUP_TOL) -> bool:
    """Whether the canonical atom lists match pairwise within ``tol``."""
    if mu.dim != nu.dim:
        raise ValueError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    if mu.atom_count != nu.atom_count:
        return False
    return bool(_same_keys(mu._key, nu._key, tol))


class MeasureSet:
    """Deduplicated finite collection of same-dimension measures.

    No two members are the same measure: their canonical keys differ by
    more than ``SET_DEDUP_TOL`` somewhere (``_same_keys``).  Sets are built,
    searched and compared at that fixed tolerance only.

    A set is one key table (``_stack_keys``): its members' canonical keys
    stacked by atom count, in member order.  ``members`` builds the member
    objects from the table on first read, unless ``from_measures`` was
    given them.  ``len``, ``contains``, the pair evaluator and the Hausdorff
    and minimum searches read the table, so they build no member.
    """

    __slots__ = ("dim", "_table", "_members")

    def __init__(self, dim: int, table: tuple, members: tuple | None = None):
        self.dim, self._table, self._members = dim, table, members

    @property
    def members(self) -> tuple[WeightedPointMeasure, ...]:
        if self._members is None:
            counts, slot, stacks = self._table
            self._members = tuple(
                WeightedPointMeasure.__new__(WeightedPointMeasure)._set_key(stacks[m][s])
                for m, s in zip(counts.tolist(), slot.tolist()))
        return self._members

    @classmethod
    def from_measures(cls, measures: Iterable[WeightedPointMeasure]) -> "MeasureSet":
        measures = list(measures)
        if not measures:
            raise ValueError("a measure set needs at least one measure")
        table = _key_stacks(measures)
        kept = _dedup(table)
        return cls(measures[0].dim, _take(table, kept),
                   tuple(measures[i] for i in kept.tolist()))

    @classmethod
    def from_arrays(cls, stacks: Iterable, weights) -> "MeasureSet":
        """``from_measures`` over the rows of point stacks (P, m, d) with atom
        weights (m,), stack by stack, so memory follows the largest stack and
        the kept keys.  The set builds no member object until ``members`` is
        read."""
        weights, dim, kept = np.asarray(weights, dtype=float), None, _stack_keys([])
        for points in stacks:
            points = np.asarray(points, dtype=float)
            if (points.ndim != 3 or weights.shape != points.shape[1:2]
                    or dim not in (None, points.shape[2])):
                raise ValueError("points must form (P, m, d) stacks of one d, weights (m,)")
            dim = points.shape[2]
            # Kept keys stay kept (none lies within tol of an earlier one), so
            # deduplicating them with the new keys is the greedy rule over all rows.
            table = _join(kept, _canonical_keys(
                points, np.broadcast_to(weights, points.shape[:2])))
            kept = _take(table, _dedup(table))
        if not len(kept[0]):
            raise ValueError("a measure set needs at least one measure")
        return cls(dim, kept)

    def contains(self, mu: WeightedPointMeasure) -> bool:
        if mu.dim != self.dim:
            raise ValueError(f"dimension mismatch: {mu.dim} vs {self.dim}")
        keys = self._table[2].get(mu.atom_count)
        return keys is not None and bool(_same_keys(keys, mu._key).any())

    def __len__(self) -> int:
        return len(self._table[0])

    def __iter__(self):
        return iter(self.members)

    def __repr__(self) -> str:
        return f"MeasureSet(dim={self.dim}, size={len(self)})"


def measure_sets_equal(x: MeasureSet, y: MeasureSet) -> bool:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if len(x) != len(y):
        return False
    # Members of one set are pairwise apart, so deduplicating a's table joined
    # with b's keeps all of a and drops just the members of b with a partner in a.
    return all(len(_dedup(_join(a._table, b._table))) == len(a) for a, b in ((x, y), (y, x)))


def _point_distances(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Distances between the rows of ``a`` (..., m1, d) and ``b`` (..., m2, d)."""
    if metric == "euclidean" and 0 < a.shape[-1] < 8:
        # One coordinate at a time: below 8 terms numpy's sum over the last
        # axis adds the squares in this order too, so the bits are the same.
        total = None
        for c in range(a.shape[-1]):
            gap = a[..., :, None, c] - b[..., None, :, c]
            gap *= gap
            total = gap if total is None else np.add(total, gap, out=total)
        return np.sqrt(total, out=total)
    diff = a[..., :, None, :] - b[..., None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(axis=-1))
    if metric == "chebyshev":
        return np.abs(diff).max(axis=-1)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _row_min(x: np.ndarray) -> np.ndarray:
    """``x.min(axis=-1, initial=inf)`` by one elementwise minimum per column:
    the same bits, as a minimum does not round, and several times faster
    than numpy's reduction along a short last axis.  The loop costs one call
    per column, so it runs only where the rows outnumber the columns 16 to
    1, about where the two cost the same (numpy 2.4, x86); wider arrays, such
    as a one-atom support against hundreds of atoms, take the reduction."""
    if x.size < 16 * x.shape[-1] ** 2:
        return x.min(axis=-1, initial=np.inf)
    out = np.full(x.shape[:-1], np.inf)
    for k in range(x.shape[-1]):
        np.minimum(out, x[..., k], out=out)
    return out


def _uses_subset_kernel(m_small: int, m_large: int) -> bool:
    """Whether a pair with these support sizes goes to the subset kernel."""
    return (m_small <= SUBSET_KERNEL_MAX_ATOMS
            and m_large << m_small <= _SUBSET_TABLE_MAX_CELLS)


def _subset_cells(p: int, m1: int, m2: int) -> int:
    """Size of the work buffer ``_lp_subsets`` needs for P pairs of m1 x m2 atoms."""
    return (p << m1) * (2 * m2 + 1)


def _lp_subsets(dist: np.ndarray, a: np.ndarray, b: np.ndarray,
                work: np.ndarray | None = None) -> np.ndarray:
    """Exact LP distances of a batch of pairs by the subset min-cut kernel.

    ``dist`` (P, m1, m2) holds each pair's atom distances, ``a`` (P, m1) and
    ``b`` (P, m2) its weights.  For a subset S of the first side, sort the
    distances d_(1) <= ... <= d_(m2) from S to the second-side atoms and let
    C_k be the second-side mass of the first k; S stops blocking
    feasibility at g_S = min(a(S), min_k max(d_(k), a(S) - C_k)), and the
    distance is max_S g_S, capped at 1.  Every step is elementwise or runs
    along one row, so a pair gets the same bits in any batch.  The tables
    live in ``work``, a flat float buffer of at least ``_subset_cells``
    cells, which a caller reuses across batches.  Only ``_pair_lp`` calls it.

    When the second-side weights are equal within every pair of the batch,
    as in every orbit of a matrix with uniform index weights, C_k is the
    same sum in any atom order: the distances are sorted alone and C_k are
    the weights' own prefix sums, the bits of the general path, which
    gathers the weights in a stable sort order of the distances and sums
    them there.  The minimum over k does not round, so it is taken by
    elementwise minima (``_row_min``).
    """
    p, m1, m2 = dist.shape
    cells = (p << m1) * m2
    if work is None:
        work = np.empty(_subset_cells(p, m1, m2))
    # Subset S of the first side has bit i set for atom i: mass[:, S] = a(S)
    # and near[:, S, j] = min_{i in S} dist[:, i, j], built by doubling (the
    # subsets with atom i are the ones before them plus atom i), S = {} dropped.
    near = work[:cells].reshape(p, 1 << m1, m2)
    mass = work[cells:cells + (p << m1)].reshape(p, 1 << m1)
    near[:, 0] = np.inf
    mass[:, 0] = 0.0
    for i in range(m1):
        k = 1 << i
        np.minimum(near[:, :k], dist[:, i, None, :], out=near[:, k:2 * k])
        np.add(mass[:, :k], a[:, i, None], out=mass[:, k:2 * k])
    near, mass = near[:, 1:], mass[:, 1:]
    covered = work[cells + (p << m1):][:cells - p * m2].reshape(near.shape)
    if (b == b[:, :1]).all():
        near.sort(axis=-1)
        np.subtract(mass[..., None], b.cumsum(axis=1)[:, None, :], out=covered)
    else:
        order = near.argsort(axis=-1, kind="stable")
        order += (np.arange(p) * m2)[:, None, None]
        np.take(b, order, out=covered, mode="clip")
        covered.cumsum(axis=-1, out=covered)
        near.sort(axis=-1)
        np.subtract(mass[..., None], covered, out=covered)
    np.maximum(near, covered, out=covered)
    g = np.minimum(_row_min(covered), mass)
    return np.minimum(g.max(axis=-1), 1.0)


def _far_pairs(dist: np.ndarray, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Which pairs of a batch (``_lp_subsets``' arguments) are at LP distance
    above ``t`` (P,) by their far mass, the library's one lower bound.

    Let r_i be the distance from atom i of mu to the nearest atom of nu, and
    A_t = {i : r_i > t}.  If t is feasible, A_t has no atom of nu within t,
    so the LP inequality mu(A_t) <= nu(A_t^t) + t reads mu(A_t) <= t.  So a
    pair whose mu(A_t) or (by symmetry) nu's far mass exceeds t is at
    distance above t.  The masses are summed in atom order, which
    ``_BOUND_SLACK`` covers."""
    col = t[:, None]
    return ((np.where(_row_min(dist) > col, a, 0.0).sum(axis=1) > t)
            | (np.where(_row_min(dist.swapaxes(1, 2)) > col, b, 0.0).sum(axis=1) > t))


def _lp_breakpoints(dist: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Exact LP distance of one pair by Dinic max flow at the breakpoints.

    The max coupling mass F(eps) is constant between consecutive pairwise
    support distances.  On the interval starting at breakpoint d_t the least
    feasible eps is max(d_t, 1 - F(d_t)); the first term is nondecreasing
    and the second nonincreasing in t, so the minimum over intervals sits at
    their crossing and a binary search over breakpoints finds it exactly.
    """
    bp = np.unique(np.concatenate(([0.0], dist[dist <= 1.0].ravel())))

    flows: dict[int, float] = {}

    def flow_at(t: int) -> float:
        if t not in flows:
            flows[t] = bipartite_max_flow(a, b, dist <= bp[t])
        return flows[t]

    def candidate(t: int) -> float:
        return max(float(bp[t]), 1.0 - flow_at(t))

    hi = len(bp) - 1
    if bp[hi] < 1.0 - flow_at(hi):
        # No crossing below the largest kept breakpoint; the candidate
        # sequence is nonincreasing throughout.
        return float(min(candidate(hi), 1.0))
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if bp[mid] >= 1.0 - flow_at(mid):
            hi = mid
        else:
            lo = mid + 1
    result = candidate(lo)
    if lo > 0:
        result = min(result, candidate(lo - 1))
    return float(min(result, 1.0))


def lp_feasible(mu: WeightedPointMeasure, nu: WeightedPointMeasure, eps: float,
                metric: str = "euclidean") -> bool:
    """Whether ``eps`` is feasible for the Levy-Prokhorov inequalities.

    The distance is the least feasible eps, so eps is feasible iff
    ``lp_distance(mu, nu, metric) <= eps + MASS_SLACK``; NaN raises.
    """
    eps = float(eps)
    if not eps >= 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    return lp_distance(mu, nu, metric) <= eps + MASS_SLACK


def lp_distance(mu: WeightedPointMeasure, nu: WeightedPointMeasure,
                metric: str = "euclidean") -> float:
    """Exact Levy-Prokhorov distance between two discrete measures: the one
    pair of ``_pair_lp``, which decides the equality rule, the orientation
    and the kernel for every LP value."""
    return float(_pair_lp((mu, nu), metric)(0, [1])[0])


def _stack_keys(keys: Sequence[np.ndarray]) -> tuple:
    """The key table of canonical keys: ``counts`` (N,) holds each key's atom
    count, ``stacks[m]`` (k_m, m, d + 1) the keys with m atoms in the given
    order, read-only, and ``slot`` (N,) each key's row in its stack.  A key
    holds its points, and its weights in the last column."""
    counts = np.array([len(key) for key in keys], dtype=np.intp)
    return _group(counts, lambda m, group: np.stack([keys[k] for k in group]))


def _group(counts: np.ndarray, rows) -> tuple:
    """The key table (``_stack_keys``) of keys with atom counts ``counts``:
    ``rows(m, group)`` stacks the keys with m atoms, members ``group`` in order."""
    slot = np.empty(len(counts), dtype=np.intp)
    stacks = {}
    for m in set(counts.tolist()):
        group = np.flatnonzero(counts == m)
        slot[group] = np.arange(len(group))
        stacks[m] = rows(m, group)
        stacks[m].setflags(write=False)
    return counts, slot, stacks


def _take(table: tuple, rows: np.ndarray) -> tuple:
    """The key table of the members ``rows`` (ascending) of ``table``.  A
    stack that loses rows is copied, so that it does not hold the whole
    stack; a stack that keeps every row is the same array."""
    counts, slot, stacks = table
    slot = slot[rows]
    return _group(counts[rows], lambda m, group: stacks[m] if len(group) == len(stacks[m])
                  else stacks[m][slot[group]])


def _join(x: tuple, y: tuple) -> tuple:
    """The members of key table ``x`` and then of ``y``, not deduplicated, as
    one table whose stacks join the two tables' stacks of each atom count."""
    (cx, _, kx), (cy, _, ky) = x, y

    def stack_of(m, group):  # a stack of one table only is not copied
        if m in kx and m in ky:
            return np.concatenate((kx[m], ky[m]))
        return kx[m] if m in kx else ky[m]
    return _group(np.concatenate((cx, cy)), stack_of)


def _key_stacks(members) -> tuple:
    """The key table of a ``MeasureSet``, which the set holds, or of a
    sequence of measures."""
    if isinstance(members, MeasureSet):
        return members._table
    if len(dims := {mu.dim for mu in members}) > 1:
        raise ValueError(f"measures must share a dimension; found {sorted(dims)}")
    return _stack_keys([mu._key for mu in members])


def _canonical_rank(counts: np.ndarray, slot: np.ndarray, stacks: dict) -> np.ndarray:
    """Each member's position in canonical order: fewer atoms first, then key
    bytes (``tobytes``), ties in member order."""
    rank = np.empty(len(counts), dtype=np.intp)
    start = 0
    for m in sorted(stacks):
        data = [key.tobytes() for key in stacks[m]]
        place = np.empty(len(data), dtype=np.intp)
        place[sorted(range(len(data)), key=data.__getitem__)] = np.arange(start, start + len(data))
        group = counts == m
        rank[group] = place[slot[group]]
        start += len(data)
    return rank


def _pair_lp(members, metric: str):
    """The Levy-Prokhorov evaluator: LP distances between pairs of ``members``,
    a ``MeasureSet`` or a sequence of measures.

    Returns ``lp(i, j, cap=None)``: for index arrays ``i``, ``j`` into
    ``members`` (or one scalar; i != j), those pairs' LP distances.  Pairs
    with one atom count whose canonical keys agree within ``SET_DEDUP_TOL``
    (``_same_keys``) are at distance exactly 0.0, which keeps distances
    between a matrix and its relabelings identically zero.
    Every other pair is oriented by canonical rank (``_canonical_rank``:
    fewer atoms first, then key bytes), so the value is exactly symmetric
    and the smaller support comes first.  Pairs with the same two atom
    counts share subset-kernel calls in chunks of about ``_CHUNK_CELLS``
    table cells, which reuse one work buffer per call; pairs too big for the
    kernel go one at a time to the Dinic breakpoint search.

    With ``cap`` (a scalar, or one value per pair), a pair whose far mass
    exceeds its cap plus ``_BOUND_SLACK`` (``_far_pairs``, after the
    equality rule) is not evaluated and reads NaN: its computed distance
    would exceed the cap.  Capped pairs are read in chunks of at most
    ``_CHUNK_CELLS`` cells of their coordinate differences, and a chunk
    hands its surviving pairs, with their distances, to the kernels.

    The evaluator reads only the members' key table (``_key_stacks``),
    which a set is: it re-stacks no key of a set, and builds no member.
    """
    # Checked up front: equal pairs are at distance 0 under any metric, so
    # without it a misspelt metric would pass unnoticed on equal inputs.
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    counts, slot, keys = _key_stacks(members)
    rank = _canonical_rank(counts, slot, keys)

    def lp(i, j, cap=None) -> np.ndarray:
        swap = rank[j] < rank[i]
        first, second = np.where(swap, j, i), np.where(swap, i, j)
        out = np.zeros(len(first))
        if cap is not None:
            cap = np.add(cap, _BOUND_SLACK, out=np.empty(len(first)))
        m1, m2 = counts[first], counts[second]
        groups = []
        for a, b in set(zip(m1.tolist(), m2.tolist())):
            kernel = _uses_subset_kernel(a, b)
            step = max(1, _CHUNK_CELLS // (b << a)) if kernel else 1
            # Capped chunks are sized by _point_distances' coordinate differences.
            cells = a * b * (keys[a].shape[2] - 1)
            size = max(1, _CHUNK_CELLS // cells) if cap is not None else step
            groups.append((a, b, ((m1 == a) & (m2 == b)).nonzero()[0], kernel, step, size))
        work = np.empty(max(
            (_subset_cells(min(step, len(pairs)), a, b)
             for a, b, pairs, kernel, step, _ in groups if kernel), default=0))
        for a, b, pairs, kernel, step, size in groups:
            for start in range(0, len(pairs), size):
                chunk = pairs[start:start + size]
                key1, key2 = keys[a][slot[first[chunk]]], keys[b][slot[second[chunk]]]
                if a == b:
                    # Equal pairs keep their 0.0, before any cap is tested.
                    unequal = ~_same_keys(key1, key2)
                    chunk, key1, key2 = chunk[unequal], key1[unequal], key2[unequal]
                if not len(chunk):
                    continue
                dist = _point_distances(key1[..., :-1], key2[..., :-1], metric)
                w1, w2 = key1[..., -1], key2[..., -1]
                if cap is not None:
                    near = np.flatnonzero(~_far_pairs(dist, w1, w2, cap[chunk]))
                    if len(near) < len(chunk):
                        out[chunk] = np.nan
                        chunk, dist, w1, w2 = chunk[near], dist[near], w1[near], w2[near]
                for s in range(0, len(chunk), step):
                    if kernel:
                        out[chunk[s:s + step]] = _lp_subsets(
                            dist[s:s + step], w1[s:s + step], w2[s:s + step], work)
                    else:
                        out[chunk[s]] = _lp_breakpoints(dist[s], w1[s], w2[s])
        return out

    return lp


def min_pairwise_lp(measures, metric: str = "euclidean") -> float:
    """Smallest LP distance between distinct members of a collection: bit for
    bit the minimum of ``lp_distance`` over all pairs.

    The pairs are evaluated in ``np.triu_indices`` order, in blocks of 1, 2,
    4, ... pairs, one call per block, each pair capped at the smallest value
    so far (none in the first block).  A pair the cap skips is at a computed
    distance above it, so it cannot lower the minimum.  A ``MeasureSet`` is
    read from its key stacks, without building its members.
    """
    members = measures if isinstance(measures, MeasureSet) else list(measures)
    rows, cols = np.triu_indices(len(members), 1)
    lp = _pair_lp(members, metric)
    best, start, size = np.inf, 0, 1
    while start < len(rows):
        block = slice(start, start + size)
        best = np.fmin.reduce(lp(rows[block], cols[block], cap=best), initial=best)
        start, size = start + size, 2 * size
    return float(best)


def _prejoin(table: np.ndarray, x: MeasureSet, y: MeasureSet) -> None:
    """Put 0.0, what ``lp_distance`` returns there, in ``table`` at every pair
    of members with bitwise-equal canonical keys, matched within the key
    stacks of one atom count (the sets share their dimension)."""
    (cx, _, kx), (cy, _, ky) = _key_stacks(x), _key_stacks(y)
    for m in kx.keys() & ky.keys():
        in_y = {key.tobytes(): j for key, j in zip(ky[m], np.flatnonzero(cy == m))}
        for key, i in zip(kx[m], np.flatnonzero(cx == m)):
            j = in_y.get(key.tobytes())
            if j is not None:
                table[i, j] = 0.0


def _quantile_sketch(counts: np.ndarray, stacks: dict) -> np.ndarray:
    """Rows (N, 8 d): each member's weighted quantiles at levels (l + 1/2)/8,
    l = 0..7, on every coordinate, from ``_key_stacks``.  The quantile at
    level q is the first atom, in the coordinate's order, whose cumulative
    weight reaches q.  The members of one exact orbit share their means far
    more often than their quantiles, so the sketch tells them apart."""
    levels = (np.arange(8) + 0.5) / 8
    sketch = np.empty((len(counts), 8 * (next(iter(stacks.values())).shape[2] - 1)))
    for m, keys in stacks.items():
        order = np.argsort(keys[..., :-1], axis=1, kind="stable")
        values = np.take_along_axis(keys[..., :-1], order, axis=1)
        mass = np.take_along_axis(keys[..., -1:], order, axis=1).cumsum(axis=1)
        # Weights sum to 1 within WEIGHT_SUM_TOL, so every level is reached.
        first = (mass[:, :, None] < levels[:, None]).sum(axis=1)
        sketch[counts == m] = np.take_along_axis(values, first, axis=1).reshape(len(keys), -1)
    return sketch


def _gap_blocks(sketch: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Yield ``(s, gaps)``: the squared Euclidean distances (R, C) from the
    sketches of ``rows[s:s + R]`` to those of ``cols``, as |a|^2 + |b|^2 -
    2 a.b with one matrix product per block of R = ``_CHUNK_CELLS`` // C
    rows.  They round otherwise than the sum of squared differences, and may
    read slightly below 0, but they only order candidates, so the search
    stays exact; the square root, monotone, is left out."""
    sketch_b = sketch[cols]
    norm_b = np.einsum("ij,ij->i", sketch_b, sketch_b)
    scaled = -2.0 * sketch_b.T
    step = max(1, _CHUNK_CELLS // len(cols))
    for s in range(0, len(rows), step):
        sketch_a = sketch[rows[s:s + step]]
        gaps = sketch_a @ scaled
        gaps += norm_b
        gaps += np.einsum("ij,ij->i", sketch_a, sketch_a)[:, None]
        yield s, gaps


def _nearest(sketch: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Position in ``cols`` of each row's nearest sketch, the first candidate
    of its sketch-proximity order."""
    out = np.empty(len(rows), dtype=np.intp)
    for s, gaps in _gap_blocks(sketch, rows, cols):
        out[s:s + len(gaps)] = gaps.argmin(axis=1)
    return out


def _directed(lp, table: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              sketch: np.ndarray, cmax: float) -> float:
    """Raise ``cmax`` to the largest row minimum of ``table`` that exceeds it.

    Rows go in descending order of their running minimum, in waves of 1, 2,
    4, ... rows, capped so that a wave's orders fill at most ``_CHUNK_CELLS``
    cells; the live rows of a wave walk their sketch-proximity orders
    together, in blocks of 2, 4, 8, ... candidates (the first candidate is
    already in the table), with one ``lp`` call per round.  Each pair is
    capped by its row's minimum before the round, so a pair that cannot
    lower it is left NaN, unevaluated.  A row dies once its minimum is at
    most ``cmax``, and only a row that has seen every candidate raises
    ``cmax``, so the result is exact.  NaN cells are evaluated again when
    the other direction reaches them, under that direction's caps.

    The bookkeeping is in arrays: the live rows, their orders (L, C), and
    each round's unevaluated cells, taken row by row in candidate order, so
    the ``lp`` call gets its pairs in the order of a per-row loop.
    """
    best = np.nanmin(table, axis=1)
    queue = np.argsort(-best, kind="stable")
    cap = max(1, _CHUNK_CELLS // len(cols))
    size = 1
    while len(queue) and best[queue[0]] > cmax:
        take = min(size, cap)
        live, queue, size = queue[:take], queue[take:], 2 * size
        orders = np.empty((len(live), len(cols)), dtype=np.intp)
        for s, gaps in _gap_blocks(sketch, rows[live], cols):
            orders[s:s + len(gaps)] = np.argsort(gaps, axis=1, kind="stable")
        lo, hi = 0, 3
        while (alive := best[live] > cmax).any():
            live, orders = live[alive], orders[alive]
            block = orders[:, lo:hi]
            r, c = np.isnan(table[live[:, None], block]).nonzero()
            if len(r):
                i, j = live[r], block[r, c]
                table[i, j] = lp(rows[i], cols[j], cap=best[i])
            best[live] = np.fmin(best[live], np.fmin.reduce(table[live[:, None], block], axis=1))
            if hi >= len(cols):
                cmax = max(cmax, best[live].max())
                break
            lo, hi = hi, 2 * hi + 1
    return cmax


def hausdorff_distance(x: MeasureSet, y: MeasureSet, metric: str = "euclidean") -> float:
    """Hausdorff distance between finite measure sets under ``lp_distance``.

    Exact max of the two directed sup-inf values, found by an early-break
    search over one shared table of evaluated pairs (Taha & Hanbury 2015),
    filled in three batched steps:

    * an equality pre-join puts 0.0, what ``lp_distance`` returns there, at
      every pair whose canonical keys are bitwise equal, so a member that
      reappears in the other set costs no evaluation;
    * every row without such a zero, in both directions, gets its candidate
      of nearest quantile sketch (``_quantile_sketch``), all in one
      evaluation call;
    * each direction then visits its rows in descending order of their
      running minimum, in waves of 1, 2, 4, ... rows that walk their
      sketch-proximity orders together in blocks of 2, 4, 8, ... candidates,
      one evaluation call per block, which skips the candidates whose far
      mass (``_far_pairs``) shows they cannot lower their row's running
      minimum.  A row stops once its minimum cannot raise the largest
      minimum found so far, in either direction.

    The visiting order changes only the work: the result is the largest row
    or column minimum of the full table, bit for bit.  The search reads the
    sets' key stacks, joined per atom count, and builds no member object.
    """
    if len(x) == 0 or len(y) == 0:
        raise ValueError("Hausdorff distance needs nonempty measure sets")
    if x.dim != y.dim:
        raise ValueError(f"measures must share a dimension; found {sorted({x.dim, y.dim})}")
    members = MeasureSet(x.dim, _join(x._table, y._table))
    counts, _, stacks = _key_stacks(members)
    lp = _pair_lp(members, metric)
    sketch = _quantile_sketch(counts, stacks)
    table = np.full((len(x), len(y)), np.nan)
    _prejoin(table, x, y)
    in_x, in_y = np.arange(len(x)), np.arange(len(x), len(members))
    zero = table == 0.0
    rows, cols = np.flatnonzero(~zero.any(axis=1)), np.flatnonzero(~zero.any(axis=0))
    first = np.sort(np.concatenate([rows * len(y) + _nearest(sketch, in_x[rows], in_y),
                                    _nearest(sketch, in_y[cols], in_x) * len(y) + cols]))
    # Each pair once (np.unique would import numpy.ma, about 1 MB).
    first = first[np.diff(first, prepend=-1) != 0]
    i, j = np.divmod(first[np.isnan(table.ravel()[first])], len(y))
    if len(i):
        table[i, j] = lp(in_x[i], in_y[j])
    # The backward pass reads the transpose: it evaluates no pair again, but
    # tests the pairs the forward caps skipped (NaN) against its own caps.
    cmax = _directed(lp, table, in_x, in_y, sketch, 0.0)
    return _directed(lp, table.T, in_y, in_x, sketch, cmax)


def pushforward_distance_bound(x_values: Sequence, y_values: Sequence,
                               weights: Sequence) -> float:
    """Upper bound on the LP distance between laws of coupled vectors.

    For two R^k-valued discrete random vectors defined on the same weighted
    index space, the Levy-Prokhorov distance of their laws is at most
    tau^(1/2) * k^(3/4), where tau is the largest coordinatewise weighted
    mean absolute difference.
    """
    xs = np.asarray(x_values, dtype=float)
    ys = np.asarray(y_values, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    if ys.ndim == 1:
        ys = ys[:, None]
    w = np.asarray(weights, dtype=float).ravel()
    if xs.shape != ys.shape or xs.shape[0] != w.shape[0]:
        raise ValueError("value arrays and weights must have matching lengths")
    tau = float(np.max(np.abs(xs - ys).T @ w))
    k = xs.shape[1]
    return float(np.sqrt(tau) * k ** 0.75)
