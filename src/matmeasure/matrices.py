"""Square matrices with index weights, their generated measures, and graphs.

A ``MeasuredMatrix`` pairs an n x n real matrix A with a strictly positive
probability vector p over its indices.  Acting on a vector x it generates
the planar measure with atoms (x_i, (Ax)_i) weighted by p_i; collecting the
measures of every weight-preserving permutation of x gives the finite orbit
set that the profile metrics and the reconstruction procedure consume.

Sets are built without a loop over their rows: permutations come from one
table per order, and all A z of a set are one stacked product (``_law_points``).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .measures import MeasureSet, WeightedPointMeasure

PROB_TOL = 1e-12

# n! enumeration is kept exact up to this order.
FACTORIAL_LIMIT = 8
# Sign-vector enumeration for the operator norm (about 2M evaluations at 22).
SIGN_ENUM_LIMIT = 22


class MeasuredMatrix:
    """An n x n matrix together with a probability vector over its indices.

    Parameters
    ----------
    entries : array_like, shape (n, n), finite
    weights : array_like, shape (n,), optional
        Finite, strictly positive, summing to 1 within 1e-12.  Defaults to uniform.
    """

    __slots__ = ("n", "entries", "p")

    def __init__(self, entries, weights=None):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite and form a square matrix")
        n = a.shape[0]
        if n == 0:
            raise ValueError("matrix order must be positive")
        if weights is None:
            p = np.full(n, 1.0 / n)
        else:
            p = np.array(weights, dtype=float).ravel()
            if p.shape[0] != n:
                raise ValueError("weight vector length must equal the matrix order")
            if not np.all((p > 0.0) & (p < np.inf)):
                raise ValueError("index weights must be finite and strictly positive")
            if abs(float(p.sum()) - 1.0) > PROB_TOL:
                raise ValueError("index weights must sum to 1")
        a.setflags(write=False)
        p.setflags(write=False)
        self.n = n
        self.entries = a
        self.p = p

    def __repr__(self) -> str:
        return f"MeasuredMatrix(n={self.n})"


def _vector(matrix: MeasuredMatrix, x) -> np.ndarray:
    """``x`` as a flat float vector of the matrix's order."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != matrix.n:
        raise ValueError(f"vector length {x.shape[0]} != matrix order {matrix.n}")
    return x


def generate_measure(matrix: MeasuredMatrix, x) -> WeightedPointMeasure:
    """The planar measure with atoms (x_i, (Ax)_i) weighted by p_i."""
    x = _vector(matrix, x)
    return WeightedPointMeasure(np.column_stack((x, matrix.entries @ x)), matrix.p)


def marginal_first(matrix: MeasuredMatrix, x) -> WeightedPointMeasure:
    """Projection of the generated measure onto its first coordinate."""
    x = _vector(matrix, x)
    return WeightedPointMeasure(x[:, None], matrix.p)


def _law_points(matrix: MeasuredMatrix, vectors) -> np.ndarray:
    """Atoms (P, n, 2k) of the laws of (Z_1, A Z_1, ..., Z_k, A Z_k) for vector
    tuples ``vectors`` (P, k, n).  One product over stacked (n, 1) columns runs
    the BLAS kernel of ``A @ z`` on each: the bits of ``generate_measure``, which
    a product over the whole block (``Z @ A.T``) need not give."""
    vectors = np.ascontiguousarray(vectors, dtype=float)
    p, k, n = vectors.shape
    images = np.matmul(matrix.entries, vectors[..., None])[..., 0]
    return np.stack((vectors, images), axis=2).reshape(p, 2 * k, n).swapaxes(1, 2)


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """All n! permutations of range(n), as the read-only rows of an (n!, n)
    array in lexicographic order, built once per order and process."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms.setflags(write=False)
    return perms


def permutations_preserving(p: np.ndarray) -> np.ndarray:
    """All index permutations sigma with p[sigma] == p componentwise, as the
    rows of a (k, n) array in lexicographic order, filtered from the order's
    table (``_permutations``); sigma acts as (Px)_i = x_{sigma(i)}."""
    perms = _permutations(len(p))
    return perms[(np.abs(p[perms] - p) <= PROB_TOL).all(axis=1)]


def orbit_measures(matrix: MeasuredMatrix, x) -> MeasureSet:
    """Measures generated by every weight-preserving permutation of ``x``.

    Exact n! enumeration; orders above ``FACTORIAL_LIMIT`` are rejected (use
    sampled profiles there instead).
    """
    x = _vector(matrix, x)
    if matrix.n > FACTORIAL_LIMIT:
        raise ValueError(
            f"order {matrix.n} exceeds the factorial enumeration limit "
            f"{FACTORIAL_LIMIT}; use sampled profiles for large matrices")
    vectors = x[permutations_preserving(matrix.p)][:, None]
    return MeasureSet.from_arrays([_law_points(matrix, vectors)], matrix.p)


class NormResult(NamedTuple):
    value: float
    exact: bool


def norm_inf_to_1(matrix: MeasuredMatrix) -> NormResult:
    """The (inf -> 1) operator norm, sup over the unit inf-ball of the
    p-weighted l1 norm of Av.

    The supremum is attained at a sign vector (the objective is convex on the
    ball), so it is evaluated exactly by enumerating 2^(n-1) sign classes for
    n <= 22.  Beyond that the row-sum upper bound is returned, flagged as not
    exact.
    """
    a = matrix.entries
    p = matrix.p
    n = matrix.n
    if n > SIGN_ENUM_LIMIT:
        return NormResult(float(p @ np.abs(a).sum(axis=1)), False)
    total = 1 << (n - 1)
    best = 0.0
    chunk = 1 << 14
    shifts = np.arange(n - 1, dtype=np.uint64)
    for start in range(0, total, chunk):
        ints = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = np.ones((len(ints), n))
        if n > 1:
            bits = (ints[:, None] >> shifts[None, :]) & 1
            signs[:, 1:] = 2.0 * bits - 1.0
        values = np.abs(signs @ a.T) @ p
        best = max(best, float(values.max()))
    return NormResult(best, True)


def perturb(x, i: int, d: float, norm_bound: float) -> np.ndarray:
    """Shift coordinate ``i`` of ``x`` by d^2 / (64 * norm_bound).

    ``i`` is 0-based.  ``norm_bound`` must dominate the (inf -> 1) norm of
    the matrix in play and be at least 1.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not 0 <= i < x.shape[0]:
        raise ValueError(f"index {i} out of range for length {x.shape[0]}")
    if not d > 0.0:
        raise ValueError("d must be positive")
    if not norm_bound >= 1.0:
        raise ValueError("norm_bound must be at least 1")
    shifted = x.copy()
    shifted[i] += d * d / (64.0 * norm_bound)
    return shifted


def _as_permutation(sigma: Sequence[int], shape: tuple) -> np.ndarray:
    """``sigma`` as an index array relabeling a matrix of ``shape``, or a
    ValueError unless the matrix is square, (n, n), and ``sigma`` is a
    permutation of range(n)."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"a relabeling needs a square matrix, got shape {tuple(shape)}")
    n = shape[0]
    idx = np.asarray(sigma, dtype=int)
    if idx.shape != (n,) or not np.array_equal(np.sort(idx), np.arange(n)):
        raise ValueError(f"sigma {idx.tolist()} is not a permutation of range({n})")
    return idx


def relabel_matrix(a: np.ndarray, sigma: Sequence[int]) -> np.ndarray:
    """P A P^T for the permutation (Px)_i = x_{sigma(i)}; equals A[sigma][:, sigma]."""
    a = np.asarray(a, dtype=float)
    idx = _as_permutation(sigma, a.shape)
    return a[np.ix_(idx, idx)]


class Graph:
    """Simple undirected graph on vertices 0..n-1 with no self-loops."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            normalized.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(normalized)

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=int)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a

    def relabel(self, sigma: Sequence[int]) -> "Graph":
        """Graph with vertex u renamed to position of u in sigma's inverse."""
        inv = np.argsort(_as_permutation(sigma, (self.n, self.n)))
        return Graph(self.n, [(inv[u], inv[v]) for u, v in self.edges])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star with n vertices: center 0 joined to 1..n-1."""
    return Graph(n, [(0, i) for i in range(1, n)])


def edgeless_graph(n: int) -> Graph:
    return Graph(n, [])


WeightChoice = Union[str, Sequence[float], np.ndarray]


def _resolve_weights(graph: Graph, weights: WeightChoice) -> np.ndarray | None:
    if isinstance(weights, str):
        if weights == "uniform":
            return None
        if weights == "stationary":
            d = graph.degrees().astype(float)
            if np.any(d == 0):
                raise ValueError("stationary weights need minimum degree >= 1")
            return d / d.sum()
        raise ValueError(f"unknown weight choice {weights!r}")
    return np.asarray(weights, dtype=float)


def adjacency(graph: Graph, weights: WeightChoice = "uniform") -> MeasuredMatrix:
    return MeasuredMatrix(graph.adjacency_matrix(), _resolve_weights(graph, weights))


def kirchhoff(graph: Graph, weights: WeightChoice = "uniform") -> MeasuredMatrix:
    """Degree diagonal minus adjacency."""
    a = graph.adjacency_matrix()
    k = np.diag(graph.degrees().astype(float)) - a
    return MeasuredMatrix(k, _resolve_weights(graph, weights))


def normalized_laplacian(graph: Graph, weights: WeightChoice = "uniform") -> MeasuredMatrix:
    """Identity minus the random-walk transition matrix D^-1 A."""
    d = graph.degrees().astype(float)
    if np.any(d == 0):
        raise ValueError("normalized Laplacian needs minimum degree >= 1")
    a = graph.adjacency_matrix()
    lap = np.eye(graph.n) - a / d[:, None]
    return MeasuredMatrix(lap, _resolve_weights(graph, weights))
