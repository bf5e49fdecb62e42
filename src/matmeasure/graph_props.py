"""Graph and matrix properties read off generated measures.

Eigenvalues show up as measures supported on a line through the origin, the
all-ones test vector exposes the row sums (vertex degrees for adjacency
matrices), and from those two ingredients the star and cycle homomorphism
counts follow in closed form.  An exhaustive homomorphism counter serves as
the independent cross-check.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .matrices import Graph, MeasuredMatrix, generate_measure
from .measures import WeightedPointMeasure

_HOM_PATTERN_LIMIT = 6
_HOM_TARGET_LIMIT = 8


def detect_line_support(mu: WeightedPointMeasure, tol: float = 1e-8) -> Optional[float]:
    """Slope of the line y = lambda * x carrying the measure, if any.

    The slope is fitted by weighted least squares through the origin; the
    measure qualifies when every atom (x, y) satisfies
    |y - lambda x| <= tol * max(1, |x|).  A measure generated by a matrix
    passes exactly when the test vector was an eigenvector, and the slope is
    then the eigenvalue.
    """
    if mu.dim != 2:
        raise ValueError("line detection expects a planar measure")
    xs = mu.points[:, 0]
    ys = mu.points[:, 1]
    sxx = float(mu.weights @ (xs * xs))
    if sxx <= 1e-300:
        slope = 0.0
    else:
        slope = float(mu.weights @ (xs * ys)) / sxx
    residuals = np.abs(ys - slope * xs)
    if np.all(residuals <= tol * np.maximum(1.0, np.abs(xs))):
        return slope
    return None


def row_sums_from_measure(matrix: MeasuredMatrix) -> list[tuple[float, float]]:
    """(value, weight) pairs of the row sums, read from the all-ones measure.

    The measure generated at the all-ones vector sits on the vertical line
    x = 1 and its second coordinates are the row sums; for a graph adjacency
    matrix with uniform weights this is the degree distribution.
    """
    mu = generate_measure(matrix, np.ones(matrix.n))
    return [(float(p[1]), float(w)) for p, w in zip(mu.points, mu.weights)]


def hom_star(degrees: Sequence[float], k: int) -> CycleHomCount:
    """Homomorphism count of the k-vertex star into a graph with the given
    degree sequence: sum of d^(k-1), ``rounded`` only for integral degrees."""
    if k < 2:
        raise ValueError("a star needs at least 2 vertices")
    d = np.asarray(degrees, dtype=float)
    raw = float(np.sum(d ** (k - 1)))
    integral = bool(np.all(np.abs(d - np.round(d)) <= 1e-12))
    return CycleHomCount(raw, int(round(raw)) if integral else None)


class CycleHomCount(NamedTuple):
    raw: float
    rounded: Optional[int]


def hom_cycle(matrix: MeasuredMatrix, k: int) -> CycleHomCount:
    """Homomorphism count of the k-cycle: sum of adjacency eigenvalues^k.

    Eigenvalues come from LAPACK (``numpy.linalg.eigh``).  ``rounded`` is filled
    whenever the matrix entries are integral; ``raw`` always carries the
    float sum.
    """
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    a = matrix.entries
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ValueError("cycle homomorphism counts need a symmetric matrix")
    eigenvalues, _ = np.linalg.eigh(a)
    raw = float(np.sum(eigenvalues ** k))
    integral = bool(np.all(np.abs(a - np.round(a)) <= 1e-12))
    return CycleHomCount(raw, int(round(raw)) if integral else None)


def count_homomorphisms(pattern: Graph, target: Graph) -> int:
    """Exact homomorphism count: every map of pattern vertices to target
    vertices, counted when it sends each pattern edge to a target edge."""
    if pattern.n > _HOM_PATTERN_LIMIT:
        raise ValueError(f"pattern graph limited to {_HOM_PATTERN_LIMIT} vertices")
    if target.n > _HOM_TARGET_LIMIT:
        raise ValueError(f"target graph limited to {_HOM_TARGET_LIMIT} vertices")
    adj_target = target.adjacency_matrix() > 0.5
    maps = np.indices((target.n,) * pattern.n, dtype=np.int8).reshape(pattern.n, -1)
    fits = np.ones(maps.shape[1], dtype=bool)
    for u, v in pattern.edges:
        fits &= adj_target[maps[u], maps[v]]
    return int(fits.sum())
