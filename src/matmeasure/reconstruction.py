"""Recovering a matrix, up to relabeling, from the measures it generates.

A matrix with uniform index weights is pinned down by its generated measure
set up to switching equivalence (A = P B P^T for a permutation P).  The
procedure implemented here makes that constructive:

1. pick a test vector whose permutation orbit produces as many distinct
   measures as possible; such a vector is irreducible (its orbit collapses
   only through permutations commuting with the matrix) and can be taken
   with pairwise-distinct entries;
2. choose a perturbation scale epsilon small enough that orbit measures stay
   isolated: each measure of the base orbit has a unique partner within
   epsilon/4 in the orbit of any single-coordinate perturbation;
3. read the ordered support of one base measure, match its first component
   against the test vector to learn the combined relabeling, then recover
   each matrix column from the difference quotient of ordered supports
   between the base and the matching perturbed measure.

Steps 1 and 2 each live in one place, ``_best_vector`` and ``_epsilon``;
``reconstruct`` feeds them oracle answers, while ``max_orbit_vector`` and
``choose_epsilon`` run them on a known matrix.  All information flows
through a ``MeasureOracle`` that answers only with orbit sizes and orbit
measure sets, whose keys are the ordered supports (``_support``), never with
the hidden matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .matrices import (FACTORIAL_LIMIT, MeasuredMatrix, _as_permutation, _permutations,
                       norm_inf_to_1, orbit_measures, perturb)
from .measures import (MASS_SLACK, MeasureSet, WeightedPointMeasure, _join, _key_stacks,
                       _pair_lp, _take, min_pairwise_lp)

KERNEL_RESIDUAL_TOL = 1e-9
IRREDUCIBLE_LIMIT = 6
ORBIT_SEARCH_LIMIT = 7

# Below this single-coordinate shift the column difference quotients lose
# float accuracy (and the perturbed orbit approaches the measure-dedup
# tolerance), so smaller epsilons are treated as failures.
_MIN_SHIFT = 1e-6


class DegenerateSupportError(ValueError):
    """A planar measure had tied first coordinates, so no unique ordered support."""


class ReconstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class OrderedSupport:
    """A planar measure with strictly increasing first coordinates, read as
    paired vectors.  ``xs``, ``ys`` and ``weights`` are read-only views of
    the measure's arrays."""

    measure: WeightedPointMeasure

    @property
    def xs(self) -> np.ndarray:
        return self.measure.points[:, 0]

    @property
    def ys(self) -> np.ndarray:
        return self.measure.points[:, 1]

    @property
    def weights(self) -> np.ndarray:
        return self.measure.weights


def ordered_support(mu: WeightedPointMeasure) -> OrderedSupport:
    """The unique ordered support of a planar measure with distinct xs."""
    if mu.dim != 2:
        raise ValueError("ordered supports exist for planar measures only")
    if np.any(np.diff(mu.points[:, 0]) <= 0.0):
        raise DegenerateSupportError("tied first coordinates; support not unique")
    return OrderedSupport(mu)


def permutation_commutator(a: np.ndarray, sigma: Sequence[int]) -> np.ndarray:
    """PA - AP for the permutation acting as (Px)_i = x_{sigma(i)}.

    (PA)_{ij} = A_{sigma(i), j} and (AP)_{ij} = A_{i, sigma^-1(j)}.
    """
    idx = _as_permutation(sigma, np.shape(a))
    return a[idx, :] - a[:, np.argsort(idx)]


def _commutator_stack(matrix: MeasuredMatrix) -> np.ndarray:
    """All nonzero PA - AP over index permutations, stacked in the order of
    the permutation table (``matrices._permutations``): each is
    ``permutation_commutator`` of its row."""
    a, perms = matrix.entries, _permutations(matrix.n)
    stack = a[perms] - a[:, np.argsort(perms, axis=1)].swapaxes(0, 1)
    return stack[np.abs(stack).max(axis=(1, 2)) > KERNEL_RESIDUAL_TOL]


def is_irreducible(matrix: MeasuredMatrix, v, tol: float = KERNEL_RESIDUAL_TOL) -> bool:
    """Whether the orbit of ``v`` collapses only through commuting permutations.

    Checked through the kernel formulation: for every permutation P with
    PA != AP and every permutation P1, the vector P1 v must avoid
    ker(PA - AP).  Residuals are measured against tol * ||v||.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != matrix.n:
        raise ValueError("vector length must equal the matrix order")
    if matrix.n > IRREDUCIBLE_LIMIT:
        raise ValueError(f"irreducibility check limited to order {IRREDUCIBLE_LIMIT}")
    kernels = _commutator_stack(matrix)
    if len(kernels) == 0:
        return True
    permuted = v[_permutations(matrix.n)]
    residuals = np.einsum("kij,mj->kmi", kernels, permuted)
    norms = np.sqrt((residuals ** 2).sum(axis=2))
    scale = float(np.linalg.norm(v))
    return bool(norms.min() > tol * max(scale, 1e-30))


def _distinct_entry_vector(rng: np.random.Generator, n: int,
                           min_gap: float | None = None) -> np.ndarray:
    if min_gap is None:
        min_gap = 1e-3 / n
    for _ in range(10000):
        v = rng.uniform(-1.0, 1.0, n)
        if n == 1 or np.min(np.diff(np.sort(v))) > min_gap:
            return v
    raise RuntimeError("could not draw a vector with distinct entries")


def find_irreducible_vector(matrix: MeasuredMatrix, rng_seed: int = 0,
                            max_tries: int = 100) -> np.ndarray:
    """A pairwise-distinct-entry vector passing the irreducibility check.

    Random draws avoid the finitely many commutator kernels almost surely;
    each draw is verified before being returned.  If every permutation
    commutes with the matrix, any distinct-entry vector qualifies.
    """
    if matrix.n > IRREDUCIBLE_LIMIT:
        raise ValueError(f"construction limited to order {IRREDUCIBLE_LIMIT}")
    rng = np.random.default_rng(rng_seed)
    for _ in range(max_tries):
        v = _distinct_entry_vector(rng, matrix.n)
        if is_irreducible(matrix, v):
            return v
    raise ReconstructionError(
        "no irreducible vector found; the residual tolerance is degenerate "
        "for this matrix")


def switching_witness(a, b, tol: float = 1e-9) -> Optional[np.ndarray]:
    """A permutation sigma with A[i, j] == B[sigma(i), sigma(j)], or None.

    Equivalently A = P B P^T for the matrix P acting as (Px)_i = x_{sigma(i)}.
    A plain scan of the permutation table (``matrices._permutations``), one
    block of (n - 1)! rows per image of vertex 0: the first row whose
    relabeling of B is within ``tol`` of A in every entry, so the
    lexicographically smallest witness.  Orders above ``FACTORIAL_LIMIT``
    are refused.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("switching equivalence needs equal-order square matrices")
    n = a.shape[0]
    if n > FACTORIAL_LIMIT:
        raise ValueError(f"switching witness limited to order {FACTORIAL_LIMIT}; found {n}")
    perms = _permutations(n)
    step = len(perms) // max(n, 1)
    for start in range(0, len(perms), step):
        block = perms[start:start + step]
        fits = (np.abs(b[block[:, :, None], block[:, None, :]] - a) <= tol).all(axis=(1, 2))
        if fits.any():
            return block[fits.argmax()].copy()
    return None


def _best_vector(oracle: MeasureOracle, rng: np.random.Generator,
                 trials: int) -> np.ndarray:
    """Best of ``trials`` drawn vectors by orbit size, asked of the oracle.

    Healthy entry gaps (``min_gap=0.3/n``) keep the perturbation scale, and
    with it the accuracy of the column difference quotients, well
    conditioned.  Ties go to the vector with the largest smallest gap.
    """
    n = oracle.dimension
    drawn = [_distinct_entry_vector(rng, n, min_gap=0.3 / n)
             for _ in range(max(1, trials))]
    sizes = [oracle.orbit_size(x) for x in drawn]
    largest = max(sizes)
    return max((x for x, size in zip(drawn, sizes) if size == largest),
               key=lambda x: float(np.min(np.diff(np.sort(x)), initial=np.inf)))


def _epsilon(v: np.ndarray, orbit, k_bound: float, metric: str = "euclidean") -> float:
    """sqrt(32 K gap), capped by half the orbit's smallest LP distance."""
    gaps = np.diff(np.sort(v))
    if len(gaps) == 0 or np.min(gaps) <= 0.0:
        raise ValueError("epsilon selection needs pairwise-distinct entries")
    eps = float(np.sqrt(32.0 * k_bound * float(np.min(gaps))))
    if len(orbit) < 2:
        return eps
    return min(min_pairwise_lp(orbit, metric) / 2.0, eps)


def _k_bound(norm_bound: float) -> float:
    """The norm bound K of the isolation conditions: ``norm_bound`` rounded up
    to 1.  A NaN, infinite or negative bound raises instead of reading as 1."""
    k = float(norm_bound)
    if not 0.0 <= k < np.inf:
        raise ValueError(f"norm_bound must be finite and nonnegative, got {k!r}")
    return max(1.0, k)


def max_orbit_vector(matrix: MeasuredMatrix, trials: int = 20,
                     rng_seed: int = 0) -> np.ndarray:
    """The test vector ``reconstruct`` picks: best of ``trials`` random
    distinct-entry vectors by orbit size.

    For generic vectors the orbit size equals n! divided by the number of
    weight-preserving permutations commuting with the matrix, so the argmax
    is an irreducible vector; success is verified downstream rather than
    assumed.
    """
    if matrix.n > ORBIT_SEARCH_LIMIT:
        raise ValueError(f"orbit search limited to order {ORBIT_SEARCH_LIMIT}")
    return _best_vector(MeasureOracle(matrix), np.random.default_rng(rng_seed), trials)


def choose_epsilon(matrix: MeasuredMatrix, v, norm_bound: float | None = None,
                   metric: str = "euclidean") -> float:
    """Perturbation scale meeting the two isolation conditions.

    epsilon must stay below half the smallest LP distance between distinct
    orbit measures of ``v`` (so perturbed measures attach uniquely), and
    epsilon^2 / (64 K) must stay below half the smallest entry gap of ``v``
    (so single-coordinate shifts preserve the sorted order).  With a
    singleton orbit only the ordering condition binds.
    """
    v = np.asarray(v, dtype=float).ravel()
    k_bound = _k_bound(norm_inf_to_1(matrix).value if norm_bound is None else norm_bound)
    return _epsilon(v, orbit_measures(matrix, v), k_bound, metric)


class MeasureOracle:
    """Query interface over the measure family of a hidden matrix.

    Callers see orbit sizes and orbit measure sets for vectors of their
    choosing, plus a disclosed bound on the hidden (inf -> 1) norm; the
    matrix itself never crosses the interface.  Queries are answered
    serially and logged in order.
    """

    def __init__(self, matrix: MeasuredMatrix):
        self._matrix = matrix
        self._log: list[tuple[str, np.ndarray]] = []

    @property
    def dimension(self) -> int:
        return self._matrix.n

    @property
    def weights(self) -> np.ndarray:
        return self._matrix.p

    @property
    def query_count(self) -> int:
        return len(self._log)

    @property
    def query_log(self) -> list[tuple[str, np.ndarray]]:
        return list(self._log)

    def norm_bound(self) -> float:
        """Disclosed upper bound on the hidden (inf -> 1) operator norm."""
        return norm_inf_to_1(self._matrix).value

    def orbit_size(self, x) -> int:
        """Number of distinct measures in the orbit of ``x``, counted on the
        orbit's key stacks without building its members."""
        x = np.asarray(x, dtype=float).ravel()
        self._log.append(("orbit_size", x.copy()))
        return len(orbit_measures(self._matrix, x))

    def orbit_supports(self, x) -> MeasureSet:
        """The orbit of ``x`` as its measure set, whose keys are the members'
        ordered supports: a tie among first coordinates raises what
        ``ordered_support`` raises, found by one check per key stack."""
        x = np.asarray(x, dtype=float).ravel()
        self._log.append(("orbit_supports", x.copy()))
        orbit = orbit_measures(self._matrix, x)
        for keys in _key_stacks(orbit)[2].values():
            if (np.diff(keys[..., 0], axis=1) <= 0.0).any():
                raise DegenerateSupportError("tied first coordinates; support not unique")
        return orbit


def reconstruct(oracle: MeasureOracle, norm_bound: float | None = None,
                trials: int = 12, rng_seed: int = 2024,
                max_halvings: int = 6) -> np.ndarray:
    """Recover a matrix switching-equivalent to the oracle's hidden one.

    Requires uniform index weights and a hidden order within the factorial
    enumeration range.  ``norm_bound`` defaults to the oracle's disclosed
    norm bound; a bound below 1 counts as 1, and a NaN, infinite or negative
    one raises.  When a perturbed orbit fails to contain a unique measure
    within epsilon/4 of its base partner, epsilon is halved (at most
    ``max_halvings`` times); a degenerate ordered support triggers a fresh
    test vector instead.
    """
    n = oracle.dimension
    if n < 2 or n > IRREDUCIBLE_LIMIT:
        raise ValueError(f"reconstruction limited to orders 2..{IRREDUCIBLE_LIMIT}")
    if not np.allclose(oracle.weights, np.full(n, 1.0 / n), atol=1e-12):
        raise ValueError("reconstruction requires uniform index weights")
    k_bound = _k_bound(oracle.norm_bound() if norm_bound is None else norm_bound)
    rng = np.random.default_rng(rng_seed)

    for _ in range(8):  # fresh test vector on degenerate draws
        v = _best_vector(oracle, rng, trials)
        try:
            orbit = oracle.orbit_supports(v)
        except DegenerateSupportError:
            continue

        order = np.argsort(v)
        if not np.array_equal(_support(orbit, 0)[:, 0], v[order]):
            continue  # non-generic draw; first components must be sorted v

        eps = _epsilon(v, orbit, k_bound)
        for _ in range(max_halvings + 1):
            if eps * eps / (64.0 * k_bound) < _MIN_SHIFT:
                break
            recovered = _recover_columns(oracle, v, order, orbit, eps, k_bound)
            if recovered is not None:
                return recovered
            eps /= 2.0

    raise ReconstructionError("reconstruction failed: no epsilon satisfied the "
                              "isolation conditions for any sampled test vector")


def _support(orbit: MeasureSet, i: int) -> np.ndarray:
    """The canonical key of member ``i`` of an ``orbit_supports`` answer: its
    ordered support, rows (x, y, weight)."""
    counts, slot, stacks = _key_stacks(orbit)
    return stacks[counts[i]][slot[i]]


def _near(base: MeasureSet, probe: MeasureSet, eps: float) -> np.ndarray:
    """Positions of the ``probe`` members that ``lp_feasible(mu, member, eps)``
    accepts, mu the first member of ``base``, in one batch on mu's key joined
    with ``probe``'s table.  Members are capped at the threshold eps +
    MASS_SLACK: one whose far mass (``_far_pairs``) exceeds it by
    ``_BOUND_SLACK`` is not evaluated, and its NaN compares false."""
    first = _take(_key_stacks(base), np.zeros(1, dtype=np.intp))
    lp = _pair_lp(MeasureSet(base.dim, _join(first, _key_stacks(probe))), "euclidean")
    threshold = eps + MASS_SLACK
    others = np.arange(1, len(probe) + 1)
    return others[lp(0, others, cap=threshold) <= threshold] - 1


def _recover_columns(oracle: MeasureOracle, v: np.ndarray, order: np.ndarray,
                     orbit: MeasureSet, eps: float, k_bound: float) -> Optional[np.ndarray]:
    n = len(v)
    shift = eps * eps / (64.0 * k_bound)
    base = _support(orbit, 0)
    result = np.empty((n, n))
    for i in range(n):
        j = int(order[i])  # perturbing v at j moves sorted position i
        probe = perturb(v, j, eps, k_bound)
        try:
            supports = oracle.orbit_supports(probe)
        except DegenerateSupportError:
            return None
        near = _near(orbit, supports, eps / 4)
        if len(near) != 1:
            return None
        partner = _support(supports, near[0])
        expected_xs = base[:, 0].copy()
        expected_xs[i] += shift
        if not np.allclose(partner[:, 0], expected_xs, atol=shift * 1e-6 + 1e-12):
            return None
        result[:, i] = (partner[:, 1] - base[:, 1]) / shift
    return result
