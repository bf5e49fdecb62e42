"""Sampled test-vector profiles and the profile distances built on them.

The k-profile of a measured matrix collects the joint laws of
(Z_1, A Z_1, ..., Z_k, A Z_k) over test vectors with entries in [-1, 1].
Two matrices are compared through the Hausdorff distance between their
profiles: the 1-profile distance uses k = 1 alone, the action-convergence
distance sums Hausdorff terms over k with geometric weights 2^-k, so
truncating at kmax leaves a tail of at most 2^-kmax.

Profiles over the full test-vector space are infinite; this module works
with two finite stand-ins.  Sampled mode draws a deterministic canonical
family of test vectors (the distance is then an estimate with uncontrolled
error sign, so count and seed travel with every result).  Exact-orbit mode
closes a small base family under all index permutations, which makes the
distance between a matrix and any relabeling of it exactly zero; it has
the 1-profile only.  Both distances take one path, ``profile_sets`` then
``hausdorff_terms`` then ``ActionDistance.from_terms``, so a caller that
needs both, or all pairs of a corpus, builds each profile and term once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .matrices import MeasuredMatrix, _law_points, permutations_preserving
from .measures import MeasureSet, hausdorff_distance

MODES = ("sampled", "exact_orbit")
HALTON_BLOCK = 32
EXACT_ORBIT_LIMIT = 7
# Rows of one stack handed to MeasureSet.from_arrays by exact_orbit_profile:
# one order-7 orbit.  Consecutive orbits are joined up to it, so a profile of
# order 6 or less costs one stack, while an order-7 profile keeps one orbit
# per stack, and with it the memory of one orbit.
_ORBIT_STACK_ROWS = 5040


@dataclass(frozen=True)
class SamplingConfig:
    """Reproducibility block carried alongside every profile distance."""

    count: int = 500
    seed: int = 42
    metric: str = "euclidean"
    mode: str = "sampled"
    kmax: int = 3

    def to_text(self) -> str:
        return (f"count {self.count}\nseed {self.seed}\nkmax {self.kmax}\n"
                f"metric {self.metric}\nmode {self.mode}\n")

    @classmethod
    def from_text(cls, text: str) -> "SamplingConfig":
        fields: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition(" ")
            fields[key] = value.strip()
        missing = [name for name in ("count", "seed", "kmax", "metric", "mode")
                   if name not in fields]
        if missing:
            raise ValueError(f"sampling config lacks field(s): {', '.join(missing)}")
        return cls(count=int(fields["count"]), seed=int(fields["seed"]),
                   kmax=int(fields["kmax"]), metric=fields["metric"],
                   mode=fields["mode"])


@dataclass
class ProfileSample:
    """A finite stand-in for a k-profile.

    ``base_vectors`` (count, k, n) holds the test-vector tuples, k vectors
    each with entries in [-1, 1]; ``measures`` the deduplicated laws on
    R^(2k).  In exact-orbit mode the measures are closed under index
    permutations and ``seed`` is None (the base family is supplied by the
    caller).
    """

    k: int
    base_vectors: np.ndarray
    measures: MeasureSet
    seed: int | None
    mode: str


def _first_primes(n: int) -> np.ndarray:
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return np.array(primes)


def halton_block(n: int, count: int = HALTON_BLOCK) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence in [0, 1)^n.

    Coordinate j of point i is the radical inverse of i in the j-th prime
    base: the base-p digits of i mirrored about the radix point.  Digits are
    added least significant first, as ``digit * p^-(position+1)``, which is
    the order of scipy's ``qmc.Halton(scramble=False)``; an index that has
    run out of digits adds only +0.0, so the points are the same bits.
    """
    bases = _first_primes(n)
    index = np.repeat(np.arange(count)[:, None], n, axis=1)
    points = np.zeros((count, n))
    scale = 1.0 / bases
    while index.any():
        index, digit = np.divmod(index, bases)
        points += digit * scale
        scale = scale / bases
    return points


def _canonical_vectors(n: int, seed: int, count: int) -> np.ndarray:
    """The first ``count`` vectors of the deterministic test-vector stream in
    [-1, 1]^n, as rows (count, n): the all-ones vector (row-sum witness),
    the n basis vectors and ``2 * halton_block(n) - 1``, then one
    ``uniform(-1, 1, (rest, n))`` draw of ``default_rng(seed)``, which
    equals ``rest`` draws of n values in turn, bit for bit."""
    fixed = np.concatenate((np.ones((1, n)), np.eye(n), 2.0 * halton_block(n) - 1.0))
    drawn = np.random.default_rng(seed).uniform(-1.0, 1.0, (max(0, count - len(fixed)), n))
    return np.concatenate((fixed[:count], drawn))


def sample_profile(matrix: MeasuredMatrix, k: int, count: int, seed: int) -> ProfileSample:
    """Sampled k-profile: ``count`` tuples off the canonical stream.

    Deterministic given (n, k, count, seed).  Tuples are consecutive groups
    of k stream vectors, so the k = 1 family is the stream prefix itself.
    The k * count vectors are taken as one array (``_canonical_vectors``),
    which is ``base_vectors``.
    """
    if k < 1:
        raise ValueError("profile order k must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    vectors = _canonical_vectors(matrix.n, seed, k * count).reshape(count, k, matrix.n)
    measures = MeasureSet.from_arrays([_law_points(matrix, vectors)], matrix.p)
    return ProfileSample(k, vectors, measures, seed, "sampled")


def orbit_base_family(n: int, seed: int) -> list[np.ndarray]:
    """Seeded base family for exact-orbit profiles.

    One vector with pairwise-distinct entries plus its n single-coordinate
    perturbations, all within [-1, 1]^n.  The perturbation is a fraction of
    the smallest entry gap so the perturbed vectors stay distinct-entry.
    """
    rng = np.random.default_rng(seed)
    if n == 1:
        return [rng.uniform(-0.9, 0.9, 1), rng.uniform(-0.9, 0.9, 1)]
    for _ in range(1000):
        v = rng.uniform(-0.9, 0.9, n)
        gaps = np.diff(np.sort(v))
        if gaps.min() > 0.05 / n:
            break
    else:
        raise RuntimeError("could not draw a well-separated base vector")
    delta = min(float(gaps.min()) / 8.0, 0.05)
    family = [v]
    for i in range(n):
        shifted = v.copy()
        shifted[i] += delta
        family.append(shifted)
    return family


def exact_orbit_profile(matrix: MeasuredMatrix,
                        base_vectors: Sequence[np.ndarray]) -> ProfileSample:
    """1-profile closed under index permutations, over a base family.

    Each base vector is replaced by its sorted-entry normalization before the
    orbit is expanded; the orbit only depends on the entry multiset, and the
    normalization makes relabeled matrices produce identical profiles.  The
    measures of all orbits are deduplicated together, in base-vector order.
    """
    if matrix.n > EXACT_ORBIT_LIMIT:
        raise ValueError(
            f"order {matrix.n} exceeds the exact-orbit limit {EXACT_ORBIT_LIMIT}")
    normalized = [np.sort(np.asarray(v, dtype=float).ravel()) for v in base_vectors]
    if any(v.shape[0] != matrix.n for v in normalized):
        raise ValueError("base vector length must equal the matrix order")
    normalized = np.array(normalized).reshape(-1, 1, matrix.n)
    sigmas = permutations_preserving(matrix.p)
    step = max(1, _ORBIT_STACK_ROWS // len(sigmas))
    stacks = (normalized[s:s + step, 0][:, sigmas].reshape(-1, 1, matrix.n)
              for s in range(0, len(normalized), step))
    measures = MeasureSet.from_arrays((_law_points(matrix, v) for v in stacks), matrix.p)
    return ProfileSample(1, normalized, measures, None, "exact_orbit")


def profile_sets(matrix: MeasuredMatrix, cfg: SamplingConfig = SamplingConfig(),
                 kmax: int | None = None) -> list[MeasureSet]:
    """Profile measure sets of ``matrix`` for k = 1..kmax under ``cfg``.

    ``kmax`` None means k = 1..cfg.kmax in sampled mode and k = 1 in
    exact-orbit mode, which has the 1-profile only.
    """
    if kmax is None:
        kmax = 1 if cfg.mode == "exact_orbit" else cfg.kmax
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if cfg.mode == "sampled":
        return [sample_profile(matrix, k, cfg.count, cfg.seed).measures
                for k in range(1, kmax + 1)]
    if cfg.mode != "exact_orbit":
        raise ValueError(f"unknown mode {cfg.mode!r}; expected one of {MODES}")
    if kmax > 1:
        raise ValueError("k-profiles above k = 1 have no exact-orbit form; use sampled mode")
    return [exact_orbit_profile(matrix, orbit_base_family(matrix.n, cfg.seed)).measures]


def hausdorff_terms(sets_a: Sequence[MeasureSet], sets_b: Sequence[MeasureSet],
                    metric: str = "euclidean") -> list[float]:
    """Per-k Hausdorff distances between two ``profile_sets`` lists."""
    return [hausdorff_distance(a, b, metric) for a, b in zip(sets_a, sets_b, strict=True)]


def one_profile_distance(ma: MeasuredMatrix, mb: MeasuredMatrix,
                         cfg: SamplingConfig = SamplingConfig()) -> float:
    """Hausdorff distance between the two 1-profiles under ``cfg``.

    An estimate of the full 1-profile distance in sampled mode; exact on the
    chosen base family in exact-orbit mode.
    """
    return hausdorff_terms(profile_sets(ma, cfg, 1), profile_sets(mb, cfg, 1), cfg.metric)[0]


class ActionDistance(NamedTuple):
    value: float
    tail_bound: float

    @classmethod
    def from_terms(cls, terms: Sequence[float]) -> "ActionDistance":
        """2^-k-weighted sum of the terms k = 1..kmax = len(terms), tail 2^-kmax."""
        total = 0.0
        for k, term in enumerate(terms, start=1):
            total += 2.0 ** -k * term
        return cls(total, 2.0 ** -len(terms))


def action_distance(ma: MeasuredMatrix, mb: MeasuredMatrix, kmax: int | None = None,
                    cfg: SamplingConfig = SamplingConfig()) -> ActionDistance:
    """Truncated action-convergence distance over k-profiles, k = 1..kmax.

    ``kmax`` defaults to ``cfg.kmax``.  The k = 1 term is the value of
    ``one_profile_distance`` under an equal cfg.
    """
    kmax = cfg.kmax if kmax is None else kmax
    return ActionDistance.from_terms(hausdorff_terms(
        profile_sets(ma, cfg, kmax), profile_sets(mb, cfg, kmax), cfg.metric))
