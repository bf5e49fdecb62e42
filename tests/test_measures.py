import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matmeasure as mm
from matmeasure.flows import bipartite_max_flow
from matmeasure.measures import (_BOUND_SLACK, MASS_SLACK, METRICS, SET_DEDUP_TOL,
                                 SUBSET_KERNEL_MAX_ATOMS, _canonical_keys, _canonical_rank, _dedup,
                                 _far_pairs, _join, _key_stacks, _lp_breakpoints,
                                 _lp_subsets, _pair_lp, _point_distances, _prejoin,
                                 _quantile_sketch, _stack_keys)
from conftest import (canonical_key_reference, dedup_reference, far_mass_pair,
                      four_vertex_classes, hausdorff_reference, lower_bound_reference, lp_oracle,
                      lp_reference, measure_set_reference, random_measure, random_weights)

HALF = 0.5


# ---------------------------------------------------------------------------
# construction and canonicalization
# ---------------------------------------------------------------------------

def test_atoms_sorted_lexicographically():
    mu = mm.WeightedPointMeasure([[1.0, 0.0], [0.0, 3.0]], [HALF, HALF])
    assert mu.points.tolist() == [[0.0, 3.0], [1.0, 0.0]]


def test_coinciding_atoms_merged():
    mu = mm.WeightedPointMeasure([[1.0, 2.0], [1.0 + 1e-13, 2.0], [0.0, 0.0]],
                                 [0.25, 0.25, 0.5])
    assert mu.atom_count == 2
    assert mu.weights.tolist() == [0.5, 0.5]


def test_atoms_merge_into_the_first_atom_of_their_run():
    # The third atom is within 1e-12 of the second but not of the first, so
    # it starts a new run; merging neighbours would give one atom.
    mu = mm.WeightedPointMeasure([[0.0, 0.0], [0.7e-12, 0.0], [1.4e-12, 0.0]],
                                 [0.2, 0.3, 0.5])
    assert mu.points.tolist() == [[0.0, 0.0], [1.4e-12, 0.0]]
    assert mu.weights.tolist() == [0.5, 0.5]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_canonical_keys_of_a_stack_equal_each_row_on_its_own(seed):
    # Coordinates on a grid of steps 0.7e-12 apart, so rows hold runs that
    # merge, chains of near atoms that split into several runs, and no merge
    # at all; random weights make the order of the weight sums show.
    rng = np.random.default_rng(seed)
    rows, m, d = (int(v) for v in rng.integers(1, (8, 9, 4)))
    points = rng.integers(-2, 3, (rows, m, d)) * 0.7e-12 + rng.integers(0, 2, (rows, m, d))
    weights = rng.random((rows, m)) + 0.1
    weights /= weights.sum(axis=1, keepdims=True)
    counts, slot, stacks = _canonical_keys(points, weights)
    for p in range(rows):
        expected = canonical_key_reference(points[p], weights[p])
        assert counts[p] == len(expected)
        assert stacks[counts[p]][slot[p]].tobytes() == expected.tobytes()
    for c, keys in stacks.items():
        assert slot[counts == c].tolist() == list(range(len(keys)))


def test_weights_must_be_positive_and_normalized():
    with pytest.raises(ValueError):
        mm.WeightedPointMeasure([[0.0]], [0.0])
    with pytest.raises(ValueError):
        mm.WeightedPointMeasure([[0.0], [1.0]], [0.5, 0.6])
    with pytest.raises(ValueError):
        mm.WeightedPointMeasure(np.empty((0, 2)), [])


def test_one_dimensional_input_is_r1():
    mu = mm.WeightedPointMeasure([3.0, 1.0, 2.0], [1 / 3] * 3)
    assert mu.dim == 1
    assert mu.points.ravel().tolist() == [1.0, 2.0, 3.0]


def test_text_round_trip():
    rng = np.random.default_rng(0)
    mu = random_measure(rng, dim=3, max_atoms=4)
    again = mm.WeightedPointMeasure.from_text(mu.to_text())
    assert mm.measure_equal(mu, again, 1e-15)


def test_zero_dimensional_atoms_rejected():
    with pytest.raises(ValueError, match="at least one coordinate"):
        mm.WeightedPointMeasure(np.empty((2, 0)), [HALF, HALF])
    with pytest.raises(ValueError, match="at least one coordinate"):
        mm.WeightedPointMeasure.from_text("0 1\n1\n")


# ---------------------------------------------------------------------------
# measure_equal
# ---------------------------------------------------------------------------

def test_equal_to_itself():
    mu = mm.WeightedPointMeasure([[1.0, 0.0], [0.0, 3.0]], [HALF, HALF])
    assert mm.measure_equal(mu, mu, 1e-12)


def test_equal_regardless_of_atom_order():
    mu = mm.WeightedPointMeasure([[1.0, 0.0], [0.0, 3.0]], [HALF, HALF])
    nu = mm.WeightedPointMeasure([[0.0, 3.0], [1.0, 0.0]], [HALF, HALF])
    assert mm.measure_equal(mu, nu, 1e-12)


def test_different_supports_not_equal():
    mu = mm.WeightedPointMeasure([[1.0, 0.0], [0.0, 3.0]], [HALF, HALF])
    assert not mm.measure_equal(mu, mm.dirac([1.0, 0.0]), 1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        mm.measure_equal(mm.dirac([0.0]), mm.dirac([0.0, 0.0]))


# ---------------------------------------------------------------------------
# lp_feasible / lp_distance, frozen examples
# ---------------------------------------------------------------------------

def test_feasibility_threshold_of_shifted_diracs():
    mu, nu = mm.dirac([0.0, 0.0]), mm.dirac([0.3, 0.0])
    assert mm.lp_feasible(mu, nu, 0.3)
    assert not mm.lp_feasible(mu, nu, 0.29)


def test_identity_coupling_at_zero():
    mu = mm.WeightedPointMeasure([[0.0, 1.0], [2.0, 0.0]], [HALF, HALF])
    assert mm.lp_feasible(mu, mu, 0.0)


def test_feasibility_with_unmatched_mass():
    mu = mm.WeightedPointMeasure([[0.0, 0.0], [1.0, 0.0]], [HALF, HALF])
    nu = mm.dirac([0.0, 0.0])
    assert mm.lp_feasible(mu, nu, 0.5)
    assert not mm.lp_feasible(mu, nu, 0.49)


def test_negative_eps_rejected():
    with pytest.raises(ValueError):
        mm.lp_feasible(mm.dirac([0.0]), mm.dirac([0.0]), -0.1)


def test_nan_eps_rejected():
    mu = mm.WeightedPointMeasure([[0.0, 1.0], [2.0, 0.0]], [HALF, HALF])
    with pytest.raises(ValueError, match="nonnegative"):
        mm.lp_feasible(mu, mu, float("nan"))


def test_distance_identical_measures():
    mu = mm.WeightedPointMeasure([[0.0, 1.0], [2.0, 0.0]], [HALF, HALF])
    assert mm.lp_distance(mu, mu) == 0.0


def test_distance_shifted_diracs():
    assert mm.lp_distance(mm.dirac([0.0, 0.0]), mm.dirac([0.3, 0.0])) == 0.3


def test_distance_unmatched_mass():
    mu = mm.WeightedPointMeasure([[0.0, 0.0], [1.0, 0.0]], [HALF, HALF])
    assert mm.lp_distance(mu, mm.dirac([0.0, 0.0])) == 0.5


def test_distance_capped_at_one():
    assert mm.lp_distance(mm.dirac([0.0, 0.0]), mm.dirac([50.0, 0.0])) == 1.0


def test_chebyshev_metric_selectable():
    mu, nu = mm.dirac([0.0, 0.0]), mm.dirac([0.3, 0.2])
    assert mm.lp_distance(mu, nu, "chebyshev") == pytest.approx(0.3, abs=1e-15)
    assert mm.lp_distance(mu, nu, "euclidean") == pytest.approx(np.hypot(0.3, 0.2), abs=1e-15)
    with pytest.raises(ValueError):
        mm.lp_distance(mu, nu, "manhattan")


# ---------------------------------------------------------------------------
# lp_oracle
# ---------------------------------------------------------------------------

def test_oracle_frozen_examples():
    assert lp_oracle(mm.dirac([0.0, 0.0]), mm.dirac([0.0, 0.0])) == 0.0
    assert lp_oracle(mm.dirac([0.0, 0.0]), mm.dirac([0.3, 0.0])) == 0.3
    near_far = mm.WeightedPointMeasure([[0.1, 0.0], [10.0, 0.0]], [HALF, HALF])
    assert lp_oracle(near_far, mm.dirac([0.0, 0.0])) == 0.5
    far_far = mm.WeightedPointMeasure([[5.0, 0.0], [10.0, 0.0]], [HALF, HALF])
    assert lp_oracle(far_far, mm.dirac([0.0, 0.0])) == 1.0


def test_oracle_rejects_large_supports():
    rng = np.random.default_rng(1)
    mu = mm.WeightedPointMeasure(rng.uniform(-1, 1, (10, 2)), np.full(10, 0.1))
    nu = mm.WeightedPointMeasure(rng.uniform(-1, 1, (10, 2)), np.full(10, 0.1))
    with pytest.raises(ValueError):
        lp_oracle(mu, nu)


def test_oracle_matches_flow_on_random_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        scale = float(rng.choice([0.25, 1.0, 2.5]))
        mu = random_measure(rng, scale=scale)
        nu = random_measure(rng, scale=scale)
        for metric in mm.measures.METRICS:
            assert abs(mm.lp_distance(mu, nu, metric)
                       - lp_oracle(mu, nu, metric)) <= 1e-12


# ---------------------------------------------------------------------------
# subset min-cut kernel against the Dinic breakpoint search and the oracle
# ---------------------------------------------------------------------------

def kernel_pair(rng, m1, m2, dim=2):
    """A random pair with varied weights; some atoms coincide and merge."""
    def side(m):
        kind = rng.choice(["uniform", "lattice", "random"])
        if kind == "uniform":
            weights = np.full(m, 1.0 / m)
        elif kind == "lattice":
            counts = rng.multinomial(60 - m, np.full(m, 1.0 / m)) + 1
            weights = counts / 60.0
        else:
            weights = random_weights(rng, m)
        points = rng.uniform(-1.0, 1.0, (m, dim)) * float(rng.choice([0.3, 1.0]))
        if m > 1 and rng.random() < 0.2:
            points[-1] = points[0]
        return mm.WeightedPointMeasure(points, weights)
    return side(m1), side(m2)


def kernel_sizes(rng):
    if rng.random() < 0.1:
        m = SUBSET_KERNEL_MAX_ATOMS + int(rng.integers(0, 2))
        return m, m - int(rng.integers(0, 3))
    return int(rng.integers(1, 9)), int(rng.integers(1, 9))


def both_kernels(mu, nu, metric):
    dist = _point_distances(mu.points, nu.points, metric)
    kernel = _lp_subsets(dist[None], mu.weights[None], nu.weights[None])[0]
    return float(kernel), _lp_breakpoints(dist, mu.weights, nu.weights)


def test_subset_kernel_matches_dinic_search():
    rng = np.random.default_rng(31)
    worst = 0.0
    for trial in range(1000):
        mu, nu = kernel_pair(rng, *kernel_sizes(rng), dim=2 + trial % 2)
        metric = mm.measures.METRICS[trial % 2]
        kernel, dinic = both_kernels(mu, nu, metric)
        worst = max(worst, abs(kernel - dinic))
    assert worst <= 1e-12


def test_subset_kernel_enumerates_either_side():
    rng = np.random.default_rng(32)
    for _ in range(200):
        mu, nu = kernel_pair(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        forward, _ = both_kernels(mu, nu, "euclidean")
        backward, _ = both_kernels(nu, mu, "euclidean")
        assert abs(forward - backward) <= 1e-12


def test_subset_kernel_matches_oracle():
    rng = np.random.default_rng(33)
    for trial in range(300):
        mu, nu = kernel_pair(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        metric = mm.measures.METRICS[trial % 2]
        kernel, _ = both_kernels(mu, nu, metric)
        assert abs(kernel - lp_oracle(mu, nu, metric)) <= 1e-12


def test_lp_distance_picks_the_kernel_by_support_sizes():
    # The kernel serves pairs up to the crossover whose subset table fits
    # the cell cap; the Dinic search serves the rest.
    rng = np.random.default_rng(34)
    for m1, m2, kernel_expected in ((SUBSET_KERNEL_MAX_ATOMS, 11, True),
                                    (SUBSET_KERNEL_MAX_ATOMS + 1, 12, False),
                                    (SUBSET_KERNEL_MAX_ATOMS, 1024, True),
                                    (SUBSET_KERNEL_MAX_ATOMS, 1025, False)):
        mu = mm.WeightedPointMeasure(rng.uniform(-1.0, 1.0, (m1, 2)), np.full(m1, 1.0 / m1))
        nu = mm.WeightedPointMeasure(rng.uniform(-1.0, 1.0, (m2, 2)), np.full(m2, 1.0 / m2))
        kernel, dinic = both_kernels(mu, nu, "euclidean")
        assert abs(kernel - dinic) <= 1e-12
        expected = kernel if kernel_expected else dinic
        assert mm.lp_distance(mu, nu) == expected == mm.lp_distance(nu, mu)


def test_lp_distance_is_symmetric_and_equals_the_reference():
    # The one evaluator against the single-pair reference path: kernel- and
    # Dinic-sized pairs (1-14 atoms), mixed atom counts, both metrics, and
    # pairs equal within the dedup tolerance, down to 12 atoms.
    rng = np.random.default_rng(36)
    seen = {"dinic": 0, "equal": 0, "equal_12": 0, "mixed": 0}
    for trial in range(1200):
        metric, dim = mm.measures.METRICS[trial % 2], 1 + trial % 3
        if trial % 5 == 0:
            m = 12 if trial % 25 == 0 else int(rng.integers(1, 15))
            mu = kernel_pair(rng, m, 1, dim)[0]
            nu = mm.WeightedPointMeasure(mu.points + rng.uniform(-4e-10, 4e-10, mu.points.shape),
                                         mu.weights)
            assert mm.measure_equal(mu, nu)
            seen["equal"] += 1
            seen["equal_12"] += mu.atom_count == 12
        else:
            mu, nu = kernel_pair(rng, *(int(m) for m in rng.integers(1, 15, 2)), dim)
            seen["dinic"] += min(mu.atom_count, nu.atom_count) > SUBSET_KERNEL_MAX_ATOMS
        seen["mixed"] += mu.atom_count != nu.atom_count
        value = mm.lp_distance(mu, nu, metric)
        assert value == mm.lp_distance(nu, mu, metric) == lp_reference(mu, nu, metric)
    assert seen["dinic"] >= 50 and seen["equal"] >= 200 and seen["equal_12"] >= 30
    assert seen["mixed"] >= 500


def test_lp_feasible_at_eps_one_or_more_computes_the_distance():
    far = mm.WeightedPointMeasure([[0.0, 0.0], [9.0, 0.0]], [HALF, HALF])
    rng = np.random.default_rng(37)
    big = kernel_pair(rng, 12, 13)
    for eps in (1.0, 1.5, float("inf")):
        assert mm.lp_feasible(far, mm.dirac([50.0, 0.0]), eps)
        assert mm.lp_feasible(*big, eps, "chebyshev")
        with pytest.raises(ValueError, match="unknown metric"):
            mm.lp_feasible(far, far, eps, "bogus")
        with pytest.raises(ValueError, match="share a dimension"):
            mm.lp_feasible(far, mm.dirac([0.0, 0.0, 0.0]), eps)


def test_feasibility_decision_matches_dinic():
    rng = np.random.default_rng(35)
    checked = 0
    for trial in range(400):
        mu, nu = kernel_pair(rng, *kernel_sizes(rng))
        metric = mm.measures.METRICS[trial % 2]
        dist = _point_distances(mu.points, nu.points, metric)
        value = mm.lp_distance(mu, nu, metric)
        probes = np.concatenate((rng.uniform(0.0, 1.0, 3), rng.choice(dist.ravel(), 2),
                                 [value - 1e-8, value + 1e-8]))
        for eps in probes[(probes >= 0.0) & (np.abs(probes - value) >= 1e-9)]:
            flow = bipartite_max_flow(mu.weights, nu.weights, dist <= eps)
            dinic = eps >= 1.0 or flow >= 1.0 - eps - MASS_SLACK
            assert mm.lp_feasible(mu, nu, eps, metric) == dinic == (eps > value)
            checked += 1
    assert checked > 2000


# ---------------------------------------------------------------------------
# metric axioms
# ---------------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(SEEDS)
@example(5)
@settings(max_examples=15, deadline=None)
def test_symmetry_is_exact(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        mu = random_measure(rng, max_atoms=6)
        nu = random_measure(rng, max_atoms=6)
        assert mm.lp_distance(mu, nu) == mm.lp_distance(nu, mu)


@given(SEEDS)
@example(6)
@settings(max_examples=15, deadline=None)
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    for _ in range(120):
        a = random_measure(rng, max_atoms=6)
        b = random_measure(rng, max_atoms=6)
        c = random_measure(rng, max_atoms=6)
        assert (mm.lp_distance(a, c)
                <= mm.lp_distance(a, b) + mm.lp_distance(b, c) + 1e-12)


@given(SEEDS)
@example(7)
@settings(max_examples=15, deadline=None)
def test_identity_of_indiscernibles_matches_measure_equal(seed):
    rng = np.random.default_rng(seed)
    for _ in range(80):
        mu = random_measure(rng, max_atoms=4)
        nu = mu if rng.random() < 0.3 else random_measure(rng, max_atoms=4)
        assert (mm.lp_distance(mu, nu) == 0.0) == mm.measure_equal(mu, nu)


@given(SEEDS)
@example(8)
@settings(max_examples=15, deadline=None)
def test_distance_bounded_by_one(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        mu = random_measure(rng, scale=float(rng.choice([1.0, 10.0])))
        nu = random_measure(rng, scale=float(rng.choice([1.0, 10.0])))
        assert 0.0 <= mm.lp_distance(mu, nu) <= 1.0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_feasibility_monotone_in_eps(seed, eps_a, eps_b):
    rng = np.random.default_rng(seed)
    mu = random_measure(rng)
    nu = random_measure(rng)
    lo, hi = sorted((eps_a, eps_b))
    if mm.lp_feasible(mu, nu, lo):
        assert mm.lp_feasible(mu, nu, hi)


def large_measure(rng):
    """A planar measure of 11-14 atoms, above the subset-kernel crossover, so
    its LP distances come from the Dinic search; uniform or varied weights."""
    m = int(rng.integers(SUBSET_KERNEL_MAX_ATOMS + 1, SUBSET_KERNEL_MAX_ATOMS + 5))
    weights = np.full(m, 1.0 / m) if rng.random() < 0.5 else random_weights(rng, m)
    points = rng.uniform(-1.0, 1.0, (m, 2)) * float(rng.choice([0.3, 1.0]))
    return mm.WeightedPointMeasure(points, weights)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_large_support_symmetry_and_range(seed):
    rng = np.random.default_rng(seed)
    mu, nu = large_measure(rng), large_measure(rng)
    metric = mm.measures.METRICS[seed % 2]
    value = mm.lp_distance(mu, nu, metric)
    assert value == mm.lp_distance(nu, mu, metric)
    assert 0.0 <= value <= 1.0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_large_support_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = large_measure(rng), large_measure(rng), large_measure(rng)
    metric = mm.measures.METRICS[seed % 2]
    assert (mm.lp_distance(a, c, metric)
            <= mm.lp_distance(a, b, metric) + mm.lp_distance(b, c, metric) + 1e-12)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_large_support_zero_exactly_when_equal(seed):
    # The other side is a reordered copy, a copy within half the dedup
    # tolerance, a copy with one atom moved by 1e-6, or a fresh measure.
    rng = np.random.default_rng(seed)
    mu = large_measure(rng)
    metric = mm.measures.METRICS[seed % 2]
    assert mm.lp_distance(mu, mu, metric) == 0.0
    points, weights = mu.points.copy(), mu.weights
    kind = int(rng.integers(4))
    if kind == 0:
        order = rng.permutation(len(weights))
        points, weights = points[order], weights[order]
    elif kind == 1:
        points += 0.5 * SET_DEDUP_TOL * rng.choice([-1.0, 1.0], points.shape)
    elif kind == 2:
        points[int(rng.integers(len(weights))), 0] += 1e-6
    nu = large_measure(rng) if kind == 3 else mm.WeightedPointMeasure(points, weights)
    assert (mm.lp_distance(mu, nu, metric) == 0.0) == mm.measure_equal(mu, nu)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_large_support_feasibility_monotone_in_eps(seed, eps_a, eps_b):
    rng = np.random.default_rng(seed)
    mu, nu = large_measure(rng), large_measure(rng)
    metric = mm.measures.METRICS[seed % 2]
    lo, hi = sorted((eps_a, eps_b))
    if mm.lp_feasible(mu, nu, lo, metric):
        assert mm.lp_feasible(mu, nu, hi, metric)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_canonical_form_ignores_atom_input_order(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    points = rng.uniform(-1, 1, (m, 2))
    weights = random_weights(rng, m)
    mu = mm.WeightedPointMeasure(points, weights)
    order = rng.permutation(m)
    nu = mm.WeightedPointMeasure(points[order], weights[order])
    assert mm.measure_equal(mu, nu, 1e-15)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def test_hausdorff_self_distance_zero():
    rng = np.random.default_rng(9)
    x = mm.MeasureSet.from_measures(random_measure(rng) for _ in range(5))
    assert mm.hausdorff_distance(x, x) == 0.0


def test_hausdorff_singletons_reduce_to_lp():
    x = mm.MeasureSet.from_measures([mm.dirac([0.0, 0.0])])
    y = mm.MeasureSet.from_measures([mm.dirac([0.3, 0.0])])
    assert mm.hausdorff_distance(x, y) == 0.3


def test_hausdorff_directed_sup_inf_by_hand():
    x = mm.MeasureSet.from_measures([mm.dirac([0.0, 0.0]), mm.dirac([1.0, 0.0])])
    y = mm.MeasureSet.from_measures([mm.dirac([0.0, 0.0])])
    assert mm.hausdorff_distance(x, y) == 1.0


@given(SEEDS)
@example(10)
@settings(max_examples=15, deadline=None)
def test_hausdorff_bounded_by_one_and_symmetric(seed):
    # Sets of 10-40 members, so that capped evaluations skip pairs.
    rng = np.random.default_rng(seed)
    x = mm.MeasureSet.from_measures(
        random_measure(rng, scale=5.0) for _ in range(int(rng.integers(10, 41))))
    y = mm.MeasureSet.from_measures(
        random_measure(rng, scale=5.0) for _ in range(int(rng.integers(10, 41))))
    d = mm.hausdorff_distance(x, y)
    assert 0.0 <= d <= 1.0
    assert d == mm.hausdorff_distance(y, x) == hausdorff_reference(x, y)


def test_hausdorff_dimension_mismatch():
    x = mm.MeasureSet.from_measures([mm.dirac([0.0])])
    y = mm.MeasureSet.from_measures([mm.dirac([0.0, 0.0])])
    with pytest.raises(ValueError):
        mm.hausdorff_distance(x, y)


def test_hausdorff_dimension_mismatch_names_the_dimensions():
    # Members with one atom count each side, so they would share a key stack.
    x = mm.MeasureSet.from_measures([mm.dirac([0.0]), mm.dirac([1.0])])
    y = mm.MeasureSet.from_measures([mm.dirac([0.0, 0.0])])
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError, match=r"share a dimension; found \[1, 2\]"):
            mm.hausdorff_distance(a, b)


def pruned_equals_reference(x, y, metric):
    d = mm.hausdorff_distance(x, y, metric)
    assert d == hausdorff_reference(x, y, metric)
    assert d == mm.hausdorff_distance(y, x, metric)
    return d


def graph_without_isolated_vertices(rng, n):
    chords = [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.4]
    return mm.Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] + chords)


@pytest.mark.parametrize("metric", mm.measures.METRICS)
def test_hausdorff_equals_unpruned_reference_on_sampled_profiles(metric):
    rng = np.random.default_rng(13)
    cfg = mm.SamplingConfig(count=12, seed=5, kmax=3)
    for n_a, n_b in ((5, 6), (7, 8), (8, 5)):
        graph_a = graph_without_isolated_vertices(rng, n_a)
        graph_b = graph_without_isolated_vertices(rng, n_b)
        for rep in (mm.adjacency, mm.normalized_laplacian):
            for x, y in zip(mm.profile_sets(rep(graph_a), cfg),
                            mm.profile_sets(rep(graph_b), cfg), strict=True):
                assert pruned_equals_reference(x, y, metric) > 0.0


@pytest.mark.parametrize("metric", mm.measures.METRICS)
def test_hausdorff_equals_unpruned_reference_on_exact_orbits(metric):
    rng = np.random.default_rng(14)
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=17)
    sets = {}
    for name, graph in four_vertex_classes().items():
        matrix = mm.adjacency(graph)
        relabeled = mm.MeasuredMatrix(mm.relabel_matrix(matrix.entries, rng.permutation(4)))
        (sets[name],) = mm.profile_sets(matrix, cfg)
        assert pruned_equals_reference(sets[name], *mm.profile_sets(relabeled, cfg),
                                       metric) == 0.0
    names = list(sets)
    for a, b in zip(names, names[1:]):
        assert pruned_equals_reference(sets[a], sets[b], metric) > 0.0


def random_measure_sets(rng, dim):
    """Two sets of mixed atom counts that share some members.  Each also
    holds a member above the subset-kernel crossover, the two close to each
    other, so the Dinic path runs too."""
    x = [random_measure(rng, dim, max_atoms=6, scale=float(rng.choice([0.2, 1.0])))
         for _ in range(int(rng.integers(1, 10)))]
    y = [random_measure(rng, dim, max_atoms=6, scale=float(rng.choice([0.2, 1.0])))
         for _ in range(int(rng.integers(1, 10)))]
    y += [mu for mu in x if rng.random() < 0.3]
    big = SUBSET_KERNEL_MAX_ATOMS + 1 + int(rng.integers(0, 3))
    points, weights = rng.uniform(-1.0, 1.0, (big, dim)), random_weights(rng, big)
    x.append(mm.WeightedPointMeasure(points, weights))
    y.append(mm.WeightedPointMeasure(points + rng.uniform(-0.05, 0.05, points.shape), weights))
    return mm.MeasureSet.from_measures(x), mm.MeasureSet.from_measures(y)


@pytest.mark.parametrize("metric", mm.measures.METRICS)
def test_hausdorff_equals_unpruned_reference_on_mixed_atom_counts(metric):
    rng = np.random.default_rng(15)
    for trial in range(20):
        pruned_equals_reference(*random_measure_sets(rng, 1 + trial % 3), metric)


@pytest.mark.parametrize("metric", METRICS)
def test_hausdorff_equals_unpruned_reference_on_dinic_sized_members(metric):
    # 11-16 atoms a member, beyond the subset kernel.  Some members of y are
    # near copies of members of x, so rows find small minima early and the
    # capped evaluations skip the other candidates.
    rng = np.random.default_rng(19)

    def members(count):
        return [mm.WeightedPointMeasure(rng.uniform(-1.0, 1.0, (m, 2)), random_weights(rng, m))
                for m in rng.integers(SUBSET_KERNEL_MAX_ATOMS + 1, 17, count)]

    x = members(6)
    y = [mm.WeightedPointMeasure(mu.points + rng.uniform(-0.02, 0.02, mu.points.shape),
                                 mu.weights) for mu in x[:3]] + members(4)
    pruned_equals_reference(mm.MeasureSet.from_measures(x), mm.MeasureSet.from_measures(y),
                            metric)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_hausdorff_equals_unpruned_reference_property(seed):
    rng = np.random.default_rng(seed)
    x, y = random_measure_sets(rng, int(rng.integers(1, 4)))
    pruned_equals_reference(x, y, mm.measures.METRICS[seed % 2])


HOUSE = mm.Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
K23 = mm.Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
ORBIT = mm.SamplingConfig(mode="exact_orbit", seed=17)


def bitwise_key(mu):
    return mu._key.shape, mu._key.tobytes()


def twin_free_reference(x, y, metric="euclidean"):
    """``hausdorff_reference`` without the rows and columns of members that
    have a bitwise twin on the other side: ``lp_reference`` of a measure with
    an equal copy is 0.0, so their minimum is 0.  The other rows and columns
    are evaluated in full."""
    keys_x, keys_y = {bitwise_key(mu) for mu in x}, {bitwise_key(mu) for mu in y}
    lone_x = [mu for mu in x if bitwise_key(mu) not in keys_y]
    lone_y = [mu for mu in y if bitwise_key(mu) not in keys_x]
    return max([0.0] + [min(lp_reference(a, b, metric) for b in y) for a in lone_x]
               + [min(lp_reference(a, b, metric) for a in x) for b in lone_y])


@pytest.mark.parametrize("metric", mm.measures.METRICS)
def test_hausdorff_equals_unpruned_reference_on_wave_sized_sampled_profiles(metric):
    # 60 members a side: each direction runs several waves of rows.
    rng = np.random.default_rng(16)
    cfg = mm.SamplingConfig(count=60, seed=8, kmax=3)
    for n_a, n_b in ((6, 7), (8, 6)):
        graph_a = graph_without_isolated_vertices(rng, n_a)
        graph_b = graph_without_isolated_vertices(rng, n_b)
        for x, y in zip(mm.profile_sets(mm.adjacency(graph_a), cfg),
                        mm.profile_sets(mm.adjacency(graph_b), cfg), strict=True):
            assert min(len(x), len(y)) >= 50
            assert pruned_equals_reference(x, y, metric) > 0.0


def test_hausdorff_equals_unpruned_reference_on_house_and_k23_orbits():
    (house,), (k23,) = (mm.profile_sets(mm.adjacency(g), ORBIT) for g in (HOUSE, K23))
    assert (len(house), len(k23)) == (360, 60)
    assert pruned_equals_reference(house, k23, "euclidean") > 0.0


def test_hausdorff_on_a_relabeled_house_where_the_prejoin_hits_and_misses():
    matrix = mm.adjacency(HOUSE)
    (x,) = mm.profile_sets(matrix, ORBIT)
    (y,) = mm.profile_sets(mm.MeasuredMatrix(mm.relabel_matrix(matrix.entries, (3, 0, 4, 2, 1))),
                           ORBIT)
    keys_y = {bitwise_key(mu) for mu in y}
    twins = sum(bitwise_key(mu) in keys_y for mu in x)
    assert 0 < twins < len(x) == len(y) == 360
    twin_x, twin_y = _prejoin(x, y)
    assert len(twin_x) == len(set(twin_x.tolist())) == len(set(twin_y.tolist())) == twins
    assert all(bitwise_key(x.members[i]) == bitwise_key(y.members[j])
               for i, j in zip(twin_x, twin_y))
    assert mm.hausdorff_distance(x, y) == twin_free_reference(x, y) == 0.0
    assert mm.hausdorff_distance(y, x) == 0.0


@pytest.mark.parametrize("cells", [mm.measures._CHUNK_CELLS, 1 << 7])
@pytest.mark.parametrize("metric", mm.measures.METRICS)
def test_hausdorff_equals_unpruned_reference_on_sets_with_shared_members(metric, cells,
                                                                        monkeypatch):
    # Shared members join bitwise; nudged copies (1e-11 off) do not, and
    # reach 0.0 only through lp_distance.  The small cell budget caps the
    # waves at 2 or 3 rows and puts one pair in each kernel chunk.
    monkeypatch.setattr(mm.measures, "_CHUNK_CELLS", cells)
    rng = np.random.default_rng(17)
    for trial in range(3):
        dim = 2 + trial % 2
        x = [random_measure(rng, dim, max_atoms=6) for _ in range(40)]
        shared = [x[k] for k in rng.choice(40, 12, replace=False)]
        nudged = [mm.WeightedPointMeasure(mu.points + 1e-11, mu.weights) for mu in x[:3]]
        y = [random_measure(rng, dim, max_atoms=6) for _ in range(30)] + shared + nudged
        rng.shuffle(y)
        pruned_equals_reference(mm.MeasureSet.from_measures(x),
                                mm.MeasureSet.from_measures(y), metric)


def test_hausdorff_keeps_members_just_outside_the_dedup_tolerance_apart():
    mu = mm.WeightedPointMeasure([[0.0, 0.0], [1.0, 0.5]], [0.5, 0.5])
    nu = mm.WeightedPointMeasure(mu.points + 2 * SET_DEDUP_TOL, mu.weights)
    far = mm.dirac([3.0, 3.0])
    x, y = mm.MeasureSet.from_measures([mu, far]), mm.MeasureSet.from_measures([nu, far])
    assert pruned_equals_reference(x, y, "euclidean") == mm.lp_distance(mu, nu) > 0.0


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_exact_orbit_distance_to_a_relabeling_is_zero(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    matrix = mm.adjacency(mm.Graph(n, edges))
    relabeled = mm.MeasuredMatrix(mm.relabel_matrix(matrix.entries, rng.permutation(n)))
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=int(rng.integers(0, 1000)))
    assert mm.one_profile_distance(matrix, relabeled, cfg) == 0.0


def test_hausdorff_work_on_path4_vs_paw_is_pinned(monkeypatch):
    # Counts of one fixed exact-orbit pair: evaluation calls, the pairs they
    # carry and the pairs that reach the subset kernel.  A change to the
    # search order, the batching or the cap test moves them.  The order
    # among near-equal sketch gaps follows the BLAS build's rounding of the
    # sketch products, so another BLAS build may read other counts.
    pair_lp, lp_subsets, calls, kernel = mm.measures._pair_lp, mm.measures._lp_subsets, [], []

    def counted_pair_lp(*args):
        lp = pair_lp(*args)

        def counted(i, j, cap=None):
            calls.append(np.broadcast(i, j).size)
            return lp(i, j, cap=cap)

        return counted

    def counted_lp_subsets(dist, *args):
        kernel.append(len(dist))
        return lp_subsets(dist, *args)

    monkeypatch.setattr(mm.measures, "_pair_lp", counted_pair_lp)
    monkeypatch.setattr(mm.measures, "_lp_subsets", counted_lp_subsets)
    graphs = four_vertex_classes()
    value = mm.one_profile_distance(mm.adjacency(graphs["path4"]),
                                    mm.adjacency(graphs["paw"]), ORBIT)
    assert value > 0.0
    assert (len(calls), sum(calls), sum(kernel)) == (34, 631, 329)


@given(SEEDS)
@example(3)
@settings(max_examples=15, deadline=None)
def test_hausdorff_equals_the_reference_where_members_share_a_quantile_sketch(seed):
    # Planar members whose coordinates are permutations of two fixed value
    # lists have the same marginals, hence the same quantile sketch, as the
    # members of one exact orbit do: the candidate orders are mostly ties,
    # broken by the sketch products' rounding and the stable sort.
    rng = np.random.default_rng(seed)
    metric = METRICS[seed % 2]
    families = [rng.permutation(5)[:m] / 4.0 for m in rng.integers(3, 5, 2) for _ in range(2)]

    def members():
        picks = rng.integers(0, 2, int(rng.integers(8, 20)))
        return mm.MeasureSet.from_measures(
            mm.WeightedPointMeasure(np.column_stack((xs, rng.permutation(ys))),
                                    np.full(len(xs), 1.0 / len(xs)))
            for xs, ys in (families[2 * f:2 * f + 2] for f in picks))

    x, y = members(), members()
    counts, _, stacks = _join(_key_stacks(x), _key_stacks(y))
    sketch = _quantile_sketch(counts, stacks)
    assert len({row.tobytes() for row in sketch}) <= 2 < len(x) + len(y) - 8
    assert pruned_equals_reference(x, y, metric) == mm.hausdorff_distance(y, x, metric)


def shuffled(s: mm.MeasureSet, rng) -> mm.MeasureSet:
    return mm.MeasureSet.from_measures(s.members[k] for k in rng.permutation(len(s)))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_hausdorff_bits_ignore_member_order_and_argument_order(seed):
    # The search order changes with the members' order and the direction;
    # the value must not.  Sampled profiles k = 1..3 (seed odd) and exact
    # orbits, of graphs or Gaussian matrices of orders 3-5.
    rng = np.random.default_rng(seed)
    matrices = [mm.MeasuredMatrix(rng.normal(size=(n, n))) if seed % 4 >= 2
                else mm.adjacency(graph_without_isolated_vertices(rng, n))
                for n in rng.integers(3, 6, 2).tolist()]
    cfg = (mm.SamplingConfig(count=30, seed=seed % 1000, kmax=3) if seed % 2
           else mm.SamplingConfig(mode="exact_orbit", seed=seed % 1000))
    metric = mm.measures.METRICS[seed // 4 % 2]
    sets_a, sets_b = (mm.profile_sets(matrix, cfg) for matrix in matrices)
    for x, y in zip(sets_a, sets_b, strict=True):
        value = mm.hausdorff_distance(x, y, metric).hex()
        x_s, y_s = shuffled(x, rng), shuffled(y, rng)
        assert mm.hausdorff_distance(x_s, y_s, metric).hex() == value
        assert mm.hausdorff_distance(y_s, x_s, metric).hex() == value
        assert mm.hausdorff_distance(y, x, metric).hex() == value


def sketch_reference(mu: mm.WeightedPointMeasure) -> np.ndarray:
    """Per member: at each level q = (l + 1/2)/8 and coordinate, the sorted
    coordinate at the first position whose cumulative weight reaches q."""
    rows = []
    for q in (np.arange(8) + 0.5) / 8:
        row = []
        for c in range(mu.dim):
            mass = np.cumsum(mu.weights[np.argsort(mu.points[:, c], kind="stable")])
            row.append(np.sort(mu.points[:, c])[np.searchsorted(mass, q)])
        rows.append(row)
    return np.array(rows).ravel()


@pytest.mark.parametrize("grid", [False, True])
def test_quantile_sketch_equals_per_member_reference_in_any_atom_order(grid):
    # On the grid, coordinates tie and dyadic weights sum exactly, so the
    # order in which tied atoms are summed cannot move a quantile either.
    rng = np.random.default_rng(21)
    members = []
    for _ in range(80):
        m, dim = int(rng.integers(1, 9)), 1 + len(members) % 3
        if grid:
            # Halve a random weight until there are m: every partial sum is exact.
            points, weights = rng.integers(-2, 3, (m, dim)) / 2.0, [1.0]
            while len(weights) < m:
                k = int(rng.integers(len(weights)))
                weights[k] /= 2.0
                weights.insert(k, weights[k])
        else:
            points, weights = rng.uniform(-1.0, 1.0, (m, dim)), random_weights(rng, m)
        members.append(mm.WeightedPointMeasure(points, weights))
    for dim in (1, 2, 3):
        group = [mu for mu in members if mu.dim == dim]
        counts, _, stacks = _key_stacks(group)
        sketch = _quantile_sketch(counts, stacks)
        assert np.array_equal(sketch, [sketch_reference(mu) for mu in group])
        permuted = {m: np.stack([key[rng.permutation(m)] for key in keys])
                    for m, keys in stacks.items()}
        assert np.array_equal(_quantile_sketch(counts, permuted), sketch)


@pytest.mark.parametrize("metric", mm.measures.METRICS)
def test_batched_pairs_equal_single_pairs_across_chunks(metric):
    # One call reuses one kernel work buffer for every chunk and atom-count
    # group; 8-atom pairs go 4 to a chunk, so each group spans several.
    rng = np.random.default_rng(18)
    members = [random_measure(rng, 2, max_atoms=8) for _ in range(60)]
    members += members[:3]
    rows, cols = np.triu_indices(len(members), 1)
    batched = mm.measures._pair_lp(members, metric)(rows, cols)
    single = [lp_reference(members[i], members[j], metric) for i, j in zip(rows, cols)]
    assert np.array_equal(batched, single)


def bound_corpus(rng: np.random.Generator, kind: int, dim: int) -> list:
    """Members for the lower-bound tests: kernel-sized (1-8 atoms), Dinic-sized
    (11-13 atoms) or mixed counts, with uniform, random or merged weights and
    some one-atom members, on a random or a tied grid."""
    sizes = {0: (1, 9), 1: (SUBSET_KERNEL_MAX_ATOMS + 1, 14), 2: (1, 14)}[kind]
    members = []
    for _ in range(5 if kind == 1 else 8):
        m = 1 if rng.random() < 0.15 else int(rng.integers(*sizes))
        points = (rng.integers(-3, 4, (m, dim)) / 4.0 if rng.random() < 0.3
                  else rng.uniform(-1.0, 1.0, (m, dim)) * float(rng.choice([0.2, 1.0, 3.0])))
        if m > 1 and rng.random() < 0.3:
            points[-1] = points[0]  # merged atoms
        weights = np.full(m, 1.0 / m) if rng.random() < 0.5 else random_weights(rng, m)
        members.append(mm.WeightedPointMeasure(points, weights))
    return members


def reference_bounds(members: list, rows, cols, metric: str) -> np.ndarray:
    """``lower_bound_reference`` of the pairs ``rows``, ``cols`` of ``members``."""
    return np.array([lower_bound_reference(
        _point_distances(members[i].points, members[j].points, metric)[None],
        members[i].weights[None], members[j].weights[None])[0] for i, j in zip(rows, cols)])


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_lp_lower_bound_is_at_most_the_distance(seed):
    rng = np.random.default_rng(seed)
    metric, kind, dim = METRICS[seed % 2], seed // 2 % 3, 1 + seed // 6 % 3
    members = bound_corpus(rng, kind, dim)
    rows, cols = np.triu_indices(len(members), 1)
    bounds = reference_bounds(members, rows, cols, metric)
    assert (bounds >= 0.0).all()
    for i, j, bound in zip(rows, cols, bounds):
        mu, nu = members[i], members[j]
        assert bound <= lp_reference(mu, nu, metric) + _BOUND_SLACK
        if mu.atom_count + nu.atom_count <= 12:
            assert bound <= lp_oracle(mu, nu, metric) + _BOUND_SLACK


@pytest.mark.parametrize("metric", METRICS)
def test_lp_lower_bound_is_attained(metric):
    # Two points at distance t, and disjoint supports farther apart than 1
    # (the distance is capped at 1, the bound is the whole mass).
    t = 0.375
    far = mm.WeightedPointMeasure([[5.0, 0.0], [6.0, 1.0]], [0.25, 0.75])
    members = [mm.dirac([0.0, 0.0]), mm.dirac([t, 0.0]), far]
    bounds = reference_bounds(members, [0, 0, 1], [1, 2, 2], metric)
    assert bounds.tolist() == [t, 1.0, 1.0]
    assert [lp_reference(members[i], members[j], metric)
            for i, j in ((0, 1), (0, 2), (1, 2))] == bounds.tolist()


def test_lp_lower_bound_of_pairs_within_the_dedup_tolerance_is_zero():
    # Their nearest-atom distances are about 1e-11, yet the evaluator answers
    # them with 0.0, so a cap of 0.0 must not skip them.
    rng = np.random.default_rng(23)
    for m in (1, 4, 12):
        mu = mm.WeightedPointMeasure(rng.uniform(-1.0, 1.0, (m, 2)), random_weights(rng, m))
        nudged = mm.WeightedPointMeasure(mu.points + 1e-11, mu.weights)
        for metric in METRICS:
            lp = _pair_lp([mu, nudged], metric)
            assert lp(0, [1], cap=0.0).tolist() == [0.0] == lp(0, [1]).tolist()


@pytest.mark.parametrize("metric", METRICS)
def test_bound_slack_covers_the_rounding_of_mass_terms(metric):
    mu, nu = far_mass_pair()
    lp = _pair_lp([mu, nu], metric)
    value, bound = lp(0, [1])[0], reference_bounds([mu, nu], [0], [1], metric)[0]
    assert value == lp_reference(mu, nu, metric)
    assert value < bound <= value + _BOUND_SLACK
    # Capped at its own distance, the pair is evaluated, not skipped.
    assert lp(0, [1], cap=value).tolist() == [value]


@given(SEEDS)
@example(41606)
@settings(max_examples=40, deadline=None)
def test_capped_pairs_are_skipped_exactly_where_the_lower_bound_exceeds_the_cap(seed):
    # The sort-free test of _far_pairs against the reference bound, at thresholds
    # taken from the pairs' own distances and at random ones; then the
    # evaluator: a capped pair reads NaN iff its bound exceeds cap +
    # _BOUND_SLACK, and otherwise its uncapped value.  _far_pairs sums the far
    # masses in atom order and the bound in r order, so the two may round
    # apart where the bound meets t: seed 41606 has a mass of 0x1.8p-1
    # against 0x1.8000000000001p-1 at t = 0.75.  They must agree elsewhere.
    rng = np.random.default_rng(seed)
    metric, kind, dim = METRICS[seed % 2], seed // 2 % 3, 1 + seed // 6 % 6
    members = bound_corpus(rng, kind, dim)
    rows, cols = np.triu_indices(len(members), 1)
    for i, j in zip(rows, cols):
        mu, nu = members[i], members[j]
        dist = _point_distances(mu.points, nu.points, metric)
        t = np.concatenate((dist.ravel(), rng.uniform(0.0, 1.2, 8), [0.0]))
        batch = np.repeat(dist[None], len(t), axis=0)
        a, b = np.tile(mu.weights, (len(t), 1)), np.tile(nu.weights, (len(t), 1))
        bound = lower_bound_reference(batch, a, b)
        clear = np.abs(bound - t) > 1e-12
        assert np.array_equal(_far_pairs(batch, a, b, t)[clear], (bound > t)[clear])
    lp = _pair_lp(members, metric)
    exact, bounds = lp(rows, cols), reference_bounds(members, rows, cols, metric)
    caps = np.where(rng.random(len(rows)) < 0.5, exact, rng.uniform(0.0, 1.0, len(rows)))
    capped = lp(rows, cols, cap=caps)
    skipped = np.isnan(capped)
    assert np.array_equal(skipped, bounds > caps + _BOUND_SLACK)
    assert np.array_equal(capped[~skipped], exact[~skipped])
    assert (exact[skipped] > caps[skipped]).all()


@pytest.mark.parametrize("dim", range(1, 10))
def test_point_distances_equal_the_axis_reduction(dim):
    # Below 8 coordinates the Euclidean distance adds the squares one
    # coordinate at a time; numpy's reduction must give the same bits.
    rng = np.random.default_rng(dim)
    scale = 10.0 ** rng.integers(-3, 4, (1, 1, dim))
    a, b = rng.normal(size=(6, 5, dim)) * scale, rng.normal(size=(6, 7, dim)) * scale
    a[:, 0] = b[:, 0]  # a zero distance
    diff = a[..., :, None, :] - b[..., None, :, :]
    assert np.array_equal(_point_distances(a, b, "euclidean"), np.sqrt((diff * diff).sum(axis=-1)))
    assert np.array_equal(_point_distances(a, b, "chebyshev"), np.abs(diff).max(axis=-1))
    assert np.array_equal(_point_distances(a[2], b[2], "euclidean"),
                          np.sqrt((diff[2] * diff[2]).sum(axis=-1)))


def test_a_capped_pair_within_the_dedup_tolerance_reads_zero():
    # Nudges of 0.9e-9 on six coordinates keep the keys within SET_DEDUP_TOL
    # but put each atom 2.2e-9 (Euclidean) from its copy, above cap +
    # _BOUND_SLACK: the equality rule must answer before the cap is tested.
    rng = np.random.default_rng(29)
    mu = mm.WeightedPointMeasure(rng.uniform(-1.0, 1.0, (4, 6)), random_weights(rng, 4))
    nudged = mm.WeightedPointMeasure(mu.points + 0.9e-9, mu.weights)
    assert mm.measure_equal(mu, nudged)
    assert (np.linalg.norm(nudged.points - mu.points, axis=1) > 2e-9).all()
    for metric in METRICS:
        assert _pair_lp([mu, nudged], metric)(0, [1], cap=0.0).tolist() == [0.0]


@pytest.mark.parametrize("metric", METRICS)
def test_min_pairwise_lp_does_not_skip_a_pair_whose_bound_rounds_above_the_best(metric):
    # The pair (c, d) sits 1 ulp above the far-mass pair's distance and 1 ulp
    # below its bound, so it is evaluated first; the far-mass pair must still
    # be evaluated, as its bound exceeds the best by less than the slack.
    mu, nu = far_mass_pair()
    value = lp_reference(mu, nu, metric)
    t = float(np.nextafter(value, 1.0))
    members = [mu, nu, mm.dirac([0.0, 50.0]), mm.dirac([t, 50.0])]
    assert lp_reference(members[2], members[3], metric) == t
    assert mm.min_pairwise_lp(members, metric) == value


def lp_subsets_stable_reference(dist: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """``_lp_subsets``' closed form for one pair, subset by subset, with the
    distances from each subset sorted in a stable order."""
    best = 0.0
    for s in range(1, 1 << len(a)):
        members = [i for i in range(len(a)) if s >> i & 1]
        near = dist[members].min(axis=0)
        order = np.argsort(near, kind="stable")
        mass = sum(a[members])
        covered = np.cumsum(b[order])
        best = max(best, min(mass, np.maximum(near[order], mass - covered).min()))
    return min(best, 1.0)


@pytest.mark.parametrize("m1, m2, seed", [(5, 8, 33), (8, 8, 38), (10, 10, 7), (3, 40, 0)])
def test_subset_kernel_on_tied_grid_distances_matches_a_stable_order_reference(m1, m2, seed):
    # Unequal second-side weights are summed in a stable sort order of the
    # distances, so on tied distances the kernel sums them in this
    # reference's order, and the bits are equal on any CPU.  With numpy's
    # default sort, the first three draws each held a pair that differed by
    # 1-2 ulps on an AVX-512 x86 host.
    rng = np.random.default_rng(seed)
    dist, a, b = [], [], []
    for _ in range(4):
        x, y = rng.integers(0, 3, (m1, 2)) / 2.0, rng.integers(0, 3, (m2, 2)) / 2.0
        dist.append(_point_distances(x, y, "chebyshev"))
        a.append(random_weights(rng, m1))
        b.append(random_weights(rng, m2))
    values = _lp_subsets(np.array(dist), np.array(a), np.array(b))
    for value, d, wa, wb in zip(values, dist, a, b):
        assert value == lp_subsets_stable_reference(d, wa, wb)


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_uniform_kernel_path_equals_the_argsort_path(seed):
    # A batch whose second sides all have equal weights sorts the distances
    # alone; one pair with unequal weights sends the whole batch through the
    # stable argsort and the gathered prefix sums.  The uniform pairs must
    # read the same bits in both batches, and both paths the reference's.
    # Half the draws sit on a grid of step 1/2, where distances tie.
    rng = np.random.default_rng(seed)
    metric, dim = METRICS[seed % 2], 1 + seed // 2 % 3
    m1, m2 = (int(k) for k in rng.integers(1, 11, 2))
    pairs = int(rng.integers(1, 5))
    grid = rng.random() < 0.5

    def points(m):
        if grid:
            return rng.integers(-2, 3, (pairs + 1, m, dim)) / 2.0
        return rng.uniform(-1.0, 1.0, (pairs + 1, m, dim))

    dist = _point_distances(points(m1), points(m2), metric)
    a = np.array([random_weights(rng, m1) for _ in range(pairs + 1)])
    b = np.full((pairs + 1, m2), 1.0 / m2)
    uniform = _lp_subsets(dist[:pairs], a[:pairs], b[:pairs])
    b[pairs] = random_weights(rng, m2)
    mixed = _lp_subsets(dist, a, b)
    assert np.array_equal(uniform, mixed[:pairs])
    for value, d, wa, wb in zip(mixed, dist, a, b):
        assert value == lp_subsets_stable_reference(d, wa, wb)


@pytest.mark.parametrize("call", [
    lambda mu, x: mm.lp_distance(mu, mu, "bogus"),
    lambda mu, x: mm.lp_feasible(mu, mu, 0.5, "bogus"),
    lambda mu, x: mm.hausdorff_distance(x, x, "bogus"),
    lambda mu, x: mm.min_pairwise_lp([mu, mu], "bogus"),
], ids=["lp_distance", "lp_feasible", "hausdorff_distance", "min_pairwise_lp"])
def test_unknown_metric_raises_on_equal_inputs(call):
    mu = mm.WeightedPointMeasure([[0.0, 0.0], [1.0, 0.5]], [0.5, 0.5])
    with pytest.raises(ValueError, match="unknown metric"):
        call(mu, mm.MeasureSet.from_measures([mu]))


def test_unknown_metric_raises_in_a_profile_distance():
    matrix = mm.adjacency(mm.cycle_graph(4))
    relabeled = mm.MeasuredMatrix(mm.relabel_matrix(matrix.entries, (1, 3, 0, 2)))
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=17, metric="bogus")
    with pytest.raises(ValueError, match="unknown metric"):
        mm.one_profile_distance(matrix, relabeled, cfg)


# ---------------------------------------------------------------------------
# MeasureSet semantics
# ---------------------------------------------------------------------------

def test_measure_set_dedup():
    mu = mm.WeightedPointMeasure([[1.0, 0.0], [0.0, 3.0]], [HALF, HALF])
    wiggled = mm.WeightedPointMeasure([[1.0 + 1e-11, 0.0], [0.0, 3.0]], [HALF, HALF])
    distinct = mm.dirac([1.0, 0.0])
    s = mm.MeasureSet.from_measures([mu, wiggled, distinct, mu])
    assert len(s) == 2
    assert s.contains(mu) and s.contains(distinct)


def test_measure_set_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        mm.MeasureSet.from_measures([mm.dirac([0.0]), mm.dirac([0.0, 0.0])])


def test_measure_set_rejects_mixed_dimensions_with_equal_key_bytes():
    planar = mm.WeightedPointMeasure([[0.1, 0.25], [0.25, 0.9]], [0.5, 0.5])
    line = mm.WeightedPointMeasure([0.1, 0.5, 0.9], [0.25, 0.25, 0.5])
    assert planar._key.tobytes() == line._key.tobytes()
    for pair in ([planar, line], [line, planar]):
        with pytest.raises(ValueError, match="share a dimension"):
            mm.MeasureSet.from_measures(pair)


def test_measure_set_greedy_rule_depends_on_order():
    a, b, c = (mm.dirac([x]) for x in (0.0, 0.6e-9, 1.2e-9))
    kept = [mu.points[0, 0] for mu in mm.MeasureSet.from_measures([a, b, c])]
    assert kept == [0.0, 1.2e-9]
    kept = [mu.points[0, 0] for mu in mm.MeasureSet.from_measures([b, a, c])]
    assert kept == [0.6e-9]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_measure_set_matches_greedy_reference(seed):
    # Bitwise repeats (the same object or a rebuilt copy), near-duplicates at
    # half the tolerance and one to three atoms per measure.
    rng = np.random.default_rng(seed)
    base = [random_measure(rng, max_atoms=3) for _ in range(int(rng.integers(1, 10)))]
    measures = []
    for _ in range(int(rng.integers(1, 40))):
        mu = base[int(rng.integers(len(base)))]
        kind = int(rng.integers(3))
        if kind == 1:
            mu = mm.WeightedPointMeasure(mu.points, mu.weights)
        elif kind == 2:
            shift = 0.5 * SET_DEDUP_TOL * rng.choice([-1.0, 1.0], mu.points.shape)
            mu = mm.WeightedPointMeasure(mu.points + shift, mu.weights)
        measures.append(mu)
    expected = measure_set_reference(measures)
    members = mm.MeasureSet.from_measures(iter(measures)).members
    assert len(members) == len(expected)
    assert all(mu is nu for mu, nu in zip(members, expected))


TOL = SET_DEDUP_TOL
BIG = 1e6
# Entries whose differences sit on the tolerance: exactly tol apart (0 and
# tol), one ulp beyond it, two tol apart (chains), and near 1e6, where the
# key's magnitude term of the window matters (an ulp there is 1.2e-10).
EDGE_VALUES = [0.0, TOL, -TOL, 2 * TOL, float(np.nextafter(TOL, 1.0)), 0.5 * TOL, 0.5,
               BIG, float(np.nextafter(BIG, 2 * BIG)), BIG + 8 * np.spacing(BIG),
               BIG + 9 * np.spacing(BIG), BIG + 1e-9]


@given(st.lists(st.tuples(st.integers(1, 2), st.lists(st.sampled_from(EDGE_VALUES),
                                                      min_size=6, max_size=6)),
                min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_windowed_dedup_matches_the_greedy_reference(rows):
    # Bitwise repeats come from the small value pool; keys of one or two atoms.
    keys = [np.array(values[:3 * m]).reshape(m, 3) for m, values in rows]
    assert _dedup(_stack_keys(keys)).tolist() == dedup_reference(keys, TOL)


@given(st.lists(st.tuples(st.integers(1, 3), st.lists(st.sampled_from(EDGE_VALUES + [-0.0]),
                                                      min_size=9, max_size=9)),
                min_size=1, max_size=40), st.integers(0, 40))
@example([(1, [0.0] * 9), (2, [0.0] * 9), (1, [-0.0] * 9), (2, [-0.0, 0.0] * 4 + [0.0])], 1)
@settings(max_examples=300, deadline=None)
def test_dedup_of_joined_tables_matches_the_greedy_reference(rows, cut):
    # Keys of one to three atoms in one table, 0.0 and -0.0 (equal values,
    # other bits), the greedy rule across two joined tables, an empty stack.
    keys = [np.array(values[:3 * m]).reshape(m, 3) for m, values in rows]
    table = _join(_stack_keys(keys[:cut]), _stack_keys(keys[cut:]))
    table[2][4] = np.empty((0, 4, 3))
    assert _dedup(table).tolist() == dedup_reference(keys, TOL)


@pytest.mark.parametrize("base", [0.0, BIG])
def test_windowed_dedup_chains_keep_by_insertion_order(base):
    # a, b, c with b within tol of a and of c, c beyond tol of a.
    step = TOL if base == 0.0 else 8 * np.spacing(BIG)
    a, b, c = (np.array([[base + i * step, 1.0]]) for i in range(3))
    for keys, kept in (([a, b, c], [0, 2]), ([b, a, c], [0]), ([c, b, a], [0, 2]),
                       ([a, c, b], [0, 1]), ([b, b, a, c], [0])):
        assert _dedup(_stack_keys(keys)).tolist() == dedup_reference(keys, TOL) == kept


def test_windowed_dedup_window_covers_projection_rounding():
    # Near 1e6, keys 8 ulps (9.3e-10) apart in every entry are within tol, and
    # the rounding of their projections can push them apart by more than tol.
    rng = np.random.default_rng(3)
    firsts = BIG + rng.integers(-1000, 1000, (200, 2, 3)) * np.spacing(BIG)
    keys = [key for a in firsts for key in (a, a + 8 * np.spacing(BIG))]
    assert (_dedup(_stack_keys(keys)).tolist() == dedup_reference(keys, TOL)
            == list(range(0, 400, 2)))


def test_windowed_dedup_with_overflowing_projections():
    # Keys at the largest float, whose projections overflow to inf: every key
    # is then compared with every earlier one.
    top = np.finfo(float).max
    below, negated = np.full((2, 3), top), np.full((2, 3), top)
    below[1, 2], negated[0, 0] = np.nextafter(top, 0.0), -top
    keys = [np.full((2, 3), top), below, np.full((2, 3), top), negated]
    with np.errstate(over="ignore"):
        assert _dedup(_stack_keys(keys)).tolist() == dedup_reference(keys, TOL) == [0, 1, 3]


def _same_members(built, expected) -> bool:
    return ([mu._key.tobytes() for mu in built] == [mu._key.tobytes() for mu in expected]
            and [mu.mean.tobytes() for mu in built] == [mu.mean.tobytes() for mu in expected])


@pytest.mark.parametrize("blocks", [1, 3, 60])
def test_from_arrays_equals_from_measures_of_the_rows(blocks):
    rng = np.random.default_rng(5)
    points = rng.integers(-2, 3, (60, 4, 2)) / 3.0
    points[::7, 1] = points[::7, 0] + 1e-13  # rows through the merge loop
    weights = random_weights(rng, 4)
    batch = mm.MeasureSet.from_arrays(np.array_split(points, blocks), weights)
    single = mm.MeasureSet.from_measures(mm.WeightedPointMeasure(p, weights) for p in points)
    assert any(mu.atom_count < 4 for mu in batch)
    assert _same_members(batch, single)


def _same_member_arrays(built, expected) -> bool:
    """Keys, points, weights and means agree bit for bit, member by member."""
    def arrays(s):
        return [(mu._key.tobytes(), mu.points.tobytes(), mu.weights.tobytes(), mu.mean.tobytes())
                for mu in s]
    return arrays(built) == arrays(expected)


def test_lazily_built_members_equal_from_measures_on_the_same_rows():
    # Merged rows put members of 2, 3 and 4 atoms in one set: one key stack
    # per atom count.  The set counts its members without building them.
    rng = np.random.default_rng(31)
    points = rng.integers(-2, 3, (90, 4, 2)) / 3.0
    points[::5, 1] = points[::5, 0] + 1e-13
    points[::7, 3] = points[::7, 2] + 1e-13
    weights = random_weights(rng, 4)
    built = mm.MeasureSet.from_arrays(np.array_split(points, 4), weights)
    single = mm.MeasureSet.from_measures(mm.WeightedPointMeasure(p, weights) for p in points)
    counts, slot, stacks = _key_stacks(built)
    assert len(built) == len(single) and built._members is None
    assert sorted(stacks) == [2, 3, 4]
    assert [len(mu._key) for mu in single] == counts.tolist()
    assert _same_member_arrays(built, single)
    assert all(mu._key.base is stacks[len(mu._key)] for mu in built.members)
    assert not any(keys.flags.writeable for keys in stacks.values())


def test_lazily_built_members_of_a_split_order6_profile_equal_from_measures():
    # 8 orbits of 720 rows of C6 arrive in two stacks (5,040 and 720 rows);
    # the last orbit, a copy of the second 1e-10 off, is dropped across them.
    matrix = mm.adjacency(mm.cycle_graph(6))
    family = mm.orbit_base_family(6, 17)
    base = family + [family[1] + 1e-10]
    built = mm.exact_orbit_profile(matrix, base).measures
    sigmas = mm.matrices.permutations_preserving(matrix.p)
    expected = mm.MeasureSet.from_measures(
        mm.generate_measure(matrix, np.sort(u)[sigma]) for u in base for sigma in sigmas)
    assert len(built) == len(expected) and built._members is None
    assert _same_member_arrays(built, expected)


def test_canonical_rank_is_the_atom_count_then_key_bytes_order():
    # Mixed atom counts, bitwise repeats (ties go in member order), and the
    # stacks of two sets joined per atom count, against a stack of their members.
    rng = np.random.default_rng(37)
    members = [random_measure(rng, 2, max_atoms=5) for _ in range(40)]
    members += [members[3], members[0], mm.WeightedPointMeasure(members[7].points,
                                                                members[7].weights)]

    def reference(group):
        return np.argsort(sorted(range(len(group)), key=lambda k: (
            group[k].atom_count, group[k]._key.tobytes())))

    assert np.array_equal(_canonical_rank(*_key_stacks(members)), reference(members))
    x = mm.MeasureSet.from_arrays([rng.integers(-1, 2, (30, 3, 2)) / 2.0], np.full(3, 1 / 3))
    y = mm.MeasureSet.from_measures(members)
    joined = _join(_key_stacks(x), _key_stacks(y))
    listed = _key_stacks(list(x) + list(y))
    assert all(np.array_equal(u, v) for u, v in zip(joined[:2], listed[:2]))
    assert joined[2].keys() == listed[2].keys()
    assert all(np.array_equal(joined[2][m], listed[2][m]) for m in listed[2])
    assert np.array_equal(_canonical_rank(*joined), reference(list(x) + list(y)))


def test_from_arrays_dedups_across_stacks_by_insertion_order():
    # b lies within tol of a and of c, c beyond tol of a: the greedy rule over
    # all rows keeps a and c, where deduplicating each stack on its own and
    # then the survivors would keep a alone.
    a, b, c = ([[i * SET_DEDUP_TOL]] for i in range(3))
    built = mm.MeasureSet.from_arrays([np.array([a]), np.array([b, c])], [1.0])
    single = mm.MeasureSet.from_measures(mm.WeightedPointMeasure(x, [1.0]) for x in (a, b, c))
    assert len(built) == 2 and _same_members(built, single)


def _error(build):
    with pytest.raises(ValueError) as caught:
        build()
    return str(caught.value)


@pytest.mark.parametrize("fault", ["nan", "inf", "inf weight", "zero weight",
                                   "negative weight", "weight sum", "no rows", "no atoms",
                                   "no coordinates"])
def test_from_arrays_raises_what_the_measures_raise(fault):
    points, weights = np.zeros((3, 2, 2)), np.full(2, 0.5)
    points[:, 1] = 1.0
    if fault == "nan":
        points[1, 0, 1] = np.nan
    elif fault == "inf":
        points[2, 1, 0] = -np.inf
    elif fault == "inf weight":
        weights = np.array([np.inf, 0.5])
    elif fault == "zero weight":
        weights = np.array([0.0, 1.0])
    elif fault == "negative weight":
        weights = np.array([-0.5, 1.5])
    elif fault == "weight sum":
        weights = np.array([0.5, 0.5 + 1e-9])
    elif fault == "no rows":
        points = points[:0]
    elif fault == "no atoms":
        points, weights = points[:, :0], weights[:0]
    else:
        points = points[..., :0]
    single = _error(lambda: mm.MeasureSet.from_measures(
        [mm.WeightedPointMeasure(p, weights) for p in points]))
    assert _error(lambda: mm.MeasureSet.from_arrays([points], weights)) == single


def test_from_arrays_rejects_mismatched_shapes():
    points = np.zeros((3, 2, 2))
    with pytest.raises(ValueError, match="stack"):
        mm.MeasureSet.from_arrays([points], np.full((3, 2), 0.5))
    with pytest.raises(ValueError, match="stack"):
        mm.MeasureSet.from_arrays([points[0]], np.full(2, 0.5))
    with pytest.raises(ValueError, match="of one d"):
        mm.MeasureSet.from_arrays([points, np.zeros((1, 2, 3))], np.full(2, 0.5))


def test_measure_sets_equal():
    rng = np.random.default_rng(11)
    members = [random_measure(rng) for _ in range(4)]
    x = mm.MeasureSet.from_measures(members)
    y = mm.MeasureSet.from_measures(reversed(members))
    assert mm.measure_sets_equal(x, y)
    z = mm.MeasureSet.from_measures(members[:3])
    assert not mm.measure_sets_equal(x, z)
    # c and d each lie within the tolerance of a, so every member of {c, d}
    # has a partner in {a, b}; b, far away, has none in {c, d}.
    a, b = members[0], mm.dirac([7.0, 7.0])
    c, d = (mm.WeightedPointMeasure(a.points + s * 0.9 * SET_DEDUP_TOL, a.weights)
            for s in (1.0, -1.0))
    x, y = mm.MeasureSet.from_measures([a, b]), mm.MeasureSet.from_measures([c, d])
    assert len(y) == 2 and all(x.contains(mu) for mu in y)
    assert not mm.measure_sets_equal(x, y)
    assert not mm.measure_sets_equal(y, x)


def test_contains_rejects_dimension_mismatch():
    planar = mm.MeasureSet.from_measures([mm.dirac([0.0, 0.0])])
    one_atom = mm.dirac([0.0, 0.0, 0.0])
    two_atoms = mm.WeightedPointMeasure([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [HALF, HALF])
    for mu in (one_atom, two_atoms):
        with pytest.raises(ValueError, match="dimension mismatch"):
            planar.contains(mu)


def test_measure_sets_equal_rejects_dimension_mismatch():
    planar = mm.MeasureSet.from_measures([mm.dirac([0.0, 0.0])])
    for size in (1, 2):
        solid = mm.MeasureSet.from_measures(mm.dirac([float(x), 0.0, 0.0])
                                            for x in range(size))
        with pytest.raises(ValueError, match="dimension mismatch"):
            mm.measure_sets_equal(planar, solid)


def test_sets_take_no_tolerance():
    # Sets are built, searched and compared at SET_DEDUP_TOL only.
    mu = mm.dirac([0.0])
    x = mm.MeasureSet.from_measures([mu])
    for call in (lambda: mm.MeasureSet.from_measures([mu], 1e-12),
                 lambda: mm.MeasureSet.from_measures([mu], tol=1e-12),
                 lambda: x.contains(mu, 1e-12),
                 lambda: mm.measure_sets_equal(x, x, 1e-6),
                 lambda: _dedup(_key_stacks([mu]), TOL)):
        with pytest.raises(TypeError):
            call()


NUDGES = [0.0, 0.4, -0.4, 0.9, -0.9, 1.1, -1.1, 3.0]


def _nudged(rng, mu: mm.WeightedPointMeasure, nudges=NUDGES) -> mm.WeightedPointMeasure:
    shift = SET_DEDUP_TOL * rng.choice(nudges, mu.points.shape)
    return mm.WeightedPointMeasure(mu.points + shift, mu.weights)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.sampled_from(METRICS))
@settings(max_examples=150, deadline=None)
def test_set_identity_agrees_with_lp_zeros_on_near_duplicate_families(seed, metric):
    # Members nudged off one to three bases by 0, 0.4, 0.9, 1.1 and 3
    # tolerances per coordinate.  Half the ys are copies of x's members in
    # reverse order, nudged by at most 0.9 tolerances, so that some sets are
    # equal; copies of members a little over the tolerance apart may merge.
    rng = np.random.default_rng(seed)
    bases = [random_measure(rng, max_atoms=3) for _ in range(int(rng.integers(1, 4)))]

    def family():
        return [_nudged(rng, bases[int(rng.integers(len(bases)))])
                for _ in range(int(rng.integers(1, 9)))]
    x = mm.MeasureSet.from_measures(family())
    copies = [_nudged(rng, mu, NUDGES[:5]) for mu in reversed(x.members)]
    y = mm.MeasureSet.from_measures(copies if rng.integers(2) else family())
    for s in (x, y):
        if len(s) >= 2:
            assert mm.min_pairwise_lp(s, metric) > 0.0
    assert mm.measure_sets_equal(x, y) == (mm.hausdorff_distance(x, y, metric) == 0.0
                                           and len(x) == len(y))


# ---------------------------------------------------------------------------
# pushforward bound
# ---------------------------------------------------------------------------

def test_pushforward_bound_zero_for_equal_vectors():
    x = [[0.5, -0.5], [0.1, 0.2]]
    assert mm.pushforward_distance_bound(x, x, [0.5, 0.5]) == 0.0


def test_pushforward_bound_unit_case():
    assert mm.pushforward_distance_bound([[0.0]], [[1.0]], [1.0]) == 1.0


def test_pushforward_bound_formula():
    bound = mm.pushforward_distance_bound([[0.0, 0.0]], [[0.25, 0.25]], [1.0])
    assert bound == pytest.approx(0.5 * 2 ** 0.75, abs=1e-15)


def test_pushforward_bound_dominates_lp():
    rng = np.random.default_rng(12)
    for _ in range(150):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        w = random_weights(rng, m)
        x = rng.uniform(-1, 1, (m, k))
        y = x + rng.uniform(-0.5, 0.5, (m, k))
        lhs = mm.lp_distance(mm.WeightedPointMeasure(x, w),
                             mm.WeightedPointMeasure(y, w))
        assert lhs <= mm.pushforward_distance_bound(x, y, w) + 1e-12


def test_pushforward_bound_length_mismatch():
    with pytest.raises(ValueError):
        mm.pushforward_distance_bound([[0.0]], [[0.0], [1.0]], [1.0])
