import itertools

import numpy as np
import pytest

import matmeasure as mm
from matmeasure.measures import (_BOUND_SLACK, MASS_SLACK, METRICS, _far_pairs, _key_stacks,
                                 _pair_lp, _point_distances, _same_position_far,
                                 _shared_column)
from matmeasure.reconstruction import (KERNEL_RESIDUAL_TOL, DegenerateSupportError,
                                      _commutator_stack, _near, permutation_commutator)
from conftest import (EXAMPLE_A, EXAMPLE_B, far_mass_pair, four_vertex_classes,
                      lower_bound_reference, lp_reference, random_measure, random_weights)


# ---------------------------------------------------------------------------
# ordered supports
# ---------------------------------------------------------------------------

def test_ordered_support_of_worked_example():
    mu = mm.generate_measure(mm.MeasuredMatrix(EXAMPLE_A), [1.0, 3.0, 2.0])
    support = mm.ordered_support(mu)
    assert support.xs.tolist() == [1.0, 2.0, 3.0]
    assert support.ys.tolist() == [5.0, 4.0, 3.0]
    assert np.allclose(support.weights, 1 / 3)


def test_ordered_support_requires_distinct_first_coordinates():
    mu = mm.WeightedPointMeasure([[1.0, 0.0], [1.0, 2.0]], [0.5, 0.5])
    with pytest.raises(DegenerateSupportError):
        mm.ordered_support(mu)


def test_support_measure_round_trip():
    mu = mm.generate_measure(mm.MeasuredMatrix(EXAMPLE_B), [0.7, -0.2])
    again = mm.ordered_support(mu).measure
    assert mm.measure_equal(mu, again, 1e-15)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

def test_worked_irreducible_and_reducible_vectors():
    m = mm.MeasuredMatrix(EXAMPLE_B)
    assert mm.is_irreducible(m, [1.0, 0.0])
    assert not mm.is_irreducible(m, [-1.0, 1.0])


@pytest.mark.parametrize("n", range(1, 7))
def test_commutator_stack_equals_the_per_permutation_stack(n):
    # The reference builds PA - AP one permutation at a time, in the order of
    # itertools.permutations, and keeps those above the residual tolerance.
    rng = np.random.default_rng(70 + n)
    for entries in (rng.integers(0, 2, (n, n)).astype(float), rng.standard_normal((n, n)),
                    2.5 * np.eye(n)):
        matrix = mm.MeasuredMatrix(entries)
        expected = [c for c in (permutation_commutator(matrix.entries, sigma)
                                for sigma in itertools.permutations(range(n)))
                    if np.max(np.abs(c)) > KERNEL_RESIDUAL_TOL]
        stack = _commutator_stack(matrix)
        assert stack.shape == (len(expected), n, n)
        assert stack.tobytes() == b"".join(c.tobytes() for c in expected)


def test_everything_is_irreducible_for_scalar_matrices():
    m = mm.MeasuredMatrix(np.eye(4))
    rng = np.random.default_rng(0)
    assert mm.is_irreducible(m, rng.uniform(-1, 1, 4))


def test_find_irreducible_vector_verifies_its_output():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4):
        m = mm.MeasuredMatrix(rng.standard_normal((n, n)))
        v = mm.find_irreducible_vector(m, rng_seed=7)
        assert mm.is_irreducible(m, v)
        assert np.min(np.diff(np.sort(v))) > 0


def test_kernel_avoidance_two_stage_construction():
    # A random draw avoids any finite family of nonzero kernels; verify.
    rng = np.random.default_rng(42)
    kernels = [rng.standard_normal((4, 4)) for _ in range(20)]
    for _ in range(50):
        v = rng.uniform(-1, 1, 4)
        if all(np.linalg.norm(k @ v) > 1e-9 * np.linalg.norm(v) for k in kernels):
            break
    else:
        pytest.fail("no kernel-avoiding vector found in 50 draws")


# ---------------------------------------------------------------------------
# switching equivalence
# ---------------------------------------------------------------------------

def test_switching_witness_identity():
    witness = mm.switching_witness(EXAMPLE_A, EXAMPLE_A)
    assert witness.tolist() == [0, 1, 2]


def test_switching_witness_for_relabeled_cycle():
    c4 = mm.adjacency(mm.cycle_graph(4)).entries
    sigma = np.array([2, 3, 0, 1])
    relabeled = mm.relabel_matrix(c4, sigma)
    witness = mm.switching_witness(c4, relabeled)
    assert witness is not None
    assert np.array_equal(c4, mm.relabel_matrix(relabeled, witness))


def test_switching_witness_distinguishes_cycle_from_path():
    c4 = mm.adjacency(mm.cycle_graph(4)).entries
    p4 = mm.adjacency(mm.path_graph(4)).entries
    assert mm.switching_witness(c4, p4) is None


def test_switching_witness_random_relabelings():
    rng = np.random.default_rng(43)
    for n in (3, 5, 7):
        a = rng.standard_normal((n, n))
        sigma = rng.permutation(n)
        b = mm.relabel_matrix(a, sigma)
        witness = mm.switching_witness(a, b)
        assert witness is not None
        assert np.allclose(a, mm.relabel_matrix(b, witness), atol=1e-9)


def test_switching_witness_shape_mismatch():
    with pytest.raises(ValueError):
        mm.switching_witness(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="limited to order 8; found 9"):
        mm.switching_witness(np.eye(9), np.eye(9))


def first_witness_reference(a, b, tol=1e-9):
    """The first sigma in ``itertools.permutations`` order with
    |B[sigma(i), sigma(j)] - A[i, j]| <= tol in every entry, or None."""
    a, b = a.tolist(), b.tolist()
    return next((list(sigma) for sigma in itertools.permutations(range(len(a)))
                 if all(abs(b[si][sj] - a[i][j]) <= tol
                        for i, si in enumerate(sigma) for j, sj in enumerate(sigma))), None)


def test_switching_witness_is_the_first_valid_permutation():
    # 0/1, Gaussian, symmetric 0/1 and rounded Gaussian matrices of orders
    # 0-7, each against a relabeling, a relabeling with one entry moved, and
    # a relabeling with noise up to 2e-9, on both sides of the tolerance.
    rng = np.random.default_rng(2025)

    def symmetric(n):
        upper = np.triu(rng.integers(0, 2, (n, n)), 1).astype(float)
        return upper + upper.T

    kinds = [lambda n: rng.integers(0, 2, (n, n)).astype(float),
             lambda n: rng.standard_normal((n, n)),
             symmetric,
             lambda n: np.round(rng.standard_normal((n, n)), 1)]
    pairs, found = 0, [0, 0, 0]
    for n in range(8):
        for kind in kinds:
            for _ in range(21):
                a = kind(n)
                b = mm.relabel_matrix(a, rng.permutation(n))
                moved, noisy = b.copy(), b + rng.choice([-0.5e-9, 0.0, 0.5e-9], (n, n))
                if n:
                    i, j = rng.integers(0, n, 2)
                    moved[i, j] += 1.0
                    noisy[i, j] += rng.choice([-1.5e-9, 1.5e-9])
                for k, other in enumerate((b, moved, noisy)):
                    expected = first_witness_reference(a, other)
                    witness = mm.switching_witness(a, other)
                    assert (witness if witness is None else witness.tolist()) == expected
                    pairs, found[k] = pairs + 1, found[k] + (expected is not None)
    # Every relabeling has a witness; some noisy copies stay within the tolerance.
    assert pairs == 2016 and found[0] == 672 and 0 < found[2] < 672


# ---------------------------------------------------------------------------
# orbit maximization and epsilon choice
# ---------------------------------------------------------------------------

def test_max_orbit_vector_on_worked_example():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    v = mm.max_orbit_vector(m, trials=8, rng_seed=0)
    assert len(mm.orbit_measures(m, v)) == 3


def test_max_orbit_vector_identity_matrix():
    m = mm.MeasuredMatrix(np.eye(3))
    v = mm.max_orbit_vector(m, trials=4, rng_seed=0)
    assert len(mm.orbit_measures(m, v)) == 1


def test_max_orbit_vector_order_one():
    v = mm.max_orbit_vector(mm.MeasuredMatrix([[2.0]]), trials=3, rng_seed=0)
    assert v.shape == (1,)


def test_max_orbit_vector_generic_matrix_fills_the_orbit():
    rng = np.random.default_rng(44)
    m = mm.MeasuredMatrix(rng.standard_normal((3, 3)))
    v = mm.max_orbit_vector(m, trials=8, rng_seed=1)
    assert len(mm.orbit_measures(m, v)) == 6


def test_generic_orbit_size_is_factorial_over_commutant():
    # Worked example: commutant of order 2 inside S_3.
    m = mm.MeasuredMatrix(EXAMPLE_A)
    v = mm.max_orbit_vector(m, trials=8, rng_seed=2)
    assert len(mm.orbit_measures(m, v)) == 6 // 2


def test_choose_epsilon_ordering_condition_alone():
    eps = mm.choose_epsilon(mm.MeasuredMatrix(np.eye(3)), [1.0, 2.0, 3.0])
    assert eps == pytest.approx(np.sqrt(32.0), rel=1e-12)


def test_choose_epsilon_combines_both_conditions():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    v = np.array([3.0, 1.0, 2.0])
    orbit = mm.orbit_measures(m, v)
    separation = mm.min_pairwise_lp(orbit)
    k = max(1.0, mm.norm_inf_to_1(m).value)
    expected = min(separation / 2.0, np.sqrt(32.0 * k * 1.0))
    eps = mm.choose_epsilon(m, v)
    assert eps == pytest.approx(expected, rel=1e-12)
    # Regression baseline for the worked example.
    assert eps == pytest.approx(1.0 / 6.0, abs=1e-12)


def all_pairs_minimum(members, metric="euclidean"):
    return min(lp_reference(a, b, metric) for a, b in itertools.combinations(members, 2))


def seed_46_orbit():
    """120 five-atom measures of a seeded 0/1 matrix: 7,140 pairs."""
    rng = np.random.default_rng(46)
    matrix = mm.MeasuredMatrix(rng.integers(0, 2, (5, 5)).astype(float))
    return list(mm.orbit_measures(matrix, rng.uniform(-1.0, 1.0, 5)))


def test_min_pairwise_lp_equals_lp_distance_minimum_on_an_orbit():
    # 7,140 pairs, evaluated in several chunks.
    orbit = seed_46_orbit()
    assert len(orbit) == 120
    assert mm.min_pairwise_lp(orbit) == all_pairs_minimum(orbit)


def test_min_pairwise_lp_equals_lp_distance_minimum_on_mixed_counts():
    rng = np.random.default_rng(47)
    for trial in range(12):
        dim = 2 + trial % 2
        metric = mm.measures.METRICS[trial % 2]
        members = []
        for _ in range(int(rng.integers(2, 30))):
            m = int(rng.integers(1, 9))
            points = rng.uniform(-1.0, 1.0, (m, dim)) * float(rng.choice([0.2, 1.0]))
            if m > 1 and rng.random() < 0.2:
                points[-1] = points[0]  # merged atoms
            weights = np.full(m, 1.0 / m) if rng.random() < 0.5 else random_weights(rng, m)
            members.append(mm.WeightedPointMeasure(points, weights))
        if trial % 4 == 0:
            # Two members above the kernel crossover take the Dinic path.
            big = mm.measures.SUBSET_KERNEL_MAX_ATOMS + 1
            members += [mm.WeightedPointMeasure(rng.uniform(-1.0, 1.0, (big, dim)),
                                                np.full(big, 1.0 / big)) for _ in range(2)]
        rng.shuffle(members)
        value = mm.min_pairwise_lp(members, metric)
        assert value == all_pairs_minimum(members, metric)
        assert value > 0.0
    # The unique minimum pair comes last in triu_indices order, in the last
    # block of the search, which is partial: 36 pairs, blocks of 1-16 and 5.
    members = [mm.WeightedPointMeasure(rng.uniform(-1.0, 1.0, (m, 2)), random_weights(rng, m))
               for m in (1, 3, 2, 5, 8, 4, 6, 3)]
    members.append(mm.WeightedPointMeasure(members[-1].points + 1e-3, members[-1].weights))
    for metric in METRICS:
        values = [lp_reference(a, b, metric) for a, b in itertools.combinations(members, 2)]
        assert values.index(min(values)) == len(values) - 1 == 35
        assert values.count(min(values)) == 1
        assert mm.min_pairwise_lp(members, metric) == values[-1]


def test_min_pairwise_lp_duplicated_member_is_zero():
    rng = np.random.default_rng(48)
    members = [random_measure(rng, max_atoms=6) for _ in range(8)]
    exact = members + [members[3]]
    nudged = members + [mm.WeightedPointMeasure(members[5].points + 1e-11,
                                                members[5].weights)]
    for collection in (exact, nudged):
        assert mm.min_pairwise_lp(collection) == 0.0 == all_pairs_minimum(collection)


def seeded_orbit(n, entries, seed):
    """The orbit of a seeded vector under a seeded 0/1, Gaussian or Gaussian
    circulant matrix (whose cyclic symmetry shrinks an order-6 orbit to 120).
    "close" is a 0/1 orbit of a vector with two entries 0.03 apart; "two"
    holds the members of two 0/1 orbits, whose first columns differ."""
    rng = np.random.default_rng(seed)
    if entries in ("binary", "close", "two"):
        a = rng.integers(0, 2, (n, n)).astype(float)
    elif entries == "gaussian":
        a = rng.standard_normal((n, n))
    else:
        row = rng.standard_normal(n)
        a = np.array([np.roll(row, i) for i in range(n)])
    x = rng.uniform(-1.0, 1.0, n)
    if entries == "close":
        x[1] = x[0] + 0.03
    members = list(mm.orbit_measures(mm.MeasuredMatrix(a), x))
    if entries == "two":
        members += mm.orbit_measures(mm.MeasuredMatrix(a), rng.uniform(-1.0, 1.0, n)).members
    return members


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n, entries, seed, size", [
    (3, "binary", 1, 6), (3, "gaussian", 2, 6), (4, "binary", 3, 24), (4, "gaussian", 4, 24),
    (5, "binary", 5, 120), (5, "gaussian", 6, 120), (6, "binary", 7, 360),
    (6, "circulant", 8, 120), (5, "close", 14, 120), (5, "two", 16, 240)])
def test_pruned_min_pairwise_lp_equals_the_all_pairs_minimum(metric, n, entries, seed, size):
    orbit = seeded_orbit(n, entries, seed)
    assert len(orbit) == size
    rows, cols = np.triu_indices(len(orbit), 1)
    value = mm.min_pairwise_lp(orbit, metric)
    assert value == _pair_lp(orbit, metric)(rows, cols).min()
    keys, gap = _shared_column(orbit)
    # The orbits share their first column, and "close" reaches its smallest
    # gap, so no pass drops a pair; "two" is searched in triu order.
    assert (keys is None) == (entries == "two")
    assert entries != "close" or value + _BOUND_SLACK >= gap


@pytest.mark.parametrize("make, pinned", [
    (lambda: seeded_orbit(5, "binary", 5), [1, 2]),
    (lambda: seeded_orbit(5, "gaussian", 6), [1, 2, 4, 5]),
    # Its minimum equals its smallest x-gap, so no pass drops a pair.
    (seed_46_orbit, [1 << k for k in range(12)] + [3045])], ids=["binary", "gaussian", "seed46"])
def test_min_pairwise_lp_sends_the_pinned_pairs_on_an_orbit(monkeypatch, make, pinned):
    # The pairs of each lp call, in order.  Every order-5 orbit sent all
    # 7,140 pairs before the same-position pass; a search that silently
    # falls back to all pairs fails the first two.
    orbit = make()
    rows, cols = np.triu_indices(len(orbit), 1)
    expected = _pair_lp(orbit, "euclidean")(rows, cols).min()
    sent = []

    def counted(members, metric):
        lp = _pair_lp(members, metric)

        def call(i, j, cap=None):
            sent.append(len(i))
            return lp(i, j, cap)
        return call
    monkeypatch.setattr(mm.measures, "_pair_lp", counted)
    assert mm.min_pairwise_lp(orbit) == expected
    assert sent == pinned


def spread_orbit(n, entries, seed):
    """The orbit of a seeded 0/1 or Gaussian matrix and a vector whose
    entries lie more than 1.5/n apart, so that caps below the smallest gap
    leave many pairs near."""
    rng = np.random.default_rng(seed)
    if entries == "binary":
        a = rng.integers(0, 2, (n, n)).astype(float)
    else:
        a = rng.standard_normal((n, n))
    x = rng.permutation(np.linspace(-1.0, 1.0, n) + rng.uniform(-0.25, 0.25, n) / n)
    return list(mm.orbit_measures(mm.MeasuredMatrix(a), x))


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n, entries", [
    (3, "binary"), (3, "gaussian"), (4, "binary"), (4, "gaussian"), (5, "binary"),
    (5, "gaussian"), (6, "binary"), (6, "gaussian"), (3, "shared"), (9, "shared")])
def test_same_position_far_test_equals_the_far_test_on_the_full_table(metric, n, entries):
    # Every pair of an orbit, or of 40 random measures of 6 atoms in
    # dimension n on one shared first column with random weights ("shared";
    # dimension 9 takes _point_distances' d >= 8 branch).  Caps below the
    # smallest gap g: 0, weights and a two-atom mass, pairs' same-position
    # distances spread over their range, and the largest float below g.
    if entries == "shared":
        rng = np.random.default_rng(n)
        column = np.cumsum(rng.uniform(0.2, 0.6, 6))
        members = [mm.WeightedPointMeasure(
            np.column_stack([column, rng.uniform(-0.3, 0.3, (6, n - 1))]), random_weights(rng, 6))
            for _ in range(40)]
    else:
        members = spread_orbit(n, entries, n)
    keys, gap = _shared_column(members)
    weights = keys[..., -1]
    rows, cols = np.triu_indices(len(keys), 1)

    def tables():  # 4,096 pairs at a time
        for s in range(0, len(rows), 4096):
            r, c = rows[s:s + 4096], cols[s:s + 4096]
            yield r, c, _point_distances(keys[r, :, :-1], keys[c, :, :-1], metric)
    diagonal = np.concatenate([np.diagonal(table, axis1=1, axis2=2) for *_, table in tables()])
    below = np.unique(diagonal[diagonal < gap])
    caps = {0.0, float(np.nextafter(gap, 0.0)), float(weights.min()),
            *(float(w) for w in weights[0, :2]), float(weights[0, 0] + weights[0, 1])}
    caps |= {float(v) for v in below[np.linspace(0, len(below) - 1, 6).astype(int)]}
    caps = sorted(c for c in caps if c < gap)
    for r, c, table in tables():
        for t in caps:
            expected = _far_pairs(table, weights[r], weights[c], np.full(len(table), t))
            assert np.array_equal(_same_position_far(keys, r, c, t, metric), expected)


@pytest.mark.parametrize("n, entries, seed", [(4, "gaussian", 11), (5, "binary", 12),
                                              (5, "gaussian", 13)])
def test_pruned_near_sets_equal_the_unpruned_ones(n, entries, seed):
    # Probes as reconstruct makes them, at its epsilon and at larger ones
    # whose threshold eps/4 is exactly some member's distance to the base.
    matrix = mm.MeasuredMatrix(pinned_hidden_matrix(n, entries, seed))
    v = mm.max_orbit_vector(matrix, trials=4, rng_seed=seed)
    k = max(1.0, mm.norm_inf_to_1(matrix).value)
    orbit = mm.orbit_measures(matrix, v)
    base = orbit.members[0]
    eps0 = mm.choose_epsilon(matrix, v)
    for j in range(n):
        probe = mm.orbit_measures(matrix, mm.perturb(v, j, eps0, k))
        values = sorted(lp_reference(base, mu) for mu in probe)
        for eps in (eps0, 4.0 * values[1], 4.0 * values[len(values) // 2], 4.0 * values[-1]):
            near = [i for i, mu in enumerate(probe)
                    if lp_reference(base, mu) <= eps / 4 + MASS_SLACK]
            assert _near(orbit, probe, eps / 4).tolist() == near


def test_near_keeps_a_member_whose_bound_rounds_above_the_threshold():
    # eps + MASS_SLACK lands on the member's distance, and its bound 2 ulps above.
    mu, nu = far_mass_pair()
    value = lp_reference(mu, nu)
    eps = value - MASS_SLACK
    while eps + MASS_SLACK != value:
        eps = float(np.nextafter(eps, 1.0 if eps + MASS_SLACK < value else 0.0))
    dist = _point_distances(mu.points, nu.points, "euclidean")[None]
    bound = lower_bound_reference(dist, mu.weights[None], nu.weights[None])[0]
    assert bound > eps + MASS_SLACK
    assert _near(mm.MeasureSet.from_measures([mu]),
                 mm.MeasureSet.from_measures([nu, mm.dirac([9.0, 9.0])]), eps).tolist() == [0]


@pytest.mark.parametrize("metric", METRICS)
def test_same_position_pass_keeps_a_pair_whose_far_mass_rounds_above_the_best(metric):
    # Nine atoms on one shared column 100 apart.  (mu, nu) moves the mass of
    # eight atoms by 10, so its distance v is that mass, which its far test
    # sums in numpy's pairwise order and reads 2 ulps above v.  (c, d) has
    # the smaller largest same-position distance, the next float t above v,
    # so it goes first and the pass runs at t + _BOUND_SLACK: a pass at t
    # would drop (mu, nu).
    x = 100.0 * np.arange(9)
    far = np.random.default_rng(135).uniform(0.01, 0.1, 8)
    weights = np.concatenate(([1.0 - far.sum()], far))

    def at(y):
        return mm.WeightedPointMeasure(np.column_stack([x, y]), weights)
    mu, nu = at(np.full(9, 1000.0)), at(np.r_[1000.0, np.full(8, 1010.0)])
    value = mm.lp_distance(mu, nu, metric)
    t = float(np.nextafter(value, 1.0))
    c, d = at(np.zeros(9)), at(np.r_[t, np.zeros(8)])
    keys, _ = _shared_column([mu, nu])
    assert _same_position_far(keys, np.array([0]), np.array([1]), t, metric).tolist() == [True]
    assert mm.lp_distance(c, d, metric) == t
    assert mm.min_pairwise_lp([mu, nu, c, d], metric) == value


def test_same_position_far_test_keeps_pairs_the_equality_rule_answers():
    # The copy nudged by 0.9e-9 in six coordinates agrees with the first
    # member within SET_DEDUP_TOL, but its Euclidean same-position distances
    # are 2.2e-9, above cap 0 + _BOUND_SLACK: the evaluator answers it 0.0,
    # so the pass must keep it.
    rng = np.random.default_rng(30)
    column = np.cumsum(rng.uniform(0.2, 0.6, 4))
    points = np.column_stack([column, rng.uniform(-1.0, 1.0, (4, 6))])
    weights = random_weights(rng, 4)
    members = [mm.WeightedPointMeasure(p, weights) for p in (
        points, points + np.r_[0.0, np.full(6, 0.9e-9)], points + np.r_[0.0, np.full(6, 0.5)])]
    keys, _ = _shared_column(members)
    rows, cols = np.triu_indices(3, 1)
    for metric in METRICS:
        skipped = np.isnan(_pair_lp(members, metric)(rows, cols, cap=0.0))
        assert skipped.tolist() == [False, True, True]
        assert _same_position_far(keys, rows, cols, _BOUND_SLACK, metric).tolist() == [
            False, True, True]


def test_min_pairwise_lp_small_collections():
    assert mm.min_pairwise_lp([]) == np.inf
    assert mm.min_pairwise_lp([mm.dirac([0.0, 0.0])]) == np.inf
    with pytest.raises(ValueError):
        mm.min_pairwise_lp([mm.dirac([0.0]), mm.dirac([0.0, 0.0])])


def test_choose_epsilon_needs_distinct_entries():
    with pytest.raises(ValueError):
        mm.choose_epsilon(mm.MeasuredMatrix(np.eye(3)), [1.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# isolation of perturbed orbit measures
# ---------------------------------------------------------------------------

def test_perturbed_orbits_isolate_uniquely():
    rng = np.random.default_rng(45)
    for n in (3, 4):
        a = rng.standard_normal((n, n))
        m = mm.MeasuredMatrix(a)
        v = mm.find_irreducible_vector(m, rng_seed=5)
        eps = mm.choose_epsilon(m, v)
        k = max(1.0, mm.norm_inf_to_1(m).value)
        base_orbit = list(mm.orbit_measures(m, v))
        for i in range(n):
            perturbed_orbit = list(mm.orbit_measures(m, mm.perturb(v, i, eps, k)))
            assert len(perturbed_orbit) == len(base_orbit)
            for nu1 in base_orbit:
                near = [nu for nu in perturbed_orbit
                        if mm.lp_distance(nu1, nu) < eps / 4.0]
                assert len(near) == 1


# ---------------------------------------------------------------------------
# the measure oracle
# ---------------------------------------------------------------------------

def test_oracle_logs_queries_and_matches_direct_computation():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    oracle = mm.MeasureOracle(m)
    assert oracle.dimension == 3
    assert np.allclose(oracle.weights, 1 / 3)
    v = np.array([3.0, 1.0, 2.0])
    assert oracle.orbit_size(v) == 3
    supports = oracle.orbit_supports(v)
    direct = {mu.points.tobytes() for mu in mm.orbit_measures(m, v)}
    via_oracle = {mu.points.tobytes() for mu in supports}
    assert direct == via_oracle
    assert oracle.query_count == 2
    kinds = [kind for kind, _ in oracle.query_log]
    assert kinds == ["orbit_size", "orbit_supports"]


def test_orbit_size_counts_the_members_without_building_them(monkeypatch):
    # A generic vector, a vector with tied entries (a smaller orbit), and a
    # graph whose automorphisms collapse the orbit.
    built = []
    set_key = mm.WeightedPointMeasure._set_key

    def counted(mu, key):
        built.append(key)
        return set_key(mu, key)

    cases = [(mm.MeasuredMatrix(EXAMPLE_A), [3.0, 1.0, 2.0]), (mm.MeasuredMatrix(EXAMPLE_A),
             [1.0, 1.0, 2.0]), (mm.adjacency(mm.cycle_graph(5)), [0.1, 0.5, 0.2, 0.9, 0.3])]
    for matrix, v in cases:
        oracle = mm.MeasureOracle(matrix)
        monkeypatch.setattr(mm.WeightedPointMeasure, "_set_key", counted)
        size = oracle.orbit_size(v)
        monkeypatch.undo()
        assert not built
        assert size == len(mm.orbit_measures(matrix, v).members)


def test_orbit_supports_keys_are_the_members_ordered_supports():
    # Every key row is (x, y, weight), bit for bit what ordered_support reads
    # off the member object: a generic orbit, one that the cycle's
    # automorphisms collapse, and one of a Gaussian matrix.
    rng = np.random.default_rng(71)
    cases = [(mm.MeasuredMatrix(EXAMPLE_A), [3.0, 1.0, 2.0]),
             (mm.adjacency(mm.cycle_graph(5)), [0.1, 0.5, 0.2, 0.9, 0.3]),
             (mm.MeasuredMatrix(rng.normal(size=(4, 4))), rng.uniform(-1.0, 1.0, 4))]
    for matrix, x in cases:
        orbit = mm.MeasureOracle(matrix).orbit_supports(x)
        counts, slot, stacks = _key_stacks(orbit)
        for i, mu in enumerate(orbit):
            key, support = stacks[counts[i]][slot[i]], mm.ordered_support(mu)
            for column, values in zip(key.T, (support.xs, support.ys, support.weights)):
                assert column.tobytes() == values.tobytes()


@pytest.mark.parametrize("entries", ["binary", "gaussian"])
def test_reconstruct_builds_no_measure_object(monkeypatch, entries):
    # Oracle answers, the epsilon search and the isolation checks all read
    # the orbits' key tables.
    built = []
    set_key = mm.WeightedPointMeasure._set_key

    def counted(mu, key):
        built.append(key)
        return set_key(mu, key)

    hidden = pinned_hidden_matrix(5, entries, 1)
    oracle = mm.MeasureOracle(mm.MeasuredMatrix(hidden))
    monkeypatch.setattr(mm.WeightedPointMeasure, "_set_key", counted)
    recovered = mm.reconstruct(oracle, rng_seed=1)
    monkeypatch.undo()
    assert not built
    assert mm.switching_witness(recovered, hidden) is not None


def test_orbit_supports_raises_on_tied_first_coordinates_after_logging_the_query():
    # x has two equal entries whose atoms differ in y: every orbit member has
    # tied first coordinates, as ordered_support says of each.
    matrix = mm.MeasuredMatrix(np.diag([1.0, 2.0, 3.0]))
    oracle = mm.MeasureOracle(matrix)
    x = np.array([1.0, 1.0, 2.0])
    with pytest.raises(DegenerateSupportError, match="tied first coordinates"):
        oracle.orbit_supports(x)
    assert oracle.query_count == 1
    kind, logged = oracle.query_log[0]
    assert kind == "orbit_supports" and np.array_equal(logged, x)
    for mu in mm.orbit_measures(matrix, x):
        with pytest.raises(DegenerateSupportError):
            mm.ordered_support(mu)


def test_oracle_norm_bound_dominates_hidden_norm():
    m = mm.MeasuredMatrix(EXAMPLE_B)
    assert mm.MeasureOracle(m).norm_bound() == mm.norm_inf_to_1(m).value


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_worked_example():
    oracle = mm.MeasureOracle(mm.MeasuredMatrix(EXAMPLE_A))
    recovered = mm.reconstruct(oracle)
    assert mm.switching_witness(recovered, EXAMPLE_A) is not None


def test_reconstruct_distinct_diagonal():
    diag = np.diag([1.0, -2.0, 0.5, 3.0])
    oracle = mm.MeasureOracle(mm.MeasuredMatrix(diag))
    recovered = mm.reconstruct(oracle)
    witness = mm.switching_witness(recovered, diag)
    assert witness is not None
    assert np.allclose(sorted(np.diag(recovered)), sorted(np.diag(diag)),
                       atol=1e-9)
    off_diag = recovered - np.diag(np.diag(recovered))
    assert np.max(np.abs(off_diag)) < 1e-9


def test_reconstruct_random_binary_matrix():
    rng = np.random.default_rng(46)
    a = rng.integers(0, 2, (5, 5)).astype(float)
    oracle = mm.MeasureOracle(mm.MeasuredMatrix(a))
    recovered = mm.reconstruct(oracle, rng_seed=3)
    assert mm.switching_witness(recovered, a) is not None


def test_reconstruct_requires_uniform_weights():
    m = mm.MeasuredMatrix(EXAMPLE_A, np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        mm.reconstruct(mm.MeasureOracle(m))


def test_reconstruct_rejects_large_orders():
    with pytest.raises(ValueError):
        mm.reconstruct(mm.MeasureOracle(mm.MeasuredMatrix(np.eye(7))))


def test_reconstruct_rejects_order_one():
    with pytest.raises(ValueError, match="orders 2"):
        mm.reconstruct(mm.MeasureOracle(mm.MeasuredMatrix([[2.0]])))


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -3.0, -1e-300])
def test_norm_bound_must_be_finite_and_nonnegative(bound):
    m = mm.MeasuredMatrix(EXAMPLE_A)
    with pytest.raises(ValueError, match="norm_bound must be finite and nonnegative"):
        mm.reconstruct(mm.MeasureOracle(m), norm_bound=bound)
    with pytest.raises(ValueError, match="norm_bound must be finite and nonnegative"):
        mm.choose_epsilon(m, [3.0, 1.0, 2.0], norm_bound=bound)


def test_norm_bound_below_one_counts_as_one():
    m = mm.MeasuredMatrix(np.eye(3))
    for bound in (0.0, 0.5):
        assert (mm.choose_epsilon(m, [1.0, 2.0, 3.0], norm_bound=bound)
                == mm.choose_epsilon(m, [1.0, 2.0, 3.0], norm_bound=1.0))
    oracle = mm.MeasureOracle(mm.MeasuredMatrix(EXAMPLE_A))
    assert mm.switching_witness(mm.reconstruct(oracle, norm_bound=0.0), EXAMPLE_A) is not None


# ---------------------------------------------------------------------------
# zero distance vs switching equivalence (spot checks; the full 11-class
# grid runs in the acceptance suite)
# ---------------------------------------------------------------------------

def test_zero_profile_distance_iff_switching_equivalent_spot():
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=17)
    classes = four_vertex_classes()
    pairs = [("cycle4", "cycle4"), ("cycle4", "path4"), ("paw", "diamond")]
    rng = np.random.default_rng(47)
    for name_a, name_b in pairs:
        a = mm.adjacency(classes[name_a]).entries
        b = mm.relabel_matrix(mm.adjacency(classes[name_b]).entries,
                              rng.permutation(4))
        d = mm.one_profile_distance(mm.MeasuredMatrix(a), mm.MeasuredMatrix(b), cfg)
        equivalent = mm.switching_witness(a, b) is not None
        assert (d == 0.0) == equivalent


# ---------------------------------------------------------------------------
# pinned reconstructions: the recovered bits and the query log must not move
# ---------------------------------------------------------------------------

# (order, entries, seed of the hidden matrix and of ``reconstruct``, query
# kinds as (kind, count) runs, recovered matrix as float.hex rows)
PINNED_RECONSTRUCTIONS = [
    (3, "binary", 11, (("orbit_size", 12), ("orbit_supports", 4)), [
        ["0x0.0p+0", "0x0.0p+0", "0x1.00000000001ffp+0"],
        ["0x1.00000000001ffp+0", "0x1.00000000001ffp+0", "0x0.0p+0"],
        ["0x1.00000000001ffp+0", "0x0.0p+0", "0x0.0p+0"]]),
    (4, "gaussian", 12, (("orbit_size", 12), ("orbit_supports", 5)), [
        ["-0x1.67981b6fd5e65p-6", "0x1.ff5df3280a04fp-1", "-0x1.b95ab19b2b22ap-4",
         "0x1.fbc7fbf0ce67ap-2"],
        ["-0x1.41004eb8a63adp-1", "-0x1.349f755c17f50p+0", "0x1.9e681e5ac23bbp+0",
         "-0x1.5216fbf6defa5p+0"],
        ["0x1.7bb17a410d10ap-1", "0x1.0bd00bfb613c0p+0", "-0x1.bf665c4317798p-8",
         "0x1.72aa6e8c3834fp-1"],
        ["-0x1.d05adda6f7b3dp-1", "0x1.2d2ffa3701863p-3", "-0x1.e928229ad9820p+0",
         "0x1.c67feb3be6dc9p+0"]]),
    (5, "binary", 13, (("orbit_size", 12), ("orbit_supports", 6)), [
        ["0x1.fffffffffdff9p-1", "0x1.000000000053dp+0", "0x1.fffffffffdff9p-1",
         "0x1.fffffffffdff9p-1", "0x1.fffffffffdff9p-1"],
        ["0x0.0p+0", "0x1.000000000053dp+0", "0x1.000000000053dp+0",
         "0x1.000000000053dp+0", "0x0.0p+0"],
        ["0x1.fffffffffdff9p-1", "0x0.0p+0", "0x1.fffffffffdff9p-1",
         "0x1.fffffffffdff9p-1", "0x1.fffffffffdff9p-1"],
        ["0x1.fffffffffdff9p-1", "0x1.000000000053dp+0", "0x0.0p+0", "0x0.0p+0",
         "0x1.fffffffffdff9p-1"],
        ["0x0.0p+0", "0x0.0p+0", "0x1.fffffffffdff9p-1", "0x0.0p+0",
         "0x1.fffffffffdff9p-1"]]),
    (5, "gaussian", 14, (("orbit_size", 12), ("orbit_supports", 6)), [
        ["0x1.a88eb04ae2112p-2", "0x1.b1b01793bb627p+0", "0x1.b0cbc16977585p-3",
         "0x1.7de0f71e84465p-2", "-0x1.ec560ecdfcf8fp-3"],
        ["-0x1.69b5b13a032f5p-2", "0x1.641b2ad4113e2p-1", "-0x1.f57da360c407ap-1",
         "-0x1.76656f89e176cp+1", "-0x1.92d043309187bp+0"],
        ["-0x1.c3a89edf73537p-1", "0x1.3f632198a9331p+0", "0x1.0eee5186c5f23p-5",
         "0x1.05f2f087b6d63p+0", "0x1.06106b9f1bc28p-1"],
        ["-0x1.4b2a84a442341p-1", "0x1.d4267be7d2d78p-4", "-0x1.0615135eb3497p-1",
         "-0x1.10372bde731cap+1", "0x1.568e1c4ae9defp-2"],
        ["-0x1.d3fa565ae8cbfp-4", "0x1.537e2167fed45p+1", "-0x1.c0fa1e5213e90p-1",
         "0x1.5eaa95914aa28p+1", "0x1.7e84b1a5aaf15p-2"]]),
]


def pinned_hidden_matrix(n, entries, seed):
    rng = np.random.default_rng(seed)
    if entries == "binary":
        return rng.integers(0, 2, (n, n)).astype(float)
    return rng.standard_normal((n, n))


@pytest.mark.parametrize("n, entries, seed, runs, rows", PINNED_RECONSTRUCTIONS)
def test_reconstruct_is_pinned(n, entries, seed, runs, rows):
    oracle = mm.MeasureOracle(mm.MeasuredMatrix(pinned_hidden_matrix(n, entries, seed)))
    recovered = mm.reconstruct(oracle, rng_seed=seed)
    expected = np.array([[float.fromhex(x) for x in row] for row in rows])
    assert recovered.tobytes() == expected.tobytes()
    kinds = [kind for kind, _ in oracle.query_log]
    assert kinds == [kind for kind, count in runs for _ in range(count)]


@pytest.mark.parametrize("n, entries, seed", [case[:3] for case in PINNED_RECONSTRUCTIONS])
def test_max_orbit_vector_is_the_vector_reconstruct_picks(n, entries, seed):
    matrix = mm.MeasuredMatrix(pinned_hidden_matrix(n, entries, seed))
    oracle = mm.MeasureOracle(matrix)
    mm.reconstruct(oracle, trials=12, rng_seed=seed)
    picked = next(x for kind, x in oracle.query_log if kind == "orbit_supports")
    assert np.array_equal(mm.max_orbit_vector(matrix, trials=12, rng_seed=seed), picked)


def test_reconstruct_round_trip_at_the_irreducible_limit():
    # One 0/1 matrix at order IRREDUCIBLE_LIMIT = 6: a 720-measure orbit.
    n = mm.reconstruction.IRREDUCIBLE_LIMIT
    hidden = np.random.default_rng(61).integers(0, 2, (n, n)).astype(float)
    recovered = mm.reconstruct(mm.MeasureOracle(mm.MeasuredMatrix(hidden)), rng_seed=61)
    assert mm.switching_witness(recovered, hidden) is not None
