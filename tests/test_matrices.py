import itertools
import math

import numpy as np
import pytest

import matmeasure as mm
from matmeasure.reconstruction import permutation_commutator
from conftest import EXAMPLE_A, EXAMPLE_B, random_weights


def test_measured_matrix_validation():
    with pytest.raises(ValueError):
        mm.MeasuredMatrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        mm.MeasuredMatrix(np.eye(2), [0.5, 0.6])
    with pytest.raises(ValueError):
        mm.MeasuredMatrix(np.eye(2), [1.0, 0.0])
    m = mm.MeasuredMatrix(np.eye(3))
    assert m.p.tolist() == [1 / 3] * 3


def test_measured_matrix_rejects_non_finite_entries_and_weights():
    for bad in (np.nan, np.inf, -np.inf):
        entries = np.eye(3)
        entries[0, 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            mm.MeasuredMatrix(entries)
        for weights in ([bad, 0.5, 0.5], [0.5, 0.5, bad]):
            with pytest.raises(ValueError, match="weights must be finite"):
                mm.MeasuredMatrix(np.eye(3), weights)


# ---------------------------------------------------------------------------
# generate_measure / marginal
# ---------------------------------------------------------------------------

def test_generate_measure_basis_vector():
    a = np.array([[5.0, 6.0], [7.0, 8.0]])
    mu = mm.generate_measure(mm.MeasuredMatrix(a), [1.0, 0.0])
    assert mu.points.tolist() == [[0.0, 7.0], [1.0, 5.0]]
    assert mu.weights.tolist() == [0.5, 0.5]


def test_generate_measure_worked_matrix():
    mu = mm.generate_measure(mm.MeasuredMatrix(EXAMPLE_B), [1.0, 0.0])
    assert mu.points.tolist() == [[0.0, 3.0], [1.0, 0.0]]


def test_generate_measure_merges_regular_constant():
    mu = mm.generate_measure(mm.adjacency(mm.complete_graph(3)), [1.0, 1.0, 1.0])
    assert mu.points.tolist() == [[1.0, 2.0]]
    assert mu.weights.tolist() == [1.0]


def test_generate_measure_length_mismatch():
    with pytest.raises(ValueError):
        mm.generate_measure(mm.MeasuredMatrix(EXAMPLE_B), [1.0, 0.0, 0.0])


def test_marginal_first():
    m = mm.MeasuredMatrix(EXAMPLE_B)
    mu = mm.marginal_first(m, [1.0, 0.0])
    assert mu.points.ravel().tolist() == [0.0, 1.0]
    constant = mm.marginal_first(mm.MeasuredMatrix(np.eye(3)), [2.0, 2.0, 2.0])
    assert constant.atom_count == 1
    spread = mm.marginal_first(mm.MeasuredMatrix(np.eye(3)), [3.0, 1.0, 2.0])
    assert spread.points.ravel().tolist() == [1.0, 2.0, 3.0]
    assert np.allclose(spread.weights, 1 / 3)


# ---------------------------------------------------------------------------
# orbit measures
# ---------------------------------------------------------------------------

def test_orbit_of_worked_example_has_three_measures():
    orbit = mm.orbit_measures(mm.MeasuredMatrix(EXAMPLE_A), [3.0, 1.0, 2.0])
    assert len(orbit) == 3


def test_orbit_of_basis_vectors_coincide():
    m = mm.MeasuredMatrix([[5.0, 6.0], [7.0, 8.0]])
    z1 = mm.orbit_measures(m, [1.0, 0.0])
    z2 = mm.orbit_measures(m, [0.0, 1.0])
    assert len(z1) == 2
    assert mm.measure_sets_equal(z1, z2)
    mu_e1 = mm.generate_measure(m, [1.0, 0.0])
    mu_e2 = mm.generate_measure(m, [0.0, 1.0])
    assert z1.contains(mu_e1) and z1.contains(mu_e2)


def test_orbit_of_constant_vector_is_singleton():
    orbit = mm.orbit_measures(mm.MeasuredMatrix(EXAMPLE_A), [2.0, 2.0, 2.0])
    assert len(orbit) == 1


def test_orbit_rejects_large_orders():
    with pytest.raises(ValueError):
        mm.orbit_measures(mm.MeasuredMatrix(np.eye(9)), np.arange(9.0))


def test_orbit_respects_weight_preservation():
    # Distinct weights leave only the identity permutation.
    p = np.array([0.2, 0.3, 0.5])
    m = mm.MeasuredMatrix(EXAMPLE_A, p)
    assert len(mm.orbit_measures(m, [3.0, 1.0, 2.0])) == 1


# ---------------------------------------------------------------------------
# permutation covariance
# ---------------------------------------------------------------------------

def test_relabeling_covariance_exact_atoms():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        p = None if rng.random() < 0.5 else random_weights(rng, n)
        sigma = rng.permutation(n)
        x = rng.uniform(-1, 1, n)
        m = mm.MeasuredMatrix(a, p)
        mu = mm.generate_measure(m, x)
        nu = mm.generate_measure(
            mm.MeasuredMatrix(mm.relabel_matrix(a, sigma), m.p[sigma]), x[sigma])
        assert mm.measure_equal(mu, nu, 1e-12)


@pytest.mark.parametrize("n", range(1, mm.matrices.FACTORIAL_LIMIT + 1))
def test_permutations_preserving_equals_the_filtered_itertools_order(n):
    # Uniform weights keep all n! permutations; stationary weights on a path
    # (degrees 1, 2, ..., 2, 1) are tied but not uniform from n = 3 on.
    weights = [np.full(n, 1.0 / n)]
    if n >= 3:
        weights.append(mm.adjacency(mm.path_graph(n), "stationary").p)
    for p in weights:
        expected = [list(sigma) for sigma in itertools.permutations(range(n))
                    if all(abs(p[s] - p[i]) <= mm.matrices.PROB_TOL
                           for i, s in enumerate(sigma))]
        for _ in range(2):
            perms = mm.matrices.permutations_preserving(p)
            assert perms.dtype == np.intp and perms.tolist() == expected
    assert len(expected) == (math.factorial(n) if n < 3 else 2 * math.factorial(n - 2))


def test_commuting_permutations_fix_measures():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    reversal = np.array([2, 1, 0])
    assert np.max(np.abs(permutation_commutator(EXAMPLE_A, reversal))) == 0.0
    rng = np.random.default_rng(22)
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        assert mm.measure_equal(mm.generate_measure(m, x),
                                mm.generate_measure(m, x[reversal]), 1e-12)


def test_measure_equality_characterization():
    # mu_x == mu_y iff some P has y = Px, Pp = p, and (PA - AP) x = 0.
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = rng.integers(-1, 2, (n, n)).astype(float)
        p = None if rng.random() < 0.7 else random_weights(rng, n)
        m = mm.MeasuredMatrix(a, p)
        x = rng.integers(-2, 3, n).astype(float)
        y = x[rng.permutation(n)] if rng.random() < 0.6 \
            else rng.integers(-2, 3, n).astype(float)
        lhs = mm.measure_equal(mm.generate_measure(m, x),
                               mm.generate_measure(m, y))
        rhs = False
        for sigma in itertools.permutations(range(n)):
            idx = np.array(sigma)
            if not np.allclose(m.p[idx], m.p, atol=1e-12):
                continue
            if not np.array_equal(y, x[idx]):
                continue
            if np.linalg.norm(permutation_commutator(a, idx) @ x) <= 1e-9:
                rhs = True
                break
        assert lhs == rhs


def test_matrix_determined_exactly_under_distinct_weights():
    # With pairwise-distinct index weights the measure family separates
    # matrices exactly, not just up to relabeling.
    rng = np.random.default_rng(24)
    for n in (2, 3, 4):
        p = np.arange(1.0, n + 1)
        p /= p.sum()
        a = rng.standard_normal((n, n))
        b = a.copy()
        b[0, -1] += 0.5
        ma, mb = mm.MeasuredMatrix(a, p), mm.MeasuredMatrix(b, p)
        witnesses = [rng.uniform(-1, 1, n) for _ in range(10)]
        assert any(not mm.measure_equal(mm.generate_measure(ma, x),
                                        mm.generate_measure(mb, x))
                   for x in witnesses)
        assert all(mm.measure_equal(mm.generate_measure(ma, x),
                                    mm.generate_measure(ma, x))
                   for x in witnesses)


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------

def test_norm_worked_example():
    result = mm.norm_inf_to_1(mm.MeasuredMatrix(EXAMPLE_B))
    assert result.exact
    assert result.value == 3.0


def test_norm_zero_and_identity():
    assert mm.norm_inf_to_1(mm.MeasuredMatrix(np.zeros((3, 3)))).value == 0.0
    assert mm.norm_inf_to_1(mm.MeasuredMatrix(np.eye(4))).value == 1.0


def test_norm_dominates_rayleigh_samples():
    rng = np.random.default_rng(25)
    m = mm.MeasuredMatrix(rng.standard_normal((5, 5)))
    norm = mm.norm_inf_to_1(m).value
    for _ in range(1000):
        v = rng.uniform(-1, 1, 5)
        ratio = float(m.p @ np.abs(m.entries @ v)) / np.max(np.abs(v))
        assert ratio <= norm + 1e-12


def test_norm_of_adjacency_bounded_by_degree():
    rng = np.random.default_rng(26)
    for n in (3, 4, 5, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = [p for p in pairs if rng.random() < 0.6]
        g = mm.Graph(n, keep)
        assert mm.norm_inf_to_1(mm.adjacency(g)).value <= n - 1 + 1e-12


def test_norm_falls_back_to_row_sum_bound():
    n = 25
    m = mm.MeasuredMatrix(np.ones((n, n)))
    result = mm.norm_inf_to_1(m)
    assert not result.exact
    assert result.value == pytest.approx(n, abs=1e-9)


# ---------------------------------------------------------------------------
# graphs and representations
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(ValueError):
        mm.Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        mm.Graph(3, [(0, 3)])
    g = mm.Graph(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_adjacency_and_kirchhoff_of_k3():
    k3 = mm.complete_graph(3)
    a = mm.adjacency(k3).entries
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))
    k = mm.kirchhoff(k3).entries
    assert np.array_equal(k, 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))


def test_normalized_laplacian_of_single_edge():
    lap = mm.normalized_laplacian(mm.path_graph(2)).entries
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_normalized_laplacian_needs_positive_degrees():
    g = mm.Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        mm.normalized_laplacian(g)


def test_stationary_weights_proportional_to_degrees():
    star = mm.star_graph(4)
    m = mm.adjacency(star, "stationary")
    assert np.allclose(m.p, np.array([3.0, 1.0, 1.0, 1.0]) / 6.0)
    with pytest.raises(ValueError):
        mm.adjacency(mm.Graph(2, []), "stationary")


def test_raw_matrix_accepted_directly():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    assert np.array_equal(m.entries, EXAMPLE_A)


def test_relabel_graph_preserves_degree_multiset():
    g = mm.Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    h = g.relabel([3, 1, 0, 2])
    assert sorted(g.degrees()) == sorted(h.degrees())


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def test_perturb_unit_shift():
    out = mm.perturb(np.zeros(3), 0, 8.0, 1.0)
    assert out.tolist() == [1.0, 0.0, 0.0]


def test_perturb_quadratic_scaling():
    shift = mm.perturb(np.zeros(2), 0, 0.01, 1.0)[0]
    assert shift == pytest.approx(1e-4 / 64.0, rel=1e-12)


def test_perturb_worked_values():
    out = mm.perturb(np.array([3.0, 1.0, 2.0]), 1, 0.8, 4.0)
    assert out.tolist() == [3.0, 1.0025, 2.0]


def test_perturb_rejects_bad_arguments():
    with pytest.raises(ValueError):
        mm.perturb(np.zeros(2), 2, 0.5, 1.0)
    with pytest.raises(ValueError):
        mm.perturb(np.zeros(2), 0, -0.5, 1.0)
    with pytest.raises(ValueError):
        mm.perturb(np.zeros(2), 0, 0.5, 0.5)


def test_perturb_rejects_nan_shift():
    with pytest.raises(ValueError, match="positive"):
        mm.perturb(np.array([0.0, 1.0]), 0, float("nan"), 1.0)


def test_perturb_rejects_nan_norm_bound():
    with pytest.raises(ValueError, match="at least 1"):
        mm.perturb(np.array([0.0, 1.0]), 0, 0.1, float("nan"))
