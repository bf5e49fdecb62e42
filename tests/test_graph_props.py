import numpy as np
import pytest

import matmeasure as mm
from conftest import EXAMPLE_A, all_labeled_graphs


# ---------------------------------------------------------------------------
# symmetric eigensolver (numpy.linalg.eigh)
# ---------------------------------------------------------------------------

def test_jacobi_on_diagonal_matrix():
    values, vectors = np.linalg.eigh(np.diag([3.0, -1.0, 2.0]))
    assert values.tolist() == [-1.0, 2.0, 3.0]
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def test_jacobi_eigenpairs_have_small_residuals():
    rng = np.random.default_rng(51)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        b = rng.standard_normal((n, n))
        a = (b + b.T) / 2.0
        values, vectors = np.linalg.eigh(a)
        assert np.all(np.diff(values) >= 0)
        for lam, u in zip(values, vectors.T):
            assert np.linalg.norm(a @ u - lam * u) < 1e-10


def test_jacobi_matches_characteristic_values_of_k3():
    values, _ = np.linalg.eigh(mm.adjacency(mm.complete_graph(3)).entries)
    assert np.allclose(values, [-1.0, -1.0, 2.0], atol=1e-12)


def test_jacobi_single_entry():
    values, vectors = np.linalg.eigh(np.array([[4.0]]))
    assert values.tolist() == [4.0]
    assert vectors.tolist() == [[1.0]]


# ---------------------------------------------------------------------------
# line support detection
# ---------------------------------------------------------------------------

def test_eigenvector_measure_sits_on_a_line():
    k3 = mm.adjacency(mm.complete_graph(3))
    mu = mm.generate_measure(k3, [1.0, 1.0, 1.0])
    assert mm.detect_line_support(mu) == pytest.approx(2.0, abs=1e-12)


def test_non_eigenvector_measure_is_rejected():
    k3 = mm.adjacency(mm.complete_graph(3))
    assert mm.detect_line_support(mm.generate_measure(k3, [1.0, 0.0, 0.0])) is None


def test_zero_matrix_gives_zero_slope():
    m = mm.MeasuredMatrix(np.zeros((3, 3)))
    rng = np.random.default_rng(52)
    assert mm.detect_line_support(mm.generate_measure(m, rng.uniform(-1, 1, 3))) == 0.0


def test_detected_slopes_are_true_eigenvalues():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        b = rng.standard_normal((n, n))
        a = (b + b.T) / 2.0
        m = mm.MeasuredMatrix(a)
        spectrum, _ = np.linalg.eigh(a)
        slope = mm.detect_line_support(mm.generate_measure(m, rng.uniform(-1, 1, n)))
        if slope is not None:
            assert np.min(np.abs(spectrum - slope)) < 1e-6


def test_line_detection_needs_planar_measures():
    with pytest.raises(ValueError):
        mm.detect_line_support(mm.dirac([1.0]))


# ---------------------------------------------------------------------------
# row sums / degrees
# ---------------------------------------------------------------------------

def test_row_sums_of_regular_graph():
    assert mm.row_sums_from_measure(mm.adjacency(mm.complete_graph(3))) == [(2.0, 1.0)]


def test_row_sums_of_worked_example():
    rows = mm.row_sums_from_measure(mm.MeasuredMatrix(EXAMPLE_A))
    assert rows == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3))]


def test_row_sums_of_star():
    rows = mm.row_sums_from_measure(mm.adjacency(mm.star_graph(4)))
    assert rows == [(1.0, 0.75), (3.0, 0.25)]


def test_row_sum_weights_normalized_and_integral_for_adjacency():
    for graph in list(all_labeled_graphs(4))[::7]:
        rows = mm.row_sums_from_measure(mm.adjacency(graph))
        assert sum(w for _, w in rows) == pytest.approx(1.0, abs=1e-12)
        for value, _ in rows:
            assert value == int(value) and value >= 0


# ---------------------------------------------------------------------------
# homomorphism counts
# ---------------------------------------------------------------------------

def test_hom_star_examples():
    assert mm.hom_star([2, 2, 2], 3) == (12.0, 12)
    assert mm.hom_star([3, 1, 1, 1], 3).rounded == 12
    g = mm.Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert mm.hom_star(g.degrees(), 2).rounded == 2 * len(g.edges)
    with pytest.raises(ValueError):
        mm.hom_star([1, 2], 1)


def test_hom_star_non_integral_degrees_report_raw_only():
    # Rounding 1.5, 0.75 and 0.375 to 2, 1 and 0 would state false counts.
    for k, raw in ((2, 1.5), (3, 0.75), (4, 0.375)):
        assert mm.hom_star([0.5, 0.5, 0.5], k) == (raw, None)


def test_hom_cycle_examples():
    k3 = mm.adjacency(mm.complete_graph(3))
    assert mm.hom_cycle(k3, 3).rounded == 6
    edgeless = mm.adjacency(mm.edgeless_graph(4))
    assert mm.hom_cycle(edgeless, 3).rounded == 0
    c4 = mm.adjacency(mm.cycle_graph(4))
    result = mm.hom_cycle(c4, 4)
    assert result.rounded == 32
    assert result.raw == pytest.approx(32.0, abs=1e-9)


def test_hom_cycle_requires_symmetry():
    with pytest.raises(ValueError):
        mm.hom_cycle(mm.MeasuredMatrix([[0.0, 1.0], [0.0, 0.0]]), 3)
    with pytest.raises(ValueError):
        mm.hom_cycle(mm.adjacency(mm.complete_graph(3)), 2)


def test_hom_cycle_non_integral_matrix_reports_raw_only():
    m = mm.MeasuredMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
    result = mm.hom_cycle(m, 4)
    assert result.rounded is None
    assert result.raw == pytest.approx(2 * 0.5 ** 4, abs=1e-12)


def test_count_homomorphisms_examples():
    assert mm.count_homomorphisms(mm.path_graph(2), mm.complete_graph(3)) == 6
    assert mm.count_homomorphisms(mm.cycle_graph(3), mm.path_graph(4)) == 0
    assert mm.count_homomorphisms(mm.star_graph(3), mm.path_graph(3)) == 6


def test_count_homomorphisms_size_limits():
    with pytest.raises(ValueError):
        mm.count_homomorphisms(mm.path_graph(7), mm.complete_graph(3))
    with pytest.raises(ValueError):
        mm.count_homomorphisms(mm.path_graph(2), mm.complete_graph(9))


def test_hom_formulas_agree_with_brute_force_on_4_vertices():
    for graph in all_labeled_graphs(4):
        degrees = graph.degrees()
        adjacency = mm.adjacency(graph)
        for k in (2, 3, 4):
            assert mm.hom_star(degrees, k).rounded == mm.count_homomorphisms(
                mm.star_graph(k), graph)
        for k in (3, 4, 5):
            counted = mm.hom_cycle(adjacency, k)
            brute = mm.count_homomorphisms(mm.cycle_graph(k), graph)
            assert counted.rounded == brute
            assert abs(counted.raw - brute) < 1e-6
