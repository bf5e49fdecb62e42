"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and in
failure reports) and then asserts.  Stated tolerances and runtime caps are
pinned here, not calibrated elsewhere.
"""

import itertools
import time

import numpy as np

import matmeasure as mm
from conftest import (EXAMPLE_A, EXAMPLE_B, all_labeled_graphs,
                      four_vertex_classes, lp_oracle, random_measure,
                      random_weights)


def _report(number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_lp_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        scale = float(rng.choice([0.25, 1.0, 2.5]))
        mu = random_measure(rng, max_atoms=4, scale=scale)
        nu = random_measure(rng, max_atoms=4, scale=scale)
        for metric in ("euclidean", "chebyshev"):
            gap = abs(mm.lp_distance(mu, nu, metric) - lp_oracle(mu, nu, metric))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"flow lp_distance == subset oracle on 200 pairs, both "
                   f"metrics (worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_worked_examples():
    # 3x3 worked example: orbit of size 3 and the exact ordered support.
    m41 = mm.MeasuredMatrix(EXAMPLE_A)
    orbit_ok = len(mm.orbit_measures(m41, [3.0, 1.0, 2.0])) == 3
    support = mm.ordered_support(
        mm.generate_measure(m41, np.array([1.0, 3.0, 2.0])))
    support_ok = (support.xs.tolist() == [1.0, 2.0, 3.0]
                  and support.ys.tolist() == [5.0, 4.0, 3.0])

    # 2x2 generic example: the basis-vector orbits coincide and hold exactly
    # the two stated measures.
    a11, a12, a21, a22 = 5.0, 6.0, 7.0, 8.0
    m22 = mm.MeasuredMatrix([[a11, a12], [a21, a22]])
    z1 = mm.orbit_measures(m22, [1.0, 0.0])
    z2 = mm.orbit_measures(m22, [0.0, 1.0])
    stated_1 = mm.WeightedPointMeasure([[1.0, a11], [0.0, a21]], [0.5, 0.5])
    stated_2 = mm.WeightedPointMeasure([[0.0, a12], [1.0, a22]], [0.5, 0.5])
    basis_ok = (mm.measure_sets_equal(z1, z2) and len(z1) == 2
                and z1.contains(stated_1) and z1.contains(stated_2))

    # 2x2 worked example: irreducibility verdicts.
    m24 = mm.MeasuredMatrix(EXAMPLE_B)
    irr_ok = (mm.is_irreducible(m24, [1.0, 0.0])
              and not mm.is_irreducible(m24, [-1.0, 1.0]))

    _report(2, orbit_ok and support_ok and basis_ok and irr_ok,
            "worked examples reproduced (orbit size 3, ordered support "
            "((1,2,3),(5,4,3)), basis orbits, irreducibility verdicts)")


def test_criterion_03_reconstruction_soundness():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    successes = 0
    trials = 100
    for t in range(trials):
        n = (3, 4, 5)[t % 3]
        if t % 2 == 0:
            hidden = rng.integers(0, 2, (n, n)).astype(float)
        else:
            hidden = rng.standard_normal((n, n))
        matrix = mm.MeasuredMatrix(hidden)
        bound = max(1.0, mm.norm_inf_to_1(matrix).value)
        oracle = mm.MeasureOracle(matrix)
        recovered = mm.reconstruct(oracle, norm_bound=bound, rng_seed=9000 + t)
        if mm.switching_witness(recovered, hidden) is not None:
            successes += 1
    elapsed = time.perf_counter() - started
    ok = successes == trials and elapsed < 120.0
    _report(3, ok, f"reconstruction switching-equivalent in "
                   f"{successes}/{trials} trials ({elapsed:.1f}s)")


def test_criterion_04_metric_separation_on_4_vertex_graphs():
    rng = np.random.default_rng(104)
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=17)
    classes = {name: mm.adjacency(g) for name, g in four_vertex_classes().items()}
    started = time.perf_counter()

    within_ok = True
    for matrix in classes.values():
        relabeled = mm.MeasuredMatrix(
            mm.relabel_matrix(matrix.entries, rng.permutation(4)))
        if mm.one_profile_distance(matrix, relabeled, cfg) != 0.0:
            within_ok = False

    cross_min = np.inf
    for name_a, name_b in itertools.combinations(classes, 2):
        d = mm.one_profile_distance(classes[name_a], classes[name_b], cfg)
        cross_min = min(cross_min, d)
    elapsed = time.perf_counter() - started
    ok = within_ok and cross_min > 1e-9 and elapsed < 60.0
    _report(4, ok, f"11 within-class pairs exactly 0, 55 cross-class pairs "
                   f"> 1e-9 (min {cross_min:.3g}, {elapsed:.1f}s)")


def test_criterion_05_perturbation_lemma():
    rng = np.random.default_rng(105)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        entries = rng.standard_normal((n, n)) * float(rng.choice([0.5, 1.0, 3.0]))
        weights = None if rng.random() < 0.5 else random_weights(rng, n)
        matrix = mm.MeasuredMatrix(entries, weights)
        bound = max(1.0, mm.norm_inf_to_1(matrix).value)
        x = rng.uniform(-2.0, 2.0, n)
        d = float(rng.uniform(1e-3, 1.0))
        i = int(rng.integers(n))
        sigma = rng.permutation(n)
        mu1 = mm.generate_measure(matrix, x[sigma])
        mu2 = mm.generate_measure(matrix, mm.perturb(x, i, d, bound)[sigma])
        if not mm.lp_distance(mu1, mu2) < d / 4.0:
            violations += 1
    _report(5, violations == 0,
            f"single-coordinate perturbations stay within d/4 "
            f"({500 - violations}/500)")


def test_criterion_06_pushforward_bound():
    rng = np.random.default_rng(106)
    violations = 0
    for _ in range(500):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(2, 9))
        weights = random_weights(rng, m)
        xs = rng.uniform(-1.0, 1.0, (m, k))
        ys = xs + rng.uniform(-0.5, 0.5, (m, k))
        lhs = mm.lp_distance(mm.WeightedPointMeasure(xs, weights),
                             mm.WeightedPointMeasure(ys, weights))
        if lhs > mm.pushforward_distance_bound(xs, ys, weights) + 1e-12:
            violations += 1
    _report(6, violations == 0,
            f"coupled-law LP distance within tau^(1/2) k^(3/4) "
            f"({500 - violations}/500)")


def test_criterion_07_one_profile_vs_action_distance():
    rng = np.random.default_rng(107)
    cfg = mm.SamplingConfig(count=40, seed=3)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        ma = mm.MeasuredMatrix(rng.standard_normal((n, n)))
        mb = mm.MeasuredMatrix(rng.standard_normal((n, n)))
        ds = mm.one_profile_distance(ma, mb, cfg)
        dm = mm.action_distance(ma, mb, 2, cfg)
        if not ds <= 2.0 * dm.value:
            ok = False
    _report(7, ok, "1-profile distance <= 2 x truncated action distance on "
                   "50 pairs under shared sampling")


def test_criterion_08_homomorphism_formulas():
    ok = True
    for graph in all_labeled_graphs(4):
        degrees = graph.degrees()
        matrix = mm.adjacency(graph)
        for k in (2, 3, 4):
            if mm.hom_star(degrees, k).rounded != mm.count_homomorphisms(
                    mm.star_graph(k), graph):
                ok = False
        for k in (3, 4, 5):
            counted = mm.hom_cycle(matrix, k)
            brute = mm.count_homomorphisms(mm.cycle_graph(k), graph)
            if counted.rounded != brute or abs(counted.raw - brute) >= 1e-6:
                ok = False

    rng = np.random.default_rng(108)
    for n in (5, 6):
        for _ in range(10):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = [p for p in pairs if rng.random() < 0.5]
            graph = mm.Graph(n, edges)
            matrix = mm.adjacency(graph)
            for k in (2, 3, 4):
                if mm.hom_star(graph.degrees(), k).rounded != mm.count_homomorphisms(
                        mm.star_graph(k), graph):
                    ok = False
            for k in (3, 4, 5):
                counted = mm.hom_cycle(matrix, k)
                brute = mm.count_homomorphisms(mm.cycle_graph(k), graph)
                if counted.rounded != brute or abs(counted.raw - brute) >= 1e-6:
                    ok = False
    _report(8, ok, "star and cycle homomorphism formulas match brute force "
                   "(exhaustive n=4, sampled n=5,6)")


def test_criterion_09_eigen_line_detection():
    rng = np.random.default_rng(109)
    worst = 0.0
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 7))
        b = rng.standard_normal((n, n))
        symmetric = (b + b.T) / 2.0
        matrix = mm.MeasuredMatrix(symmetric)
        values, vectors = np.linalg.eigh(symmetric)
        for lam, u in zip(values, vectors.T):
            detected = mm.detect_line_support(
                mm.generate_measure(matrix, u), tol=1e-8)
            if detected is None or abs(detected - lam) >= 1e-8:
                ok = False
            else:
                worst = max(worst, abs(detected - lam))
    _report(9, ok, f"every eigh eigenpair detected as a line slope "
                   f"(worst error {worst:.2e})")


def test_criterion_10_dense_normalization_convergence():
    cfg = mm.SamplingConfig(count=500, seed=7, kmax=3)

    def scaled_complete(n: int) -> mm.MeasuredMatrix:
        return mm.MeasuredMatrix(mm.complete_graph(n).adjacency_matrix() / n)

    results = {}
    ok = True
    for n in (4, 8):
        near = mm.action_distance(scaled_complete(n), scaled_complete(2 * n),
                                  3, cfg)
        far = mm.action_distance(scaled_complete(n),
                                 mm.adjacency(mm.edgeless_graph(n)), 3, cfg)
        results[n] = (near.value, far.value)
        if not near.value < far.value:
            ok = False
        if near.tail_bound != 0.125:
            ok = False

    # Regression baselines recorded from this configuration.
    baselines = {4: (0.331446, 0.661321), 8: (0.325555, 0.781250)}
    for n, (near_value, far_value) in results.items():
        if abs(near_value - baselines[n][0]) > 1e-4:
            ok = False
        if abs(far_value - baselines[n][1]) > 1e-4:
            ok = False

    shown = {n: (round(v[0], 6), round(v[1], 6)) for n, v in results.items()}
    _report(10, ok, f"scaled complete graphs converge toward each other, away "
                    f"from edgeless (kmax=3, count=500, seed=7): {shown}")
