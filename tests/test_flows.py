"""Max-flow cross-checked against brute-force min-cut enumeration."""

import itertools

import numpy as np

from matmeasure.flows import bipartite_max_flow


def brute_min_cut(supply, demand, allowed):
    """Min cut on the transport network: over subsets S of supply atoms,
    cut the source edges outside S and the sink edges of S's neighborhood."""
    m1 = len(supply)
    best = np.inf
    for r in range(m1 + 1):
        for subset in itertools.combinations(range(m1), r):
            keep = np.zeros(m1, dtype=bool)
            keep[list(subset)] = True
            neighbors = allowed[keep].any(axis=0) if keep.any() else np.zeros(len(demand), dtype=bool)
            cut = supply[~keep].sum() + demand[neighbors].sum()
            best = min(best, cut)
    return best


def test_saturates_single_edge():
    flow = bipartite_max_flow(np.array([1.0]), np.array([1.0]),
                              np.array([[True]]))
    assert flow == 1.0


def test_no_edges_no_flow():
    flow = bipartite_max_flow(np.array([0.5, 0.5]), np.array([1.0]),
                              np.zeros((2, 1), dtype=bool))
    assert flow == 0.0


def test_partial_matching():
    allowed = np.array([[True, False], [False, False]])
    flow = bipartite_max_flow(np.array([0.25, 0.75]), np.array([0.6, 0.4]), allowed)
    assert abs(flow - 0.25) < 1e-12


def test_rerouting_through_residual_edges():
    # Greedy saturation of the first edge must be undone to reach the optimum.
    allowed = np.array([[True, True], [True, False]])
    flow = bipartite_max_flow(np.array([0.5, 0.5]), np.array([0.5, 0.5]), allowed)
    assert abs(flow - 1.0) < 1e-12


def test_matches_brute_force_min_cut():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m1 = int(rng.integers(1, 6))
        m2 = int(rng.integers(1, 6))
        supply = rng.random(m1) + 0.05
        supply /= supply.sum()
        demand = rng.random(m2) + 0.05
        demand /= demand.sum()
        allowed = rng.random((m1, m2)) < 0.4
        flow = bipartite_max_flow(supply, demand, allowed)
        assert abs(flow - brute_min_cut(supply, demand, allowed)) < 1e-12


def test_flow_never_exceeds_the_total_mass():
    # A long uniform chain routes mass through augmenting paths hundreds of
    # edges long; the float total once came out as 1.0000000000000095.
    k = 600
    mass = np.full(k, 1.0 / k)
    allowed = np.eye(k, dtype=bool) | np.eye(k, k=1, dtype=bool)
    flow = bipartite_max_flow(mass, mass, allowed)
    assert flow <= min(mass.sum(), 1.0)
    assert abs(flow - 1.0) < 1e-12
