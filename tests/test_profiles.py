import numpy as np
import pytest

import matmeasure as mm
from matmeasure.profiles import canonical_vector_stream
from conftest import EXAMPLE_A


def _stream_prefix(n, seed, count):
    stream = canonical_vector_stream(n, seed)
    return [next(stream) for _ in range(count)]


def test_stream_starts_with_ones_then_basis():
    prefix = _stream_prefix(3, 0, 5)
    assert prefix[0].tolist() == [1.0, 1.0, 1.0]
    assert prefix[1].tolist() == [1.0, 0.0, 0.0]
    assert prefix[2].tolist() == [0.0, 1.0, 0.0]
    assert prefix[3].tolist() == [0.0, 0.0, 1.0]


def test_stream_stays_in_unit_box():
    for v in _stream_prefix(4, 9, 60):
        assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_sample_profile_is_deterministic():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    a = mm.sample_profile(m, 2, 25, seed=5)
    b = mm.sample_profile(m, 2, 25, seed=5)
    assert len(a.measures) == len(b.measures)
    for x, y in zip(a.measures, b.measures):
        assert x.points.tobytes() == y.points.tobytes()
        assert x.weights.tobytes() == y.weights.tobytes()
    for ta, tb in zip(a.base_vectors, b.base_vectors):
        assert all(np.array_equal(u, v) for u, v in zip(ta, tb))
    # 25 tuples of 2 vectors reach past the fixed stream prefix (1 + n + 32
    # vectors for n = 3), so a different seed must change the tail.
    c = mm.sample_profile(m, 2, 25, seed=6)
    assert any(x.points.tobytes() != y.points.tobytes()
               for x, y in zip(a.measures, c.measures))


def test_zero_matrix_profiles_sit_on_the_axis():
    m = mm.MeasuredMatrix(np.zeros((3, 3)))
    profile = mm.sample_profile(m, 1, 20, seed=1)
    for mu in profile.measures:
        assert np.all(mu.points[:, 1] == 0.0)


def test_first_sample_exposes_row_sums():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    profile = mm.sample_profile(m, 1, 1, seed=3)
    (mu,) = profile.measures
    assert np.all(mu.points[:, 0] == 1.0)
    assert sorted(mu.points[:, 1].tolist()) == [1.0, 2.0]


def test_profile_measures_live_in_r2k():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    assert mm.sample_profile(m, 3, 4, seed=0).measures.dim == 6


def test_sample_profile_argument_validation():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    with pytest.raises(ValueError):
        mm.sample_profile(m, 0, 10, seed=0)
    with pytest.raises(ValueError):
        mm.sample_profile(m, 1, 0, seed=0)


# ---------------------------------------------------------------------------
# exact-orbit profiles
# ---------------------------------------------------------------------------

def test_exact_orbit_profile_of_worked_example():
    profile = mm.exact_orbit_profile(mm.MeasuredMatrix(EXAMPLE_A),
                                     [np.array([3.0, 1.0, 2.0])])
    assert len(profile.measures) == 3


def test_exact_orbit_constant_vector_on_transitive_graph():
    profile = mm.exact_orbit_profile(mm.adjacency(mm.complete_graph(3)),
                                     [np.array([0.5, 0.5, 0.5])])
    assert len(profile.measures) == 1


def test_exact_orbit_identical_for_relabeled_matrices():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    sigma = rng.permutation(4)
    base = [rng.uniform(-1, 1, 4) for _ in range(3)]
    pa = mm.exact_orbit_profile(mm.MeasuredMatrix(a), base)
    pb = mm.exact_orbit_profile(mm.MeasuredMatrix(mm.relabel_matrix(a, sigma)), base)
    assert mm.measure_sets_equal(pa.measures, pb.measures)


def test_exact_orbit_rejects_large_orders():
    with pytest.raises(ValueError):
        mm.exact_orbit_profile(mm.MeasuredMatrix(np.eye(8)), [np.zeros(8)])


def test_orbit_base_family_shape():
    family = mm.orbit_base_family(4, seed=11)
    assert len(family) == 5
    v = family[0]
    assert np.min(np.diff(np.sort(v))) > 0
    for w in family:
        assert np.all(np.abs(w) <= 1.0)
    again = mm.orbit_base_family(4, seed=11)
    assert all(np.array_equal(u, v) for u, v in zip(family, again))


# ---------------------------------------------------------------------------
# 1-profile distance
# ---------------------------------------------------------------------------

def test_one_profile_distance_of_identical_matrices():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    cfg = mm.SamplingConfig(count=30, seed=2)
    assert mm.one_profile_distance(m, m, cfg) == 0.0


def test_one_profile_distance_exact_orbit_relabeling_is_zero():
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=17)
    c4 = mm.adjacency(mm.cycle_graph(4))
    relabeled = mm.MeasuredMatrix(
        mm.relabel_matrix(c4.entries, np.array([2, 3, 0, 1])))
    assert mm.one_profile_distance(c4, relabeled, cfg) == 0.0


def test_one_profile_distance_separates_c4_from_p4():
    # Regression baseline: witnessed numerically with this fixed seed.
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=11)
    c4 = mm.adjacency(mm.cycle_graph(4))
    p4 = mm.adjacency(mm.path_graph(4))
    d = mm.one_profile_distance(c4, p4, cfg)
    assert d > 1e-9
    assert d == pytest.approx(0.5, abs=1e-9)


def test_exact_orbit_invariance_across_random_relabelings():
    rng = np.random.default_rng(32)
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=7)
    for n in (3, 4, 5):
        a = rng.standard_normal((n, n))
        sigma = rng.permutation(n)
        ma = mm.MeasuredMatrix(a)
        mb = mm.MeasuredMatrix(mm.relabel_matrix(a, sigma))
        assert mm.one_profile_distance(ma, mb, cfg) == 0.0


def test_one_profile_triangle_inequality_on_fixed_samples():
    cfg = mm.SamplingConfig(count=25, seed=13)
    rng = np.random.default_rng(33)
    ms = [mm.MeasuredMatrix(rng.standard_normal((4, 4))) for _ in range(3)]
    d01 = mm.one_profile_distance(ms[0], ms[1], cfg)
    d12 = mm.one_profile_distance(ms[1], ms[2], cfg)
    d02 = mm.one_profile_distance(ms[0], ms[2], cfg)
    assert d02 <= d01 + d12 + 1e-9
    assert d01 == mm.one_profile_distance(ms[1], ms[0], cfg)


def test_unknown_mode_rejected():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    with pytest.raises(ValueError):
        mm.one_profile_distance(m, m, mm.SamplingConfig(mode="bogus"))


def test_cross_size_comparison_supported():
    cfg = mm.SamplingConfig(count=20, seed=4)
    k4 = mm.adjacency(mm.complete_graph(4))
    k6 = mm.adjacency(mm.complete_graph(6))
    assert 0.0 <= mm.one_profile_distance(k4, k6, cfg) <= 1.0


# ---------------------------------------------------------------------------
# action distance
# ---------------------------------------------------------------------------

def test_action_distance_of_identical_matrices():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    cfg = mm.SamplingConfig(count=20, seed=2)
    result = mm.action_distance(m, m, 3, cfg)
    assert result.value == 0.0
    assert result.tail_bound == 0.125


def test_one_profile_bounded_by_twice_action_distance():
    rng = np.random.default_rng(34)
    cfg = mm.SamplingConfig(count=20, seed=8)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        ma = mm.MeasuredMatrix(rng.standard_normal((n, n)))
        mb = mm.MeasuredMatrix(rng.standard_normal((n, n)))
        ds = mm.one_profile_distance(ma, mb, cfg)
        dm = mm.action_distance(ma, mb, 2, cfg)
        assert ds <= 2.0 * dm.value


def test_truncation_tail_bound():
    rng = np.random.default_rng(35)
    cfg = mm.SamplingConfig(count=15, seed=9)
    ma = mm.MeasuredMatrix(rng.standard_normal((3, 3)))
    mb = mm.MeasuredMatrix(rng.standard_normal((3, 3)))
    d2 = mm.action_distance(ma, mb, 2, cfg)
    d4 = mm.action_distance(ma, mb, 4, cfg)
    assert abs(d2.value - d4.value) <= 2.0 ** -2
    assert d4.tail_bound == 2.0 ** -4


def test_action_distance_requires_sampled_mode():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    with pytest.raises(ValueError):
        mm.action_distance(m, m, 2, mm.SamplingConfig(mode="exact_orbit"))
    with pytest.raises(ValueError):
        mm.action_distance(m, m, 0, mm.SamplingConfig())


# ---------------------------------------------------------------------------
# config block
# ---------------------------------------------------------------------------

def test_sampling_config_round_trip():
    cfg = mm.SamplingConfig(count=77, seed=5, metric="chebyshev",
                            mode="exact_orbit", kmax=2)
    assert mm.SamplingConfig.from_text(cfg.to_text()) == cfg


def test_sampling_config_missing_field_is_named():
    text = "count 10\nseed 3\nmetric euclidean\nmode sampled\n"
    with pytest.raises(ValueError, match="kmax"):
        mm.SamplingConfig.from_text(text)
