import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, GroundTruth, NodeProfile, SnapshotSource,
                      benchmark_profile, covariance_sqrt, generate_snapshot)

from conftest import random_spd


def _profiles(n=3, m=2, noise=0.1, mu=0.05):
    cov = np.diag([2.0, 4.0])[:m, :m]
    return [NodeProfile(covariance=cov, step_size=mu, noise_variance=noise)
            for _ in range(n)]


def test_ground_truth_flattens_and_checks():
    w = GroundTruth(np.array([[1.0], [2.0]]))
    assert w.vector.shape == (2,)
    assert w.dim == 2
    with pytest.raises(ConfigError):
        GroundTruth(np.array([1.0, np.nan]))


def test_node_profile_validation():
    with pytest.raises(ConfigError):
        NodeProfile(covariance=np.array([[1.0, 0.2], [0.3, 1.0]]),
                    step_size=0.1, noise_variance=0.1)
    with pytest.raises(ConfigError):
        NodeProfile(covariance=np.eye(2), step_size=0.0, noise_variance=0.1)
    for mu, noise in ((0.1, -0.1), (np.inf, 0.1), (np.nan, 0.1), (0.1, np.nan),
                      (0.1, np.inf)):
        with pytest.raises(ConfigError):
            NodeProfile(covariance=np.eye(2), step_size=mu, noise_variance=noise)


def test_covariance_sqrt_squares_back():
    rng = np.random.default_rng(0)
    cov = random_spd(4, rng)
    root = covariance_sqrt(cov)
    npt.assert_allclose(root @ root, cov, atol=1e-12)


def test_covariance_sqrt_rejects_indefinite():
    with pytest.raises(ConfigError, match="node 3"):
        covariance_sqrt(np.diag([1.0, -0.5]), node=3)


def test_same_seed_bit_identical():
    profiles = _profiles()
    truth = GroundTruth(np.array([1.0, -2.0]))
    one = SnapshotSource(profiles, truth, master_seed=42)
    two = SnapshotSource(profiles, truth, master_seed=42)
    for trial in (0, 3):
        for time in (0, 17):
            s1 = one.snapshot(trial, time)
            s2 = two.snapshot(trial, time)
            npt.assert_array_equal(s1.u, s2.u)
            npt.assert_array_equal(s1.d, s2.d)


def test_streams_disjoint_across_indices():
    source = SnapshotSource(_profiles(), GroundTruth(np.array([1.0, -2.0])), 0)
    a = source.snapshot(0, 0)
    b = source.snapshot(0, 1)
    c = source.snapshot(1, 0)
    assert not np.array_equal(a.u, b.u)
    assert not np.array_equal(a.u, c.u)


def test_noiseless_data_is_exact_projection():
    profiles = _profiles(noise=0.0)
    truth = GroundTruth(np.array([0.5, -1.5]))
    source = SnapshotSource(profiles, truth, master_seed=7)
    snap = source.snapshot(0, 0)
    npt.assert_array_equal(snap.d, snap.u @ truth.vector)


def test_zero_truth_leaves_pure_noise():
    # d(w0) - d(0) = u @ w0 exactly, since the same streams produce u and v
    profiles = _profiles(noise=0.3)
    w = np.array([0.5, -1.5])
    with_truth = SnapshotSource(profiles, GroundTruth(w), master_seed=7)
    zero_truth = SnapshotSource(profiles, GroundTruth(np.zeros(2)), master_seed=7)
    s1 = with_truth.snapshot(2, 5)
    s0 = zero_truth.snapshot(2, 5)
    npt.assert_array_equal(s1.u, s0.u)
    npt.assert_allclose(s1.d - s0.d, s1.u @ w, atol=1e-15)


def test_sample_covariance_matches_model():
    cov = np.diag([2.0, 4.0])
    profiles = [NodeProfile(covariance=cov, step_size=0.1, noise_variance=0.1)]
    source = SnapshotSource(profiles, GroundTruth(np.zeros(2)), master_seed=1)
    total = np.zeros((2, 2))
    draws = 100000
    for i in range(draws):
        u = source.snapshot(0, i).u[0]
        total += np.outer(u, u)
    sample = total / draws
    npt.assert_allclose(np.diag(sample), [2.0, 4.0], rtol=0.05)
    assert abs(sample[0, 1]) < 0.05 * 4.0


def test_cross_node_correlation_small():
    profiles = _profiles(n=2, m=1)
    source = SnapshotSource(profiles, GroundTruth(np.zeros(1)), master_seed=5)
    draws = 100000
    xs = np.empty(draws)
    ys = np.empty(draws)
    for i in range(draws):
        u = source.snapshot(0, i).u
        xs[i], ys[i] = u[0, 0], u[1, 0]
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) < 0.05


def test_covariance_estimate_rate():
    # max-norm error of the sample covariance shrinks roughly like 1/sqrt(T)
    cov = np.diag([2.0, 4.0])
    profiles = [NodeProfile(covariance=cov, step_size=0.1, noise_variance=0.1)]
    source = SnapshotSource(profiles, GroundTruth(np.zeros(2)), master_seed=9)

    def err(draws):
        total = np.zeros((2, 2))
        for i in range(draws):
            u = source.snapshot(0, i).u[0]
            total += np.outer(u, u)
        return np.max(np.abs(total / draws - cov))

    e_small, e_big = err(1000), err(100000)
    assert e_big < e_small
    assert e_big < 10 * e_small / np.sqrt(100)


def test_generate_snapshot_accepts_generator():
    profiles = _profiles()
    truth = GroundTruth(np.array([1.0, 2.0]))
    rng = np.random.default_rng(3)
    snap = generate_snapshot(profiles, truth, rng)
    assert snap.u.shape == (3, 2)
    assert snap.d.shape == (3,)


def test_benchmark_profile_shape_and_ranges():
    topology, profiles, truth = benchmark_profile(n_nodes=20, dim=10, seed=0)
    assert topology.n_nodes == 20
    assert topology.is_connected()
    assert len(profiles) == 20
    assert np.linalg.norm(truth.vector) == pytest.approx(1.0, abs=1e-12)
    for p in profiles:
        diag = np.diag(p.covariance)
        assert np.all(diag >= 2.0) and np.all(diag <= 4.0)
        assert 1e-3 <= p.noise_variance <= 1e-1
        assert p.step_size == pytest.approx(0.02)


def test_benchmark_profile_reproducible():
    t1, p1, w1 = benchmark_profile(seed=11)
    t2, p2, w2 = benchmark_profile(seed=11)
    npt.assert_array_equal(t1.adjacency, t2.adjacency)
    npt.assert_array_equal(w1.vector, w2.vector)
    for a, b in zip(p1, p2):
        npt.assert_array_equal(a.covariance, b.covariance)
        assert a.noise_variance == b.noise_variance
