import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, GroundTruth, NodeProfile, SnapshotSource,
                      benchmark_profile, covariance_sqrt)
from adaptnet.signalmodel import BLOCK

from conftest import random_spd


def _regressors(source, draws):
    """u of trial 0 at times 0 .. draws - 1, shape (draws, N, M)."""
    blocks = [source.block([0], b)[0][0] for b in range(-(-draws // BLOCK))]
    return np.concatenate(blocks)[:draws]


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
    for cov in (-np.eye(2), np.diag([1.0, 0.0]), np.ones((2, 2)), np.zeros((0, 0))):
        with pytest.raises(ConfigError):
            NodeProfile(covariance=cov, step_size=0.1, noise_variance=0.1)


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
    e = source.snapshot(0, BLOCK)
    assert not np.array_equal(a.u, b.u)
    assert not np.array_equal(a.u, c.u)
    assert not np.array_equal(a.u, e.u)


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
    draws = 100000
    u = _regressors(source, draws)[:, 0]
    sample = u.T @ u / draws
    npt.assert_allclose(np.diag(sample), [2.0, 4.0], rtol=0.05)
    assert abs(sample[0, 1]) < 0.05 * 4.0


def test_cross_node_correlation_small():
    profiles = _profiles(n=2, m=1)
    source = SnapshotSource(profiles, GroundTruth(np.zeros(1)), master_seed=5)
    u = _regressors(source, 100000)
    corr = np.corrcoef(u[:, 0, 0], u[:, 1, 0])[0, 1]
    assert abs(corr) < 0.05


def test_covariance_estimate_rate():
    # max-norm error of the sample covariance shrinks roughly like 1/sqrt(T)
    cov = np.diag([2.0, 4.0])
    profiles = [NodeProfile(covariance=cov, step_size=0.1, noise_variance=0.1)]
    source = SnapshotSource(profiles, GroundTruth(np.zeros(2)), master_seed=9)

    def err(draws):
        u = _regressors(source, draws)[:, 0]
        return np.max(np.abs(u.T @ u / draws - cov))

    e_small, e_big = err(1000), err(100000)
    assert e_big < e_small
    assert e_big < 10 * e_small / np.sqrt(100)


def test_snapshot_is_a_slice_of_its_block():
    source = SnapshotSource(_profiles(), GroundTruth(np.array([1.0, -2.0])), 3)
    u, v, d = source.block([4, 1], 2)
    assert u.shape == (2, BLOCK, 3, 2) and v.shape == d.shape == (2, BLOCK, 3)
    for j, trial in enumerate((4, 1)):
        for i in (0, 5, BLOCK - 1):
            snap = source.snapshot(trial, 2 * BLOCK + i)
            npt.assert_array_equal(snap.u, u[j, i])
            npt.assert_array_equal(snap.v, v[j, i])
            npt.assert_array_equal(snap.d, d[j, i])


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
