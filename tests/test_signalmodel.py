import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, GroundTruth, NodeProfile, SnapshotSource,
                      benchmark_profile, is_primitive)
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
    # the second is off by 4e-6, inside allclose's default relative tolerance
    for cov in ([[1.0, 0.2], [0.3, 1.0]], [[2.0, 0.5], [0.500004, 1.0]]):
        with pytest.raises(ConfigError, match="symmetric"):
            NodeProfile(covariance=np.array(cov), step_size=0.1, noise_variance=0.1)
    with pytest.raises(ConfigError):
        NodeProfile(covariance=np.eye(2), step_size=0.0, noise_variance=0.1)
    for mu, noise in ((0.1, -0.1), (np.inf, 0.1), (np.nan, 0.1), (0.1, np.nan),
                      (0.1, np.inf)):
        with pytest.raises(ConfigError):
            NodeProfile(covariance=np.eye(2), step_size=mu, noise_variance=noise)
    for cov in (-np.eye(2), np.diag([1.0, 0.0]), np.ones((2, 2)), np.zeros((0, 0))):
        with pytest.raises(ConfigError):
            NodeProfile(covariance=cov, step_size=0.1, noise_variance=0.1)


def test_source_covariance_roots_square_back():
    rng = np.random.default_rng(0)
    covs = [random_spd(4, rng) for _ in range(3)]
    profiles = [NodeProfile(covariance=c, step_size=0.1, noise_variance=0.1) for c in covs]
    source = SnapshotSource(profiles, GroundTruth(np.zeros(4)), master_seed=0)
    for root, cov in zip(source._sqrts, covs):
        npt.assert_allclose(root @ root, cov, atol=1e-12)


def test_source_rejects_an_indefinite_covariance_naming_its_node():
    # NodeProfile refuses it, so a duck-typed profile carries it in
    profiles = _profiles(n=5)
    profiles[3] = SimpleNamespace(covariance=np.diag([1.0, -0.5]), dim=2,
                                  step_size=0.05, noise_variance=0.1)
    with pytest.raises(ConfigError, match="node 3 is not positive definite"):
        SnapshotSource(profiles, GroundTruth(np.array([1.0, -2.0])), 0)


def test_same_seed_bit_identical():
    profiles = _profiles()
    truth = GroundTruth(np.array([1.0, -2.0]))
    one = SnapshotSource(profiles, truth, master_seed=42)
    two = SnapshotSource(profiles, truth, master_seed=42)
    for b in (0, 1):
        for x1, x2 in zip(one.block([0, 3], b), two.block([0, 3], b)):
            npt.assert_array_equal(x1, x2)


def test_streams_disjoint_across_indices():
    source = SnapshotSource(_profiles(), GroundTruth(np.array([1.0, -2.0])), 0)
    u = source.block([0, 1], 0)[0]
    a, b, c = u[0, 0], u[0, 1], u[1, 0]
    e = source.block([0], 1)[0][0, 0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, e)


def test_noiseless_data_is_exact_projection():
    profiles = _profiles(noise=0.0)
    truth = GroundTruth(np.array([0.5, -1.5]))
    source = SnapshotSource(profiles, truth, master_seed=7)
    u, d = source.block([0, 2], 0)
    npt.assert_array_equal(d, u @ truth.vector)


def test_zero_truth_leaves_pure_noise():
    # d(0) is the noise itself, the last of each node's M + 1 normals scaled
    # by sigma_v, and d(w0) - d(0) = u @ w0, since the same streams produce
    # u and the noise
    profiles = _profiles(noise=0.3)
    w = np.array([0.5, -1.5])
    with_truth = SnapshotSource(profiles, GroundTruth(w), master_seed=7)
    zero_truth = SnapshotSource(profiles, GroundTruth(np.zeros(2)), master_seed=7)
    u1, d1 = with_truth.block([2], 0)
    u0, d0 = zero_truth.block([2], 0)
    npt.assert_array_equal(u1, u0)
    key = np.random.SeedSequence(7).generate_state(2, np.uint64)
    counter = np.array([0, 0, 0, 2], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    z = rng.standard_normal((BLOCK, len(profiles), 3))
    npt.assert_array_equal(d0[0], np.sqrt(0.3) * z[..., 2])
    npt.assert_allclose(d1 - d0, u1 @ w, atol=1e-15)


def test_sample_covariance_matches_model():
    cov = np.diag([2.0, 4.0])
    profiles = [NodeProfile(covariance=cov, step_size=0.1, noise_variance=0.1)]
    source = SnapshotSource(profiles, GroundTruth(np.zeros(2)), master_seed=1)
    draws = 100000
    u = _regressors(source, draws)[:, 0]
    sample = u.T @ u / draws
    npt.assert_allclose(np.diag(sample), [2.0, 4.0], rtol=0.05)
    assert abs(sample[0, 1]) < 0.05 * 4.0


def test_sample_covariance_matches_each_nodes_own_model():
    # distinct non-diagonal R_k per node: a node or axis mix-up in the
    # stacked colouring product shows as a covariance of the wrong node
    rng = np.random.default_rng(4)
    covs = [random_spd(3, rng) for _ in range(4)]
    profiles = [NodeProfile(covariance=c, step_size=0.1, noise_variance=0.1) for c in covs]
    source = SnapshotSource(profiles, GroundTruth(np.zeros(3)), master_seed=2)
    draws = 100000
    u = _regressors(source, draws)
    for k, cov in enumerate(covs):
        sample = u[:, k].T @ u[:, k] / draws
        npt.assert_allclose(sample, cov, rtol=0.05, atol=0.05 * np.abs(cov).max())


def test_diagonal_colouring_is_an_exact_scaling():
    # diagonal covariances colour by sqrt(diag R_k) bit for bit, on z redrawn
    # here from the documented stream: key SeedSequence(seed) state, counter
    # [0, 0, block, trial], BLOCK x N x (M + 1) standard normals
    _, profiles, truth = benchmark_profile(n_nodes=5, dim=4, seed=1)
    seed, n, m = 8, len(profiles), truth.dim
    source = SnapshotSource(profiles, truth, master_seed=seed)
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    scale = np.sqrt([np.diag(p.covariance) for p in profiles])
    u = source.block([5, 0], 3)[0]
    for j, trial in enumerate((5, 0)):
        counter = np.array([0, 0, 3, trial], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
        z = rng.standard_normal((BLOCK, n, m + 1))
        npt.assert_array_equal(u[j], z[..., :m] * scale)


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


def _assert_batch_rows_regenerate(source):
    # a trial drawn alone equals its row in any batch: trials regenerate in
    # isolation, so outputs cannot depend on how trials are grouped
    n, m = len(source.profiles), source.truth.dim
    u, d = source.block([4, 1, 7], 2)
    assert u.shape == (3, BLOCK, n, m) and d.shape == (3, BLOCK, n)
    for j, trial in enumerate((4, 1, 7)):
        for batched, alone in zip((u, d), source.block([trial], 2)):
            npt.assert_array_equal(alone[0], batched[j])


def test_snapshot_is_a_slice_of_its_block():
    _assert_batch_rows_regenerate(
        SnapshotSource(_profiles(), GroundTruth(np.array([1.0, -2.0])), 3))


def test_batch_invariance_with_per_node_full_covariances():
    # the colouring runs one BLAS product per (node, trial); with each node's
    # own non-diagonal R_k it is no longer exact, and must still not depend
    # on the batch
    rng = np.random.default_rng(6)
    profiles = [NodeProfile(covariance=random_spd(4, rng), step_size=0.05, noise_variance=0.1)
                for _ in range(5)]
    _assert_batch_rows_regenerate(
        SnapshotSource(profiles, GroundTruth(rng.standard_normal(4)), 3))


def _whole_batch_block(source, trials, b):
    """The whole-batch draw ``block`` replaced: one (T, BLOCK, N, M + 1)
    normal array for all trials, coloured by one stacked matmul over the
    (N, T, BLOCK, M) view, then d from the whole batch."""
    n, m = len(source.profiles), source.truth.dim
    z = np.empty((len(trials), BLOCK, n, m + 1))
    for j, trial in enumerate(trials):
        counter = np.array([0, 0, b, trial], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=source._key, counter=counter))
        rng.standard_normal(out=z[j])
    u = np.moveaxis(z[..., :m].transpose(2, 0, 1, 3)
                    @ source._sqrts.swapaxes(-1, -2)[:, None], 0, 2)
    noise = source._noise_std * z[..., m]
    return u, np.einsum("...km,m->...k", u, source.truth.vector) + noise


def test_block_equals_the_whole_batch_draw_bit_for_bit():
    # the per-trial draw keeps the bits of one whole-batch draw and product
    rng = np.random.default_rng(24)
    for case in range(36):
        n, m = int(rng.integers(1, 7)), (1, 2, 5, 11)[case % 4]
        full, noiseless = case % 3 == 0, case % 3 == 2
        profiles = [NodeProfile(
            covariance=random_spd(m, rng) if full else np.diag(rng.uniform(0.5, 4.0, m)),
            step_size=0.05, noise_variance=0.0 if noiseless else float(rng.uniform(0.01, 1.0)))
            for _ in range(n)]
        source = SnapshotSource(profiles, GroundTruth(rng.standard_normal(m)),
                                int(rng.integers(0, 2 ** 31)))
        # out of order, with gaps
        trials = [int(t) for t in rng.permutation(40)[:int(rng.integers(1, 12))]]
        b = int(rng.integers(0, 9))
        for got, want in zip(source.block(trials, b), _whole_batch_block(source, trials, b)):
            assert got.shape == want.shape
            npt.assert_array_equal(got, want)


def test_a_shorter_block_is_the_first_rows_of_the_full_block_bit_for_bit():
    # a run's last block draws only the rows the run reads: Philox fills in
    # order, and one row is drawn as two, since a single row would colour
    # through a matrix-vector product that rounds otherwise
    rng = np.random.default_rng(25)
    for m in (1, 2, 5, 11):
        profiles = [NodeProfile(covariance=random_spd(m, rng), step_size=0.05,
                                noise_variance=0.1) for _ in range(4)]
        source = SnapshotSource(profiles, GroundTruth(rng.standard_normal(m)), 9)
        full = source.block([3, 0], 2)
        for rows in (1, 2, 3, 44, 104, BLOCK - 1, BLOCK):
            for got, want in zip(source.block([3, 0], 2, rows), full):
                assert got.shape == want[:, :rows].shape
                npt.assert_array_equal(got, want[:, :rows])
    for rows in (0, BLOCK + 1, 2.0):
        with pytest.raises(ConfigError, match="rows must be an integer"):
            source.block([0], 0, rows)


@pytest.mark.parametrize("trials, b, name", [
    ([0.5], 0, "trial"), ([np.float64(1.0)], 0, "trial"), ([-1], 0, "trial"),
    ([2 ** 64], 0, "trial"), ([True], 0, "trial"), (["3"], 0, "trial"),
    ([0], -1, "block"), ([0], 2 ** 64, "block"), ([0], 1.0, "block"),
], ids=["trial 0.5", "trial float64", "trial -1", "trial 2**64", "trial True",
        "trial str", "block -1", "block 2**64", "block 1.0"])
def test_block_rejects_an_index_outside_the_counter_range(trials, b, name):
    # a float counter word would be truncated to another trial's stream
    source = SnapshotSource(_profiles(), GroundTruth(np.array([1.0, -2.0])), 3)
    bad = trials[0] if name == "trial" else b
    with pytest.raises(ConfigError, match=f"{name} index .* got {re.escape(repr(bad))}$"):
        source.block(trials, b)


@pytest.mark.parametrize("seed", [0.5, True, -1])
def test_source_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # 0.5 drew seed 0's streams, True seed 1's, and -1 failed in SeedSequence
    with pytest.raises(ConfigError, match=f"seed .* got {re.escape(repr(seed))}$"):
        SnapshotSource(_profiles(), GroundTruth(np.array([1.0, -2.0])), seed)


@pytest.mark.parametrize("kwargs, name", [
    ({"seed": -1}, "seed"), ({"seed": 0.5}, "seed"), ({"dim": 2.5}, "dim"),
    ({"dim": 0}, "dim"), ({"n_nodes": 2.5}, "node count"),
], ids=["seed -1", "seed 0.5", "dim 2.5", "dim 0", "nodes 2.5"])
def test_benchmark_profile_rejects_a_count_or_seed_that_is_not_an_integer(kwargs, name):
    # seed -1 failed as a raw ValueError in default_rng
    with pytest.raises(ConfigError, match=f"^{name} must be an integer of at least"):
        benchmark_profile(**kwargs)


def test_block_takes_every_index_of_the_counter_range():
    source = SnapshotSource(_profiles(), GroundTruth(np.array([1.0, -2.0])), 3)
    top = 2 ** 64 - 1
    for x, y in zip(source.block([np.uint64(top), np.int8(2)], top),
                    _whole_batch_block(source, [top, 2], top)):
        npt.assert_array_equal(x, y)


def test_block_working_set_is_one_trial_draw():
    # beyond its outputs u and d a block holds one trial's (BLOCK, N, M + 1)
    # normals and a few (BLOCK, N) temporaries; a (T, BLOCK, N) noise array
    # beside d was 32 of them here, and the whole-batch draw held a
    # (T, BLOCK, N, M + 1) array and a second copy of u (7.3 MB)
    _, profiles, truth = benchmark_profile(n_nodes=20, dim=10, seed=0)
    source = SnapshotSource(profiles, truth, master_seed=5)
    n, m, t = 20, 10, 32
    source.block([0], 0)
    tracemalloc.start()
    try:
        out = source.block(range(t), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    u, d = out
    assert u.shape == (t, BLOCK, n, m) and d.shape == (t, BLOCK, n)
    allowed = u.nbytes + d.nbytes + 8 * (BLOCK * n * (m + 1) + 4 * BLOCK * n)
    assert peak <= allowed


def test_benchmark_profile_shape_and_ranges():
    topology, profiles, truth = benchmark_profile(n_nodes=20, dim=10, seed=0)
    assert topology.n_nodes == 20
    assert is_primitive(topology.adjacency)
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
