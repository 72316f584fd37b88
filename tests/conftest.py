import numpy as np
import pytest

from adaptnet import (GroundTruth, NodeProfile, build_combination_matrix,
                      random_connected_topology)
from adaptnet.strategies import uses_a


def random_left_stochastic(n, rng):
    """Dense positive column-stochastic matrix (self-loops everywhere)."""
    w = rng.random((n, n)) + 0.05
    return w / w.sum(axis=0, keepdims=True)


def random_symmetric_stochastic(n, rng, edge_prob=0.6):
    """Symmetric doubly-stochastic matrix on a random connected topology."""
    topo = random_connected_topology(n, edge_prob, rng)
    return build_combination_matrix(topo, "metropolis").weights


def random_spd(m, rng, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    vals = rng.uniform(lo, hi, size=m)
    return (q * vals) @ q.T


def stable_profiles(n, m, rng, homogeneous=False, mu_lo=0.05, mu_hi=0.95,
                    diagonal=False):
    """Per-node profiles with step sizes strictly inside (0, 2/lam_max)."""
    if homogeneous:
        cov = np.diag(rng.uniform(0.5, 3.0, size=m)) if diagonal else random_spd(m, rng)
        bound = 2.0 / np.linalg.eigvalsh(cov)[-1]
        mu = float(rng.uniform(mu_lo, mu_hi) * bound)
        return [NodeProfile(covariance=cov.copy(), step_size=mu,
                            noise_variance=float(rng.uniform(0.01, 0.5)))
                for _ in range(n)]
    out = []
    for _ in range(n):
        cov = np.diag(rng.uniform(0.5, 3.0, size=m)) if diagonal else random_spd(m, rng)
        bound = 2.0 / np.linalg.eigvalsh(cov)[-1]
        out.append(NodeProfile(covariance=cov, step_size=float(rng.uniform(mu_lo, mu_hi) * bound),
                               noise_variance=float(rng.uniform(0.01, 0.5))))
    return out


def reference_recursion(strategy, a, profiles):
    """(B, Y) as one dense NM x NM pair in node order, by the Kronecker
    construction calA_j = A_j (x) I_M with no block split."""
    n, m = len(profiles), profiles[0].dim
    nm = n * m
    mstep = np.diag(np.concatenate([np.full(m, p.step_size) for p in profiles]))
    r_blk = np.zeros((nm, nm))
    s_blk = np.zeros((nm, nm))
    for k, p in enumerate(profiles):
        sl = slice(k * m, (k + 1) * m)
        r_blk[sl, sl] = p.covariance
        s_blk[sl, sl] = p.noise_variance * p.covariance
    a1, a0, a2 = uses_a(strategy)
    cal_at = np.kron(a, np.eye(m)).T
    b = (cal_at if a0 else np.eye(nm)) - mstep @ r_blk
    if a1:
        b = b @ cal_at
    y = mstep @ s_blk @ mstep
    if a2:
        b = cal_at @ b
        y = cal_at @ y @ cal_at.T
    return b, y


def reference_blocks(strategy, a, profiles, basis):
    """(B_m, Y_m) as (M, N, N) stacks in the shared eigenbasis ``basis``, by
    the table formula with each I slot skipped rather than multiplied."""
    n = len(profiles)
    mu = np.array([p.step_size for p in profiles])
    noise = np.array([p.noise_variance for p in profiles])
    covs = np.array([p.covariance for p in profiles])
    d = (basis.T @ covs @ basis).diagonal(axis1=1, axis2=2)
    mr, msm = ((g[:, None] * d).T[:, :, None] * np.eye(n) for g in (mu, mu ** 2 * noise))
    a1, a0, a2 = uses_a(strategy)
    cal_at = a.T
    b = (cal_at if a0 else np.eye(n)) - mr
    if a1:
        b = b @ cal_at
    y = msm
    if a2:
        b = cal_at @ b
        y = cal_at @ msm @ cal_at.T
    return b, y


def full_map(stack, basis):
    """The NM x NM matrix in node order from a (K, n, n) stack of diagonal
    blocks: the one block when basis is None, else the M blocks placed on
    their eigen-coordinates and rotated back by I_N (x) Q."""
    if basis is None:
        return stack[0]
    m, n = stack.shape[:2]
    rotated = np.zeros((n, m, n, m))
    for j in range(m):
        rotated[:, j, :, j] = stack[j]
    rot = np.kron(np.eye(n), basis)
    return rot @ rotated.reshape(n * m, n * m) @ rot.T


def dense_radius(matrix):
    """Largest eigenvalue magnitude of a square matrix."""
    return np.abs(np.linalg.eigvals(matrix)).max()


def unit_truth(m):
    return GroundTruth(np.full(m, 1.0 / np.sqrt(m)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
