"""Mean error dynamics: transition/noise matrices, spectral radii, bounds.

The network error vector stacks the per-node errors w0 - w_k into one NM
vector and evolves in the mean as err_i = B err_{i-1} - y_i with E y y^T = Y.
With M = diag{mu_k I_M}, R = diag{R_k}, S = diag{s2_k R_k} and the
strategy's combination matrices (A1, A0, A2) from the table in
``strategies``, each extended as calA_j = A_j (x) I_M:

    B = calA2^T (calA0^T - M R) calA1^T      Y = calA2^T M S M calA2

so that, with calA = A (x) I_M,

    ATC         B = calA^T (I - M R)      Y = calA^T M S M calA
    CTA         B = (I - M R) calA^T      Y = M S M
    consensus   B = calA^T - M R          Y = M S M
    non-coop    B = I - M R               Y = M S M

Block form.  When the covariances share an orthogonal eigenbasis Q, so that
Q^T R_k Q = diag_m(d_{k,m}) at every node, the rotation I_N (x) Q followed
by the permutation to m-major order splits B and Y exactly into M
independent N x N blocks, one per eigen-coordinate m:

    B_m = A2^T (A0^T - diag_k(mu_k d_{k,m})) A1^T
    Y_m = A2^T diag_k(mu_k^2 s2_k d_{k,m}) A2

Q comes from eigh(sum_k R_k) and is accepted when every Q^T R_k Q is
diagonal to BASIS_TOL relative to its largest entry.  That covers diagonal
covariances and one covariance shared by all nodes, so every input the
config format can express.  Any other input (and M = 1, where the dense
form already is one N x N block) keeps the dense Kronecker form above as a
single block.  Each strategy's B and Y are therefore stacks of K diagonal
blocks of shape (K, n, n): K = M, n = N with the basis Q, or K = 1,
n = NM in node order with no basis.  Both come from the one table
formula; only calA, M R and M S M are formed differently.  rho(B) is the
largest radius over the blocks, and a trace of any series in B and Y is the
sum of the block traces.

One pass per network.  ``build_error_recursions`` computes mu, the noise,
the covariance stack, the basis, M R and M S M once, then every strategy's
B and Y as batched products of ``strategies.combination_stack``, the stacks
the simulator steps with, I slots included (an identity factor is exact):
the table is applied in that one place.  The result is a ``RecursionStack``
of (S, K, n, n) stacks, the one recursion type; ``spectral_radii`` takes
every strategy's radius from one eigvals call on it, and
``analyze_network`` is one such pass over all four strategies.
``build_error_recursion`` returns the S = 1 stack.
Batched matmul and eigvals work block by block, so each strategy gets the
bits it gets alone.

Mean stability is rho(B) < 1.  ATC and CTA share a spectrum (products taken
in either order), and both are never less stable than the non-cooperative
baseline; consensus carries no such guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedInputError
from .network import as_combination
from .signalmodel import check_covariance, is_homogeneous
from .strategies import StrategyKind, combination_stack

# largest off-diagonal entry of Q^T R_k Q, relative to its largest entry, for
# which the covariances count as sharing the eigenbasis Q
BASIS_TOL = 1e-12


def _shared_basis(covs: np.ndarray):
    """(Q, d) with Q^T R_k Q = diag(d[k]) at every node to BASIS_TOL, Q from
    eigh(sum_k R_k); (None, None) when M = 1 or no such basis exists."""
    m = covs.shape[-1]
    if m == 1:
        return None, None
    q = np.linalg.eigh(covs.sum(axis=0))[1]
    rot = q.T @ covs @ q
    d = rot.diagonal(axis1=1, axis2=2)
    off = np.abs(rot * (1.0 - np.eye(m))).max(axis=(1, 2))
    if np.all(off <= BASIS_TOL * np.abs(rot).max(axis=(1, 2))):
        return q, d
    return None, None


@dataclass(frozen=True, eq=False)
class RecursionStack:
    """B and Y of S strategies on one network, built on one shared basis:
    (S, K, n, n) stacks whose entry s holds the diagonal blocks of
    ``strategies[s]``, K = M blocks of n = N in the shared eigenbasis
    ``basis`` = Q, or K = 1 block of n = NM in node order (``basis`` None)."""

    strategies: tuple
    transition: np.ndarray
    noise_gram: np.ndarray
    n_nodes: int
    dim: int
    basis: np.ndarray | None = None

    @property
    def blocks(self) -> int:
        return self.transition.shape[1]


def build_error_recursions(strategies, matrix, profiles) -> RecursionStack:
    """B = A2^T (A0^T - M R) A1^T and Y = A2^T M S M A2 of every listed
    strategy in one pass, as batched products of ``combination_stack``.  M
    blocks when the covariances share an eigenbasis, one dense block otherwise."""
    a = as_combination(matrix).weights
    n = len(profiles)
    if a.shape != (n, n):
        raise ConfigError(f"combination matrix {a.shape} does not match {n} profiles")
    m = profiles[0].dim
    if any(p.dim != m for p in profiles):
        raise ConfigError("all nodes must share the regressor dimension")
    mu = np.array([p.step_size for p in profiles])
    noise = np.array([p.noise_variance for p in profiles])
    covs = np.array([p.covariance for p in profiles])
    basis, d = _shared_basis(covs)
    if basis is None:
        # one dense block: calA = A (x) I_M, M R and M S M as row and column
        # scalings of the block-diagonal R
        weights, size = np.kron(a, np.eye(m)), n * m
        r_blk = np.zeros((n, m, n, m))
        r_blk[np.arange(n), :, np.arange(n), :] = covs
        r_blk = r_blk.reshape(size, size)
        mu_rep = np.repeat(mu, m)[:, None]
        mr = (mu_rep * r_blk)[None]
        msm = (mu_rep * (np.repeat(noise, m)[:, None] * r_blk) * mu_rep.T)[None]
    else:
        # block m of M R and of M S M: diag_k(g_k d_{k,m}), g = mu and mu^2 s2
        weights, size = a, n
        mr, msm = ((g[:, None] * d).T[:, :, None] * np.eye(n) for g in (mu, mu ** 2 * noise))
    # the simulator's transposed (A1, A0, A2), broadcast over the K blocks
    a1t, a0t, a2t = (x[:, None] for x in combination_stack(strategies, weights, size))
    b = a2t @ (a0t - mr) @ a1t
    y = a2t @ msm @ a2t.swapaxes(-1, -2)
    return RecursionStack(tuple(strategies), b, y, n, m, basis)


def build_error_recursion(strategy: StrategyKind, matrix, profiles) -> RecursionStack:
    """B and Y for one strategy: the S = 1 stack of ``build_error_recursions``."""
    return build_error_recursions((strategy,), matrix, profiles)


def spectral_radius(matrix) -> float:
    """Largest eigenvalue magnitude of a square matrix or of a (K, n, n)
    stack of diagonal blocks, the largest over the blocks."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix)))))


def spectral_radii(transitions: np.ndarray) -> np.ndarray:
    """rho(B) of every strategy of an (S, K, n, n) stack from one eigvals
    call, each the largest radius over its K blocks."""
    return np.abs(np.linalg.eigvals(transitions)).max(axis=(-2, -1))


@dataclass(frozen=True)
class StabilityVerdict:
    spectral_radius: float
    stable: bool
    margin: float


def _lambda_max(profiles) -> np.ndarray:
    """Largest eigenvalue of every node's covariance, one eigvalsh call."""
    return np.linalg.eigvalsh(np.array([p.covariance for p in profiles]))[:, -1]


def noncoop_step_bounds(profiles) -> np.ndarray:
    """Per-node open upper bounds: mu_k < 2 / lambda_max(R_k) keeps the node stable."""
    return 2.0 / _lambda_max(profiles)


def consensus_symmetric_bound(matrix, profiles) -> np.ndarray:
    """Per-node bounds (1 + lambda_min(A)) / lambda_max(R_k), valid for symmetric A.

    The interval is empty (bound 0) when lambda_min(A) = -1.
    """
    a = as_combination(matrix).weights
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise UnsupportedInputError("consensus step-size bound is only proven for symmetric A")
    lam_min = np.linalg.eigvalsh(a)[0]
    return (1.0 + lam_min) / _lambda_max(profiles)


def diffusion_equality_bound(matrix, covariance) -> float:
    """Step-size threshold below which consensus and diffusion share rho(B)
    (homogeneous profiles): min over l != 1 of (1-|lambda_l(A)|) / (lmin+lmax).

    A = I has no constraining mode; returns +inf.
    """
    a = as_combination(matrix).weights
    r_eigs = np.linalg.eigvalsh(check_covariance(covariance))
    if np.array_equal(a, np.eye(a.shape[0])):
        return float("inf")
    eigs = np.linalg.eigvals(a)
    drop = int(np.argmin(np.abs(eigs - 1.0)))
    rest = np.delete(eigs, drop)
    denom = r_eigs[0] + r_eigs[-1]
    return float(np.min(1.0 - np.abs(rest)) / denom)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Per-strategy spectral radii plus the closed-form step-size bounds."""

    verdicts: dict
    noncoop_bounds: np.ndarray
    consensus_bounds: np.ndarray | None
    equality_bound: float | None

    def rows(self) -> list:
        return [(kind.value, verdict.spectral_radius,
                 "stable" if verdict.stable else "UNSTABLE", verdict.margin)
                for kind, verdict in self.verdicts.items()]


def analyze_network(matrix, profiles) -> StabilityReport:
    """Spectral verdicts for all four strategies, from one pass of
    ``build_error_recursions`` and one eigvals call, plus every applicable
    bound.  A raw A is validated once, by ``as_combination``, and passed on."""
    matrix = as_combination(matrix)
    stack = build_error_recursions(tuple(StrategyKind), matrix, profiles)
    radii = spectral_radii(stack.transition).tolist()
    verdicts = {kind: StabilityVerdict(spectral_radius=rho, stable=rho < 1.0, margin=1.0 - rho)
                for kind, rho in zip(stack.strategies, radii)}
    try:
        cons_bounds = consensus_symmetric_bound(matrix, profiles)
    except UnsupportedInputError:
        cons_bounds = None
    equality = (diffusion_equality_bound(matrix, profiles[0].covariance)
                if is_homogeneous(profiles) else None)
    return StabilityReport(verdicts=verdicts,
                           noncoop_bounds=noncoop_step_bounds(profiles),
                           consensus_bounds=cons_bounds,
                           equality_bound=equality)
