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
B and Y from the table rows of ``strategies.slot_masks``: A0^T - M R for
every row, calA^T on the left of the A2 rows and the right of the A1 rows,
and calA^T M S M calA for the A2 rows of Y.  An I slot multiplies nothing
(I x = x exactly), as in the simulator's ``GroupedStep``.  The result is a
``RecursionStack`` of (S, K, n, n) stacks, the one recursion type;
``spectral_radii`` takes every strategy's radius from one batched
eigensolve on it, and ``analyze_network`` is one such pass over all four
strategies.  ``build_error_recursion`` returns the S = 1 stack.  Batched
matmul and eigensolves work block by block, so each strategy gets the bits
it gets alone.

Symmetric form.  When A is exactly symmetric, M R is diagonal in the stack's
coordinates (a shared basis, or M = 1) and every mu_k d_{k,m} <= 1, each
block of B is similar to a symmetric matrix.  With Lambda_m =
diag_k(mu_k d_{k,m}) and Sigma = (I - Lambda_m)^{1/2}, consensus A - Lambda_m
and non-cooperative I - Lambda_m are symmetric already, and ATC's
A (I - Lambda_m) and CTA's (I - Lambda_m) A are XY and YX with X = A Sigma,
Y = Sigma, so both share the spectrum of Sigma A Sigma.  The stack then
carries these symmetric blocks, and the radii come from one eigvalsh call
on them; otherwise from one eigvals call on B.  The conditions read only
the network and the profiles, never the listed strategies.

Mean stability is rho(B) < 1.  ATC and CTA share a spectrum (products taken
in either order), and both are never less stable than the non-cooperative
baseline; consensus carries no such guarantee.  ``analyze_network`` adds the
closed-form step-size bounds (per node; for consensus on an exactly
symmetric A; consensus = diffusion on homogeneous profiles), all read from
one eigvalsh over the covariance stack and at most one solve of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .network import as_combination, is_symmetric
from .signalmodel import is_homogeneous
from .strategies import StrategyKind, slot_masks

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
    ``basis`` = Q, or K = 1 block of n = NM in node order (``basis`` None).
    ``symmetric`` holds a symmetric matrix similar to each block of B where
    the module's symmetric-form conditions hold, else None."""

    strategies: tuple
    transition: np.ndarray
    noise_gram: np.ndarray
    n_nodes: int
    dim: int
    basis: np.ndarray | None = None
    symmetric: np.ndarray | None = None

    @property
    def blocks(self) -> int:
        return self.transition.shape[1]


def build_error_recursions(strategies, matrix, profiles) -> RecursionStack:
    """B = A2^T (A0^T - M R) A1^T and Y = A2^T M S M A2 of every listed
    strategy in one pass, A^T multiplied only in the slots that hold A.  M
    blocks when the covariances share an eigenbasis, one dense block otherwise;
    the symmetric form of B where the module's conditions for it hold."""
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
        at, size = np.kron(a, np.eye(m)).T, n * m
        r_blk = np.zeros((n, m, n, m))
        r_blk[np.arange(n), :, np.arange(n), :] = covs
        r_blk = r_blk.reshape(size, size)
        mu_rep = np.repeat(mu, m)[:, None]
        mr = (mu_rep * r_blk)[None]
        msm = (mu_rep * (np.repeat(noise, m)[:, None] * r_blk) * mu_rep.T)[None]
    else:
        # block m of M R and of M S M: diag_k(g_k d_{k,m}), g = mu and mu^2 s2
        at, size = np.ascontiguousarray(a).T, n
        mr, msm = ((g[:, None] * d).T[:, :, None] * np.eye(n) for g in (mu, mu ** 2 * noise))
    # each row multiplies by A^T only in the slots where its table row puts A
    a1, a0, a2 = slot_masks(strategies)
    shrunk = np.where(a0[:, None, None, None], at - mr, np.eye(size) - mr)
    b = shrunk.copy()
    b[a2] = at @ b[a2]
    b[a1] = b[a1] @ at
    y = np.where(a2[:, None, None, None], at @ msm @ at.T, msm)
    # the symmetric form: Sigma A Sigma where A sits in A1 or A2, A0 - M R otherwise
    symmetric = None
    lam = mr.diagonal(axis1=-2, axis2=-1)
    if (basis is not None or m == 1) and is_symmetric(a) and np.all(lam <= 1.0):
        sigma = np.sqrt(1.0 - lam)
        # sigma_i sigma_j a_ij: the outer product commutes, so it is symmetric bit for bit
        sas = sigma[:, :, None] * sigma[:, None, :] * a
        symmetric = np.where((a1 | a2)[:, None, None, None], sas, shrunk)
    return RecursionStack(tuple(strategies), b, y, n, m, basis, symmetric)


def build_error_recursion(strategy: StrategyKind, matrix, profiles) -> RecursionStack:
    """B and Y for one strategy: the S = 1 stack of ``build_error_recursions``."""
    return build_error_recursions((strategy,), matrix, profiles)


def spectral_radii(stack: RecursionStack) -> np.ndarray:
    """rho(B) of every strategy of the stack, each the largest radius over
    its K blocks: one eigvalsh call on its symmetric form when it has one,
    else one eigvals call on B."""
    if stack.symmetric is not None:
        eigs = np.linalg.eigvalsh(stack.symmetric)
    else:
        eigs = np.linalg.eigvals(stack.transition)
    return np.abs(eigs).max(axis=(-2, -1))


@dataclass(frozen=True)
class StabilityVerdict:
    spectral_radius: float
    stable: bool
    margin: float


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
    ``build_error_recursions`` and one ``spectral_radii`` eigensolve, plus
    the closed-form step-size bounds that apply:

        every network          mu_k < 2 / lambda_max(R_k)
        exactly symmetric A    mu_k < (1 + lambda_min(A)) / lambda_max(R_k)
        homogeneous profiles   mu < min over l != 1 of
                               (1 - |lambda_l(A)|) / (lambda_min(R) + lambda_max(R))

    The first keeps node k stable alone; the second keeps consensus stable
    (an empty interval when lambda_min(A) = -1); below the third consensus
    and diffusion share rho(B), and A = I, with no constraining mode, gives
    +inf.  The bounds take one eigvalsh over the covariance stack and at most
    one solve of A: eigvalsh when A is exactly symmetric, eigvals when only
    the third applies.  A raw A is validated once, by ``as_combination``,
    and passed on."""
    matrix = as_combination(matrix)
    stack = build_error_recursions(tuple(StrategyKind), matrix, profiles)
    radii = spectral_radii(stack).tolist()
    verdicts = {kind: StabilityVerdict(spectral_radius=rho, stable=rho < 1.0, margin=1.0 - rho)
                for kind, rho in zip(stack.strategies, radii)}
    a = matrix.weights
    symmetric, homogeneous = is_symmetric(a), is_homogeneous(profiles)
    r_eigs = np.linalg.eigvalsh(np.array([p.covariance for p in profiles]))
    lam_max = r_eigs[:, -1]
    a_eigs = (np.linalg.eigvalsh(a) if symmetric
              else np.linalg.eigvals(a) if homogeneous else None)
    cons_bounds = (1.0 + a_eigs[0]) / lam_max if symmetric else None
    equality = None
    if homogeneous and np.array_equal(a, np.eye(a.shape[0])):
        equality = float("inf")
    elif homogeneous:
        # drop the mode at 1; the rest constrain mu against lmin + lmax of R
        rest = np.delete(a_eigs, int(np.argmin(np.abs(a_eigs - 1.0))))
        equality = float(np.min(1.0 - np.abs(rest)) / (r_eigs[0, 0] + r_eigs[0, -1]))
    return StabilityReport(verdicts=verdicts, noncoop_bounds=2.0 / lam_max,
                           consensus_bounds=cons_bounds, equality_bound=equality)
