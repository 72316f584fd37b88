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

Mean stability is rho(B) < 1.  ATC and CTA share a spectrum (products taken
in either order), and both are never less stable than the non-cooperative
baseline; consensus carries no such guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnsupportedInputError
from .signalmodel import is_homogeneous
from .strategies import StrategyKind, uses_a

EQUALITY_TOL = 1e-9


def _weights(matrix) -> np.ndarray:
    return np.asarray(getattr(matrix, "weights", matrix), dtype=float)


@dataclass(frozen=True, eq=False)
class ErrorRecursion:
    """Pair (B, Y) driving the mean-square error dynamics."""

    transition: np.ndarray
    noise_gram: np.ndarray
    n_nodes: int
    dim: int
    strategy: StrategyKind


def build_error_recursion(strategy: StrategyKind, matrix, profiles) -> ErrorRecursion:
    """Assemble B and Y for one strategy from the combination matrix and the
    per-node profiles (dense Kronecker extension)."""
    a = _weights(matrix)
    n = len(profiles)
    if a.shape != (n, n):
        raise ConfigError(f"combination matrix {a.shape} does not match {n} profiles")
    m = profiles[0].dim
    if any(p.dim != m for p in profiles):
        raise ConfigError("all nodes must share the regressor dimension")
    nm = n * m
    mu_blocks = np.concatenate([np.full(m, p.step_size) for p in profiles])
    mstep = np.diag(mu_blocks)
    r_blk = np.zeros((nm, nm))
    s_blk = np.zeros((nm, nm))
    for k, p in enumerate(profiles):
        sl = slice(k * m, (k + 1) * m)
        r_blk[sl, sl] = p.covariance
        s_blk[sl, sl] = p.noise_variance * p.covariance
    a1, a0, a2 = uses_a(strategy)
    cal_at = np.kron(a, np.eye(m)).T
    # an I slot is skipped, not multiplied, so no product rounds B or Y
    b = (cal_at if a0 else np.eye(nm)) - mstep @ r_blk
    if a1:
        b = b @ cal_at
    y = mstep @ s_blk @ mstep
    if a2:
        b = cal_at @ b
        y = cal_at @ y @ cal_at.T
    return ErrorRecursion(b, y, n, m, strategy)


def spectral_radius(matrix) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix)))))


@dataclass(frozen=True)
class StabilityVerdict:
    spectral_radius: float
    stable: bool
    margin: float


def stability_verdict(matrix) -> StabilityVerdict:
    rho = spectral_radius(matrix)
    return StabilityVerdict(spectral_radius=rho, stable=rho < 1.0, margin=1.0 - rho)


def noncoop_step_bounds(profiles) -> np.ndarray:
    """Per-node open upper bounds: mu_k < 2 / lambda_max(R_k) keeps the node stable."""
    return np.array([2.0 / np.linalg.eigvalsh(p.covariance)[-1] for p in profiles])


def consensus_symmetric_bound(matrix, profiles) -> np.ndarray:
    """Per-node bounds (1 + lambda_min(A)) / lambda_max(R_k), valid for symmetric A.

    The interval is empty (bound 0) when lambda_min(A) = -1.
    """
    a = _weights(matrix)
    if not np.allclose(a, a.T, atol=1e-12):
        raise UnsupportedInputError("consensus step-size bound is only proven for symmetric A")
    lam_min = np.linalg.eigvalsh(a)[0]
    return np.array([(1.0 + lam_min) / np.linalg.eigvalsh(p.covariance)[-1]
                     for p in profiles])


def diffusion_equality_bound(matrix, covariance) -> float:
    """Step-size threshold below which consensus and diffusion share rho(B)
    (homogeneous profiles): min over l != 1 of (1-|lambda_l(A)|) / (lmin+lmax).

    A = I has no constraining mode; returns +inf.
    """
    a = _weights(matrix)
    if np.array_equal(a, np.eye(a.shape[0])):
        return float("inf")
    eigs = np.linalg.eigvals(a)
    drop = int(np.argmin(np.abs(eigs - 1.0)))
    rest = np.delete(eigs, drop)
    r_eigs = np.linalg.eigvalsh(np.asarray(covariance, dtype=float))
    denom = r_eigs[0] + r_eigs[-1]
    return float(np.min(1.0 - np.abs(rest)) / denom)


def block_norm(matrix, n_blocks: int, block_dim: int) -> float:
    """Largest block-row sum of per-block spectral norms."""
    x = np.asarray(matrix)
    if x.shape != (n_blocks * block_dim, n_blocks * block_dim):
        raise ConfigError(f"matrix shape {x.shape} is not {n_blocks}x{n_blocks} "
                          f"blocks of size {block_dim}")
    total = np.zeros(n_blocks)
    for k in range(n_blocks):
        for l in range(n_blocks):
            blk = x[k * block_dim:(k + 1) * block_dim, l * block_dim:(l + 1) * block_dim]
            total[k] += np.linalg.norm(blk, 2)
    return float(total.max())


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
    """Spectral verdicts for all four strategies plus every applicable bound."""
    verdicts = {}
    for kind in StrategyKind:
        rec = build_error_recursion(kind, matrix, profiles)
        verdicts[kind] = stability_verdict(rec.transition)
    a = _weights(matrix)
    try:
        cons_bounds = consensus_symmetric_bound(matrix, profiles)
    except UnsupportedInputError:
        cons_bounds = None
    equality = (diffusion_equality_bound(a, profiles[0].covariance)
                if is_homogeneous(profiles) else None)
    return StabilityReport(verdicts=verdicts,
                           noncoop_bounds=noncoop_step_bounds(profiles),
                           consensus_bounds=cons_bounds,
                           equality_bound=equality)
