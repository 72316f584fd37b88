"""Steady-state mean-square deviation (MSD) theory.

Both routes read a strategy from the (A1, A0, A2) table in ``strategies``:
the error recursion of ``spectra`` is

    B = A2^T (A0^T - M R) A1^T      Y = A2^T M S M A2

(each A_j extended by (x) I_M), and two independent evaluation routes are
kept deliberately separate so they can cross-validate each other:

* series route, valid for any stable heterogeneous network:
      MSD_k = sum_j  Tr[ (e_k e_k^T (x) I_M)  B^j Y B^Tj ]
  with the network MSD the average over nodes, the series summed by
  doubling (squared Smith iteration) and no eigendecomposition.  It runs on
  the (K, n, n) block stacks of ``spectra``: when the covariances share an
  eigenbasis Q (diagonal or common covariances), on M independent N x N
  blocks B_m, Y_m, where MSD_k = sum_m [sum_j B_m^j Y_m B_m^Tj]_kk because
  the rotation I_N (x) Q keeps each node's trace; otherwise on one dense
  NM x NM block.  In the shared eigenbasis the per-mode MSD_k(m), node k's
  share from eigen-coordinate m, is thus the (k, k) entry of series block m,
  the quantity the eigen route's per-mode terms are checked against.  The
  stopping rule reads the total trace over the blocks, which the rotation
  leaves unchanged, and ``MsdReport.blocks`` records K;

* eigen route, valid under homogeneity (common step-size mu and covariance
  R_u) for diagonalizable A: with A^T r_l = lambda_l r_l, s_l^* A^T =
  lambda_l s_l^*, s_l^* r_l = 1, and R_u z_m = lambda_m z_m, the error modes
  decouple as

      lambda_{l,m} = g2 (g0 - mu lambda_m) g1

  where the slot gain g_j is lambda_l where A_j = A and 1 where A_j = I, and

      MSD_k = sum_{l1,l2,m} (e_k^T r_{l1}) nu_{l1,l2,m} (r_{l2}^* e_k)
                             / (1 - lambda_{l1,m} conj(lambda_{l2,m}))

  where nu = mu^2 lambda_m(R_u) g2(l1) conj(g2(l2)) s_{l1}^* Sigma_v s_{l2};
  the g2 factor, from Y, is lambda_{l1} conj(lambda_{l2}) for ATC and 1
  otherwise.  When the right eigenvectors are orthonormal (symmetric A)
  the network MSD collapses to the diagonal l1 = l2 sum divided by N; for
  nonsymmetric A that collapsed value is an approximation, so reports carry
  both it and the exact per-node average, plus the orthonormality defect
  max_{l1 != l2} |r_{l2}^* r_{l1}|.

Mode eigenvalues (homogeneous case), from the table:

    diffusion (ATC = CTA)   lambda_l(A) (1 - mu lambda_m)
    consensus               lambda_l(A) - mu lambda_m
    non-cooperative         1 - mu lambda_m
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NotDiagonalizableError, NumericalError,
                     StabilityError, UnsupportedInputError)
from .network import is_primitive, perron_pair
from .spectra import ErrorRecursion, _weights, spectral_radius
from .strategies import StrategyKind, uses_a

ORTHONORMAL_TOL = 1e-8
DENOM_GUARD = 1e-12
SERIES_RTOL = 1e-12
SERIES_MAX_STEPS = 64
# eigenvector-matrix condition above which A counts as not diagonalizable
COND_LIMIT = 1e8
# absolute slack of the cross-strategy network MSD comparisons
ORDERING_SLACK = 1e-10
# tolerance on the smallest eigenvalue of a noise-shrinkage matrix
PSD_TOL = 1e-10
# strict per-node gap: ncop - cta must exceed this fraction of ncop
GAP_REL_MARGIN = 1e-12
# strict-ordering threshold search: halvings from the bound, then refinements
MAX_HALVINGS = 60
REFINE_STEPS = 12


def _db(x):
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


@dataclass(frozen=True, eq=False)
class MsdReport:
    """Steady-state MSD values, linear scale; dB views via properties."""

    strategy: StrategyKind
    method: str
    per_node: np.ndarray
    network: float
    spectral_radius: float | None = None
    terms: int | None = None          # series terms covered, a power of two
    blocks: int | None = None         # series blocks K; 1 = one dense NM block
    network_orthonormal: float | None = None
    orthonormality_defect: float | None = None

    @property
    def per_node_db(self):
        return _db(self.per_node)

    @property
    def network_db(self):
        return float(_db(self.network))

    @property
    def diverged(self):
        return not np.isfinite(self.network)


def _doubling_sum(f, y):
    """Sum X = sum_j F^j Y F^jT by squared Smith doubling, X <- X + F X F^T
    then F <- F^2, so after s steps X covers 2^s terms; stops once the trace
    of an increment is at most SERIES_RTOL of the running total.  F and Y
    may be (K, n, n) stacks of diagonal blocks, summed block by block, and
    the traces are then totals over the blocks.  Returns (X, terms
    covered)."""
    x = y
    for step in range(1, SERIES_MAX_STEPS + 1):
        inc = f @ x @ f.swapaxes(-1, -2)
        x = x + inc
        if (np.trace(inc, axis1=-2, axis2=-1).sum()
                <= SERIES_RTOL * np.trace(x, axis1=-2, axis2=-1).sum()):
            return x, 2 ** step
        f = f @ f
    raise NumericalError(f"series did not settle in {SERIES_MAX_STEPS} doubling steps")


def msd_series(recursion: ErrorRecursion) -> MsdReport:
    """Per-node MSD from the series sum_j B^j Y B^jT, summed by doubling on
    the recursion's diagonal blocks."""
    n, k = recursion.n_nodes, recursion.blocks
    rho = spectral_radius(recursion.transition)
    if rho >= 1.0:
        return MsdReport(strategy=recursion.strategy, method="series",
                         per_node=np.full(n, np.inf), network=np.inf,
                         spectral_radius=rho, terms=0, blocks=k)
    x, terms = _doubling_sum(recursion.transition, recursion.noise_gram)
    # each block's rows run node by node, so (K, N, rows per node) sums to nodes
    per_node = x.diagonal(axis1=1, axis2=2).reshape(k, n, -1).sum(axis=(0, 2))
    return MsdReport(strategy=recursion.strategy, method="series",
                     per_node=per_node, network=float(per_node.mean()),
                     spectral_radius=rho, terms=terms, blocks=k)


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Bi-orthogonal eigen decomposition of A^T plus the covariance modes."""

    matrix: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    cov_eigenvalues: np.ndarray
    cov_vectors: np.ndarray
    condition: float

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.size

    @property
    def orthonormality_defect(self) -> float:
        gram = self.right_vectors.conj().T @ self.right_vectors
        off = gram - np.diag(np.diag(gram))
        return float(np.max(np.abs(off))) if gram.shape[0] > 1 else 0.0


def eigenstructure(matrix, covariance) -> EigenStructure:
    """Eigen decomposition of A^T with the unit eigenvalue ordered first and
    vectors normalized to ||r_l|| = 1, s_l^* r_l = 1."""
    a = _weights(matrix)
    r_u = np.asarray(covariance, dtype=float)
    if np.array_equal(a, a.T):
        # symmetric case: eigh keeps repeated eigenspaces orthonormal, which
        # a general eigensolver does not guarantee
        sym_vals, sym_vecs = np.linalg.eigh(a.T)
        eigs, vecs = sym_vals.astype(complex), sym_vecs.astype(complex)
    else:
        eigs, vecs = np.linalg.eig(a.T)
    lead = int(np.argmin(np.abs(eigs - 1.0)))
    rest = [i for i in range(eigs.size) if i != lead]
    rest.sort(key=lambda i: (-abs(eigs[i]), -eigs[i].real, -eigs[i].imag))
    order = [lead] + rest
    eigs = eigs[order]
    u = vecs[:, order]
    u = u / np.linalg.norm(u, axis=0, keepdims=True)
    # canonical phase: make the largest-magnitude entry of each column real positive
    for l in range(u.shape[1]):
        pivot = u[np.argmax(np.abs(u[:, l])), l]
        if pivot != 0:
            u[:, l] = u[:, l] * (abs(pivot) / pivot)
    cond = float(np.linalg.cond(u))
    if cond > COND_LIMIT:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition {cond:.3g} exceeds {COND_LIMIT:.0e}; "
            "matrix treated as not diagonalizable")
    left = np.linalg.inv(u).conj().T  # column l = s_l with s_l^* r_l = 1
    cov_vals, cov_vecs = np.linalg.eigh(r_u)
    if cov_vals.min() <= 0:
        raise ConfigError("covariance must be positive definite")
    return EigenStructure(matrix=a, covariance=r_u, eigenvalues=eigs,
                          right_vectors=u, left_vectors=left,
                          cov_eigenvalues=cov_vals, cov_vectors=cov_vecs,
                          condition=cond)


def _gains(structure: EigenStructure, strategy: StrategyKind) -> tuple:
    """Slot gains (g1, g0, g2): the column lambda_l(A) where the strategy's
    table row puts A, 1 where it puts I."""
    lam_a = structure.eigenvalues[:, None]
    return tuple(lam_a if uses else 1.0 for uses in uses_a(strategy))


def mode_eigenvalues(structure: EigenStructure, mu: float,
                     strategy: StrategyKind) -> np.ndarray:
    """(N, M) grid of error-mode eigenvalues
    lambda_{l,m} = g2 (g0 - mu lambda_m) g1 for the strategy."""
    g1, g0, g2 = _gains(structure, strategy)
    grid = g2 * (g0 - mu * structure.cov_eigenvalues[None, :]) * g1
    return np.broadcast_to(grid, (structure.n_nodes, structure.cov_eigenvalues.size)
                           ).astype(complex)


def _mode_noise(structure: EigenStructure, noise_variances,
                strategy: StrategyKind) -> np.ndarray:
    """G[l1, l2] = g2(l1) conj(g2(l2)) s_{l1}^* Sigma_v s_{l2}: nu without
    its mu^2 lambda_m, with the A2 slot gain g2."""
    var = np.asarray(noise_variances, dtype=float)
    s = structure.left_vectors
    g2 = _gains(structure, strategy)[2]
    return g2 * np.conj(g2).T * (s.conj().T @ (var[:, None] * s))


def _mode_terms(structure: EigenStructure, mu: float, noise_variances,
                strategy: StrategyKind) -> np.ndarray:
    """The eigen route's per-mode loop: the (N, M) contributions MSD_k(m),
    with denominators from the mode grid."""
    modes = mode_eigenvalues(structure, mu, strategy)
    noise = _mode_noise(structure, noise_variances, strategy)
    scale = mu ** 2 * structure.cov_eigenvalues
    u = structure.right_vectors
    comp = np.empty(modes.shape)
    for m in range(modes.shape[1]):
        denom = 1.0 - modes[:, m, None] * modes[None, :, m].conj()
        small = np.abs(denom) < DENOM_GUARD
        if small.any():
            l1, l2 = np.argwhere(small)[0]
            raise StabilityError(
                f"mode pair (l1={l1}, l2={l2}, m={m}) has near-singular "
                f"denominator |1 - lam lam*| = {np.abs(denom[l1, l2]):.3g}")
        t = scale[m] * noise / denom
        comp[:, m] = np.einsum("kl,lj,kj->k", u, t, u.conj()).real
    return comp


def _component_matrix(structure: EigenStructure, mu: float, noise_variances,
                      strategy: StrategyKind) -> np.ndarray:
    """Per-(node, covariance-mode) MSD contributions MSD_k(m), eigen route,
    for ATC, CTA and non-cooperative, the strategies the per-mode ordering
    claims compare; the non-cooperative strategy by its node-wise closed
    form, which needs no eigenvectors."""
    var = np.asarray(noise_variances, dtype=float)
    lam_r = structure.cov_eigenvalues
    shrink = 1.0 - mu * lam_r
    if strategy is StrategyKind.NON_COOPERATIVE:
        denom = 1.0 - shrink ** 2
        if np.any(np.abs(denom) < DENOM_GUARD) or np.any(np.abs(shrink) >= 1.0):
            raise StabilityError(f"non-cooperative modes unstable at mu = {mu}")
        return var[:, None] * (mu ** 2 * lam_r / denom)[None, :]
    if np.any(np.abs(shrink) >= 1.0):
        # the l = 1 mode carries |lambda_1| = 1, so |1 - mu lam_m| < 1 is necessary
        raise StabilityError(f"diffusion modes unstable at mu = {mu}")
    return _mode_terms(structure, mu, var, strategy)


def msd_eigenform(structure: EigenStructure, mu: float, noise_variances,
                  strategy: StrategyKind) -> MsdReport:
    """Closed eigen-route MSD report for one strategy."""
    var = np.asarray(noise_variances, dtype=float)
    n = structure.n_nodes
    modes = mode_eigenvalues(structure, mu, strategy)
    radius = float(np.max(np.abs(modes)))
    defect = structure.orthonormality_defect
    if radius >= 1.0:
        return MsdReport(strategy=strategy, method="eigenform",
                         per_node=np.full(n, np.inf), network=np.inf,
                         spectral_radius=radius, orthonormality_defect=defect)
    if strategy is StrategyKind.NON_COOPERATIVE:
        per_node = _component_matrix(structure, mu, var, strategy).sum(axis=1)
    else:
        per_node = _mode_terms(structure, mu, var, strategy).sum(axis=1)
    # every collapsed value is taken in the A eigenbasis, so the strategies
    # compare like for like
    diag_noise = np.diag(_mode_noise(structure, var, strategy)).real
    ortho = float(np.sum(mu ** 2 * structure.cov_eigenvalues * diag_noise[:, None]
                         / (1.0 - np.abs(modes) ** 2))) / n
    exact = float(per_node.mean())
    network = ortho if defect <= ORTHONORMAL_TOL else exact
    return MsdReport(strategy=strategy, method="eigenform", per_node=per_node,
                     network=network, spectral_radius=radius,
                     network_orthonormal=ortho, orthonormality_defect=defect)


@dataclass(frozen=True, eq=False)
class OrderingReport:
    """Network-level MSD ordering across strategies plus per-mode identities."""

    network: dict
    per_node: dict
    atc_le_cta: bool
    cta_le_ncop: bool
    atc_le_cons: bool
    mu_lambda_min: float
    consensus_worst: bool | None
    ratio_max_error: float
    ratio_skipped: int
    shift_identity_error: float
    orthonormality_defect: float

    @property
    def diffusion_first(self) -> bool:
        return self.atc_le_cta and self.cta_le_ncop and self.atc_le_cons


def ordering_checks(matrix, covariance, mu: float, noise_variances) -> OrderingReport:
    """Evaluate the cross-strategy MSD ordering claims on one homogeneous
    stable instance; violations are reported, never raised."""
    structure = eigenstructure(matrix, covariance)
    var = np.asarray(noise_variances, dtype=float)
    reports = {kind: msd_eigenform(structure, mu, var, kind) for kind in StrategyKind}
    network = {kind: rep.network for kind, rep in reports.items()}
    per_node = {kind: rep.per_node for kind, rep in reports.items()}
    atc, cta = network[StrategyKind.ATC], network[StrategyKind.CTA]
    cons, ncop = network[StrategyKind.CONSENSUS], network[StrategyKind.NON_COOPERATIVE]
    mu_lmin = mu * float(structure.cov_eigenvalues[0])
    worst = bool(ncop <= cons + ORDERING_SLACK) if 1.0 <= mu_lmin < 2.0 else None

    comp = {kind: _component_matrix(structure, mu, var, kind)
            for kind in (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.NON_COOPERATIVE)}
    gap_nc = comp[StrategyKind.NON_COOPERATIVE] - comp[StrategyKind.CTA]
    gap_na = comp[StrategyKind.NON_COOPERATIVE] - comp[StrategyKind.ATC]
    gap_ca = comp[StrategyKind.CTA] - comp[StrategyKind.ATC]
    shrink = 1.0 - mu * structure.cov_eigenvalues
    target1 = 1.0 / shrink ** 2
    target2 = 1.0 / (1.0 - shrink ** 2)
    floor = 1e-14 * np.abs(comp[StrategyKind.NON_COOPERATIVE]).max()
    ratio_err = 0.0
    skipped = 0
    for k in range(gap_nc.shape[0]):
        for m in range(gap_nc.shape[1]):
            if abs(gap_nc[k, m]) < floor or abs(gap_ca[k, m]) < floor:
                skipped += 1
                continue
            r1 = gap_na[k, m] / gap_nc[k, m]
            r2 = gap_na[k, m] / gap_ca[k, m]
            ratio_err = max(ratio_err,
                            abs(r1 - target1[m]) / abs(target1[m]),
                            abs(r2 - target2[m]) / abs(target2[m]))

    cta_modes = mode_eigenvalues(structure, mu, StrategyKind.CTA)
    cons_modes = mode_eigenvalues(structure, mu, StrategyKind.CONSENSUS)
    predicted = np.outer(1.0 - structure.eigenvalues,
                         mu * structure.cov_eigenvalues)
    shift_err = float(np.max(np.abs((cta_modes - cons_modes) - predicted)))

    return OrderingReport(
        network=network, per_node=per_node,
        atc_le_cta=bool(atc <= cta + ORDERING_SLACK),
        cta_le_ncop=bool(cta <= ncop + ORDERING_SLACK),
        atc_le_cons=bool(atc <= cons + ORDERING_SLACK),
        mu_lambda_min=mu_lmin,
        consensus_worst=worst,
        ratio_max_error=ratio_err,
        ratio_skipped=skipped,
        shift_identity_error=shift_err,
        orthonormality_defect=structure.orthonormality_defect)


@dataclass(frozen=True, eq=False)
class NoiseConditionReport:
    """Structural noise-profile conditions governing per-node MSD ordering."""

    shrink_matrix: np.ndarray
    min_eigenvalue: float
    noise_shrink_psd: bool
    primitive: bool
    perron_noise_mean: float | None
    strict_margins: np.ndarray | None
    strict_condition: bool | None

    @property
    def implication_holds(self) -> bool:
        # PSD noise shrinkage implies the strict Perron-mean condition
        # whenever the matrix is primitive
        if not (self.noise_shrink_psd and self.primitive):
            return True
        return bool(self.strict_condition)


def individual_ordering_conditions(matrix, noise_variances) -> NoiseConditionReport:
    """Check (i) Sigma_v - A^T Sigma_v A >= 0 and (ii) for primitive A the
    strict condition s1^T Sigma_v s1 / N < sigma_{v,k}^2 at every node.
    Serves acceptance 7, the per-node benefit conditions."""
    a = _weights(matrix)
    var = np.asarray(noise_variances, dtype=float)
    sigma = np.diag(var)
    shrink = sigma - a.T @ sigma @ a
    min_eig = float(np.linalg.eigvalsh(shrink)[0])
    psd = min_eig >= -PSD_TOL
    primitive = is_primitive(a)
    mean = margins = strict = None
    if primitive:
        pair = perron_pair(a)
        mean = float(pair.s1 @ (var * pair.s1)) / a.shape[0]
        margins = var - mean
        strict = bool(np.all(margins > 0))
    return NoiseConditionReport(shrink_matrix=shrink, min_eigenvalue=min_eig,
                                noise_shrink_psd=psd, primitive=primitive,
                                perron_noise_mean=mean, strict_margins=margins,
                                strict_condition=strict)


@dataclass(frozen=True, eq=False)
class StepThresholdReport:
    """Certified small-step threshold for strict per-node MSD ordering."""

    mu_star: float | None
    stability_bound: float
    probes: tuple

    @property
    def found(self) -> bool:
        return self.mu_star is not None


def strict_gap_holds(structure: EigenStructure, mu: float, noise_variances) -> bool:
    """True when every (node, mode) component satisfies the strict gap
    MSD_ncop,k(m) - MSD_cta,k(m) > 0 with a small relative margin.
    Acceptance 7 re-checks each certified mu* with it."""
    try:
        cta = _component_matrix(structure, mu, noise_variances, StrategyKind.CTA)
        ncop = _component_matrix(structure, mu, noise_variances,
                                 StrategyKind.NON_COOPERATIVE)
    except StabilityError:
        return False
    if np.max(np.abs(mode_eigenvalues(structure, mu, StrategyKind.CTA))) >= 1.0:
        return False
    return bool(np.all(ncop - cta > GAP_REL_MARGIN * np.abs(ncop)))


def strict_ordering_step_threshold(matrix, covariance, noise_variances
                                   ) -> StepThresholdReport:
    """Locate a step-size mu* > 0 below which the strict per-node ordering
    MSD_atc < MSD_cta < MSD_ncop is certified, by geometric halving from the
    stability bound with log-scale refinement.  The reported mu* is a
    certificate, not a supremum.  Serves acceptance 7's small-step claim."""
    structure = eigenstructure(matrix, covariance)
    if not is_primitive(structure.matrix):
        raise UnsupportedInputError("strict-ordering threshold requires a primitive matrix")
    bound = 2.0 / float(structure.cov_eigenvalues[-1])
    probes = []
    mu = 0.5 * bound
    last_fail = None
    ok_mu = None
    for _ in range(MAX_HALVINGS):
        ok = strict_gap_holds(structure, mu, noise_variances)
        probes.append((mu, ok))
        if ok:
            ok_mu = mu
            break
        last_fail = mu
        mu *= 0.5
    if ok_mu is None:
        return StepThresholdReport(mu_star=None, stability_bound=bound,
                                   probes=tuple(probes))
    if last_fail is not None:
        lo, hi = ok_mu, last_fail
        for _ in range(REFINE_STEPS):
            mid = float(np.sqrt(lo * hi))
            ok = strict_gap_holds(structure, mid, noise_variances)
            probes.append((mid, ok))
            if ok:
                lo = mid
            else:
                hi = mid
        ok_mu = lo
    return StepThresholdReport(mu_star=ok_mu, stability_bound=bound,
                               probes=tuple(probes))
