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
  leaves unchanged, and ``MsdReport.blocks`` records K.  ``series_reports``
  sums the series of every stable strategy of a ``RecursionStack`` in one
  doubling loop with a leading strategy axis, each strategy stopping at its
  own step and then leaving the loop; ``msd_series`` reads the one report
  of an S = 1 stack;

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

The eigen route's stability is this grid's radius, max |lambda_{l,m}| < 1,
for every strategy; ``msd_eigenform`` alone decides it, into a diverged report.

Every report the harness prints comes from the series route; the eigen
route is the closed-form check on it and the source of the paper's
per-mode identities (``ordering_checks``, the strict-gap threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NotDiagonalizableError, NumericalError,
                     StabilityError, UnsupportedInputError)
from .network import as_combination, is_primitive, perron_pair
from .signalmodel import check_covariance
from .spectra import RecursionStack, spectral_radii
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
    per_node: np.ndarray
    network: float
    spectral_radius: float | None = None
    terms: int | None = None          # series terms covered, a power of two
    blocks: int | None = None         # series blocks K; 1 = one dense NM block
    network_orthonormal: float | None = None
    orthonormality_defect: float | None = None
    per_mode: np.ndarray | None = None  # eigen route's (N, M) MSD_k(m); rows sum to per_node

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
    """Sum X_s = sum_j F_s^j Y_s F_s^jT for every series s of the (S, K, n, n)
    stacks F and Y by squared Smith doubling, X <- X + F X F^T then
    F <- F^2, so after t steps X covers 2^t terms.  Each series holds K
    diagonal blocks, summed block by block, and stops once the trace total
    over its blocks of an increment is at most SERIES_RTOL of its running
    total; a stopped series is dropped, and only the ones still running
    are multiplied on.  Returns (X, (S,) terms covered)."""
    out = np.empty(y.shape)
    terms = np.zeros(len(y), dtype=int)
    live = np.arange(len(y))
    x = y.copy()
    for step in range(1, SERIES_MAX_STEPS + 1):
        inc = f @ x @ f.swapaxes(-1, -2)
        x += inc
        done = (np.trace(inc, axis1=-2, axis2=-1).sum(axis=-1)
                <= SERIES_RTOL * np.trace(x, axis1=-2, axis2=-1).sum(axis=-1))
        if done.any():
            out[live[done]] = x[done]
            terms[live[done]] = 2 ** step
            if done.all():
                return out, terms
            live, x, f = live[~done], x[~done], f[~done]
        f = f @ f
    raise NumericalError(f"series did not settle in {SERIES_MAX_STEPS} doubling steps")


def series_reports(stack: RecursionStack) -> dict:
    """Per-node MSD of every strategy of the stack from its series
    sum_j B^j Y B^jT: every radius from one eigvals call, and the series of
    every stable strategy summed in one doubling loop.  A strategy with
    rho(B) >= 1 gets a diverged report with ``terms`` = 0."""
    n, k = stack.n_nodes, stack.blocks
    radii = spectral_radii(stack.transition)
    stable = np.flatnonzero(radii < 1.0)
    settled = {}
    if stable.size:
        # an index array copies the stacks, so all-stable stacks go in as views
        pick = slice(None) if stable.size == len(radii) else stable
        x, terms = _doubling_sum(stack.transition[pick], stack.noise_gram[pick])
        settled = dict(zip(stable.tolist(), zip(x, terms.tolist())))
    reports = {}
    for s, (kind, rho) in enumerate(zip(stack.strategies, radii.tolist())):
        xs, terms = settled.get(s, (None, 0))
        # each block's rows run node by node, so (K, N, rows per node) sums
        # to nodes; the contiguous copy fixes the order of the additions
        per_node = (np.full(n, np.inf) if xs is None else
                    np.ascontiguousarray(xs.diagonal(axis1=1, axis2=2))
                    .reshape(k, n, -1).sum(axis=2).sum(axis=0))
        reports[kind] = MsdReport(strategy=kind, per_node=per_node,
                                  network=float(per_node.mean()), spectral_radius=rho,
                                  terms=terms, blocks=k)
    return reports


def msd_series(stack: RecursionStack) -> MsdReport:
    """Per-node MSD from the series sum_j B^j Y B^jT of the one strategy of
    an S = 1 stack (``build_error_recursion``): ``series_reports`` of it."""
    (report,) = series_reports(stack).values()
    return report


@dataclass(frozen=True, eq=False)
class EigenStructure:
    """Bi-orthogonal eigen decomposition of A^T plus the covariance modes."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    cov_eigenvalues: np.ndarray
    cov_vectors: np.ndarray
    condition: float
    # largest off-diagonal entry of the Gram matrix of the right vectors
    orthonormality_defect: float

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.size


def eigenstructure(matrix, covariance) -> EigenStructure:
    """Eigen decomposition of A^T with the unit eigenvalue ordered first and
    vectors normalized to ||r_l|| = 1, s_l^* r_l = 1."""
    a = as_combination(matrix).weights
    r_u = check_covariance(covariance)
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
    gram = u.conj().T @ u
    defect = float(np.max(np.abs(gram - np.diag(np.diag(gram))))) if u.shape[0] > 1 else 0.0
    return EigenStructure(matrix=a, eigenvalues=eigs,
                          right_vectors=u, left_vectors=left,
                          cov_eigenvalues=cov_vals, cov_vectors=cov_vecs,
                          condition=cond, orthonormality_defect=defect)


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


def _mode_noise(structure: EigenStructure, var: np.ndarray,
                strategy: StrategyKind) -> np.ndarray:
    """G[l1, l2] = g2(l1) conj(g2(l2)) s_{l1}^* Sigma_v s_{l2}: nu without
    its mu^2 lambda_m, with the A2 slot gain g2."""
    s = structure.left_vectors
    g2 = _gains(structure, strategy)[2]
    return g2 * np.conj(g2).T * (s.conj().T @ (var[:, None] * s))


def _mode_terms(structure: EigenStructure, modes: np.ndarray, mu: float, var: np.ndarray,
                noise: np.ndarray, strategy: StrategyKind) -> np.ndarray | None:
    """The (N, M) MSD_k(m) of a strategy with mode grid ``modes`` and mode
    noise ``noise``, or None on a near-singular denominator; non-coop takes
    its node-wise closed form, which needs no eigenvectors."""
    lam_r = structure.cov_eigenvalues
    if strategy is StrategyKind.NON_COOPERATIVE:
        denom = 1.0 - (1.0 - mu * lam_r) ** 2
        if np.any(denom < DENOM_GUARD):
            return None
        return var[:, None] * (mu ** 2 * lam_r / denom)[None, :]
    scale = mu ** 2 * lam_r
    u = structure.right_vectors
    comp = np.empty(modes.shape)
    for m in range(modes.shape[1]):
        denom = 1.0 - modes[:, m, None] * modes[None, :, m].conj()
        if np.any(np.abs(denom) < DENOM_GUARD):
            return None
        t = scale[m] * noise / denom
        comp[:, m] = np.einsum("kl,lj,kj->k", u, t, u.conj()).real
    return comp


def _noise_vector(noise_variances, n: int) -> np.ndarray:
    """The N noise variances as floats, checked finite and >= 0."""
    var = np.asarray(noise_variances, dtype=float)
    if var.shape != (n,) or not np.all((var >= 0) & (var < np.inf)):
        raise ConfigError(f"expected {n} finite noise variances >= 0, got {var}")
    return var


def msd_eigenform(structure: EigenStructure, mu: float, noise_variances,
                  strategy: StrategyKind) -> MsdReport:
    """Closed eigen-route MSD report for one strategy and the route's one
    refusal decision: a diverged report, ``per_mode`` None, where a mode
    reaches the unit circle or a denominator is near-singular."""
    n = structure.n_nodes
    var = _noise_vector(noise_variances, n)
    if not 0 < mu < np.inf:
        raise ConfigError(f"step size must be positive and finite, got {mu}")
    modes = mode_eigenvalues(structure, mu, strategy)
    radius = float(np.max(np.abs(modes)))
    defect = structure.orthonormality_defect
    noise = _mode_noise(structure, var, strategy)
    comp = _mode_terms(structure, modes, mu, var, noise, strategy) if radius < 1.0 else None
    if comp is None:
        return MsdReport(strategy=strategy, per_node=np.full(n, np.inf),
                         network=np.inf, spectral_radius=radius,
                         orthonormality_defect=defect)
    per_node = comp.sum(axis=1)
    # every collapsed value is taken in the A eigenbasis, so the strategies
    # compare like for like
    ortho = float(np.sum(mu ** 2 * structure.cov_eigenvalues * np.diag(noise).real[:, None]
                         / (1.0 - np.abs(modes) ** 2))) / n
    exact = float(per_node.mean())
    network = ortho if defect <= ORTHONORMAL_TOL else exact
    return MsdReport(strategy=strategy, per_node=per_node, network=network,
                     spectral_radius=radius, network_orthonormal=ortho,
                     orthonormality_defect=defect, per_mode=comp)


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
    reports = {kind: msd_eigenform(structure, mu, noise_variances, kind)
               for kind in StrategyKind}
    # the per-mode identities need ATC, CTA and the non-cooperative strategy
    # stable, so their refusal is raised; consensus may diverge
    comp = {kind: reports[kind].per_mode
            for kind in (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.NON_COOPERATIVE)}
    for kind, per_mode in comp.items():
        if per_mode is None:
            rho = reports[kind].spectral_radius
            reason = ">= 1" if rho >= 1.0 else "with a near-singular denominator"
            raise StabilityError(f"{kind.value} error modes reach radius {rho:.6g} "
                                 f"{reason} at mu = {mu}")
    network = {kind: rep.network for kind, rep in reports.items()}
    per_node = {kind: rep.per_node for kind, rep in reports.items()}
    atc, cta = network[StrategyKind.ATC], network[StrategyKind.CTA]
    cons, ncop = network[StrategyKind.CONSENSUS], network[StrategyKind.NON_COOPERATIVE]
    mu_lmin = mu * float(structure.cov_eigenvalues[0])
    worst = bool(ncop <= cons + ORDERING_SLACK) if 1.0 <= mu_lmin < 2.0 else None

    gap_nc = comp[StrategyKind.NON_COOPERATIVE] - comp[StrategyKind.CTA]
    gap_na = comp[StrategyKind.NON_COOPERATIVE] - comp[StrategyKind.ATC]
    gap_ca = comp[StrategyKind.CTA] - comp[StrategyKind.ATC]
    shrink = 1.0 - mu * structure.cov_eigenvalues
    target1 = 1.0 / shrink ** 2
    target2 = 1.0 / (1.0 - shrink ** 2)
    # (node, mode) entries with a gap below the floor are skipped; a NaN
    # gap is not below it, and its NaN ratio error is ignored
    floor = 1e-14 * np.abs(comp[StrategyKind.NON_COOPERATIVE]).max()
    skip = (np.abs(gap_nc) < floor) | (np.abs(gap_ca) < floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        errs = np.stack([np.abs(gap_na / gap_nc - target1) / np.abs(target1),
                         np.abs(gap_na / gap_ca - target2) / np.abs(target2)])[:, ~skip]
    ratio_err = float(np.max(errs, where=~np.isnan(errs), initial=0.0))
    skipped = int(np.count_nonzero(skip))

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
    a = as_combination(matrix).weights
    var = _noise_vector(noise_variances, a.shape[0])
    sigma = np.diag(var)
    shrink = sigma - a.T @ sigma @ a
    min_eig = float(np.linalg.eigvalsh(shrink)[0])
    psd = min_eig >= -PSD_TOL
    primitive = is_primitive(a)
    strict = None
    if primitive:
        pair = perron_pair(a)
        mean = float(pair.s1 @ (var * pair.s1)) / a.shape[0]
        strict = bool(np.all(var > mean))
    return NoiseConditionReport(shrink_matrix=shrink, min_eigenvalue=min_eig,
                                noise_shrink_psd=psd, primitive=primitive,
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
    cta, ncop = (msd_eigenform(structure, mu, noise_variances, kind).per_mode
                 for kind in (StrategyKind.CTA, StrategyKind.NON_COOPERATIVE))
    if cta is None or ncop is None:
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
