"""Steady-state mean-square deviation (MSD) theory.

Both routes read the (A1, A0, A2) table of ``strategies`` through its
``slot_masks``; the error recursion of ``spectra`` is

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
  the network MSD collapses to the diagonal l1 = l2 sum divided by N, the
  paper's value, reported as ``network_orthonormal``; for nonsymmetric A it
  is an approximation.  ``network`` is the per-node mean, as in the series
  route, and reports carry the orthonormality defect
  max_{l1 != l2} |r_{l2}^* r_{l1}|.

Mode eigenvalues (homogeneous case), from the table:

    diffusion (ATC = CTA)   lambda_l(A) (1 - mu lambda_m)
    consensus               lambda_l(A) - mu lambda_m
    non-cooperative         1 - mu lambda_m

The eigen route's stability is this grid's radius, max |lambda_{l,m}| < 1,
for every strategy.  ``msd_eigenform`` runs the route as one pass over a
tuple of strategies, as ``series_reports`` does: the (S, N, M) grid and the
(S, N, N) mode noise from one broadcast of the table rows, every per-mode
term from one einsum over (S, M), and each strategy's refusal, into a
diverged report, decided by its own mask, so a strategy gets the bits it
gets alone.  A row with A in no slot (non-coop) keeps its node-wise closed
form, which reads no eigenvectors.

Every report the harness prints comes from the series route; the eigen
route is the closed-form check on it and the source of the paper's network
orderings (``ordering_checks``) and strict-gap threshold.  Its per-mode
ratio and mode-shift identities are asserted in tests/test_msdtheory.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NotDiagonalizableError, NumericalError,
                     StabilityError, UnsupportedInputError)
from .network import as_combination, is_primitive, is_symmetric, perron_pair
from .signalmodel import check_covariance
from .spectra import RecursionStack, spectral_radii
from .strategies import StrategyKind, slot_masks

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
# strict-ordering threshold search: halvings of the stability bound
MAX_HALVINGS = 60


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
    sum_j B^j Y B^jT: every radius from one ``spectral_radii`` eigensolve,
    and the series of every stable strategy summed in one doubling loop.  A
    strategy with rho(B) >= 1 gets a diverged report with ``terms`` = 0."""
    n, k = stack.n_nodes, stack.blocks
    radii = spectral_radii(stack)
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
    """Bi-orthogonal eigen decomposition of A^T plus the covariance eigenvalues."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    cov_eigenvalues: np.ndarray
    condition: float
    # largest off-diagonal entry of the Gram matrix of the right vectors
    orthonormality_defect: float

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.size


def eigenstructure(matrix, covariance) -> EigenStructure:
    """Eigen decomposition of A^T with vectors normalized to ||r_l|| = 1,
    s_l^* r_l = 1, in the eigensolver's order and phases: every eigen-route
    quantity is a sum over all modes, and the condition number and the
    orthonormality defect depend on neither the column order nor unit
    phases.  The structure is float64 when A's spectrum is real (``eigh``
    on a symmetric A, and ``eig`` whenever every eigenvalue it finds is
    real), so the route runs in real arithmetic there, and complex128
    otherwise."""
    a = as_combination(matrix).weights
    r_u = check_covariance(covariance)
    if is_symmetric(a):
        # symmetric case: eigh keeps repeated eigenspaces orthonormal, which
        # a general eigensolver does not guarantee
        eigs, vecs = np.linalg.eigh(a.T)
    else:
        eigs, vecs = np.linalg.eig(a.T)
    u = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    cond = float(np.linalg.cond(u))
    if cond > COND_LIMIT:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition {cond:.3g} exceeds {COND_LIMIT:.0e}; "
            "matrix treated as not diagonalizable")
    left = np.linalg.inv(u).conj().T  # column l = s_l with s_l^* r_l = 1
    cov_vals, _ = np.linalg.eigh(r_u)
    gram = u.conj().T @ u
    defect = float(np.max(np.abs(gram - np.diag(np.diag(gram))))) if u.shape[0] > 1 else 0.0
    return EigenStructure(matrix=a, eigenvalues=eigs,
                          right_vectors=u, left_vectors=left,
                          cov_eigenvalues=cov_vals,
                          condition=cond, orthonormality_defect=defect)


def _slot_gains(structure: EigenStructure, strategies) -> np.ndarray:
    """(3, S, N, 1) slot gains (g1, g0, g2) of the listed strategies: the
    column lambda_l(A) where a strategy's table row puts A, 1 where it puts I."""
    return np.where(slot_masks(strategies)[:, :, None, None], structure.eigenvalues[:, None], 1.0)


def mode_eigenvalues(structure: EigenStructure, mu: float, strategies) -> np.ndarray:
    """(S, N, M) grid of error-mode eigenvalues
    lambda_{l,m} = g2 (g0 - mu lambda_m) g1 of the listed strategies."""
    g1, g0, g2 = _slot_gains(structure, strategies)
    return g2 * (g0 - mu * structure.cov_eigenvalues) * g1


def _noise_vector(noise_variances, n: int) -> np.ndarray:
    """The N noise variances as floats, checked finite and >= 0."""
    var = np.asarray(noise_variances, dtype=float)
    if var.shape != (n,) or not np.all((var >= 0) & (var < np.inf)):
        raise ConfigError(f"expected {n} finite noise variances >= 0, got {var}")
    return var


def msd_eigenform(structure: EigenStructure, mu: float, noise_variances,
                  strategies) -> dict:
    """Closed eigen-route MSD reports of the listed strategies, {kind:
    MsdReport}, all from one (S, M, N, N) tensor of per-mode terms, and the
    route's one refusal decision: a diverged report, ``per_mode`` None,
    where a strategy's mode reaches the unit circle or one of its
    denominators is near-singular.  Non-coop takes its node-wise closed
    form, which needs no eigenvectors."""
    n = structure.n_nodes
    var = _noise_vector(noise_variances, n)
    if not 0 < mu < np.inf:
        raise ConfigError(f"step size must be positive and finite, got {mu}")
    strategies = tuple(strategies)
    ncop = ~slot_masks(strategies).any(axis=0)
    lam_r = structure.cov_eigenvalues
    scale = mu ** 2 * lam_r
    modes = mode_eigenvalues(structure, mu, strategies)
    radii = np.abs(modes).max(axis=(1, 2))
    # G[s, l1, l2] = g2(l1) conj(g2(l2)) s_{l1}^* Sigma_v s_{l2}: nu without
    # its mu^2 lambda_m, with strategy s's A2 slot gain g2
    g2 = _slot_gains(structure, strategies)[2]
    s = structure.left_vectors
    noise = g2 * g2.conj().swapaxes(-1, -2) * (s.conj().T @ (var[:, None] * s))
    u = structure.right_vectors
    col = modes.swapaxes(1, 2)[..., None]  # (S, M, N, 1): mode m's lambda_{l,m}
    # a refused strategy's terms may overflow; the masks below drop them
    with np.errstate(all="ignore"):
        denom = 1.0 - col * col.swapaxes(-1, -2).conj()
        terms = np.einsum("kl,smlj,kj->smk", u, scale[:, None, None] * noise[:, None] / denom,
                          u.conj()).real.swapaxes(1, 2)
        ncop_denom = 1.0 - (1.0 - mu * lam_r) ** 2
        comp = np.where(ncop[:, None, None], var[:, None] * (scale / ncop_denom), terms)
        # every collapsed value is taken in the A eigenbasis, so the
        # strategies compare like for like
        ortho = (scale * np.diagonal(noise, axis1=1, axis2=2).real[..., None]
                 / (1.0 - np.abs(modes) ** 2)).sum(axis=(1, 2)) / n
    singular = np.where(ncop, np.any(ncop_denom < DENOM_GUARD),
                        (np.abs(denom) < DENOM_GUARD).any(axis=(1, 2, 3)))
    stable = (radii < 1.0) & ~singular
    per_node = comp.sum(axis=2)
    defect = structure.orthonormality_defect
    reports = {}
    for i, (kind, rho) in enumerate(zip(strategies, radii.tolist())):
        if stable[i]:
            reports[kind] = MsdReport(strategy=kind, per_node=per_node[i],
                                      network=float(per_node[i].mean()), spectral_radius=rho,
                                      network_orthonormal=float(ortho[i]),
                                      orthonormality_defect=defect, per_mode=comp[i])
        else:
            reports[kind] = MsdReport(strategy=kind, per_node=np.full(n, np.inf),
                                      network=np.inf, spectral_radius=rho,
                                      orthonormality_defect=defect)
    return reports


@dataclass(frozen=True, eq=False)
class OrderingReport:
    """The paper's network MSD orderings across the four strategies."""

    network: dict
    atc_le_cta: bool
    cta_le_ncop: bool
    atc_le_cons: bool
    mu_lambda_min: float
    consensus_worst: bool | None

    @property
    def diffusion_first(self) -> bool:
        return self.atc_le_cta and self.cta_le_ncop and self.atc_le_cons


def ordering_checks(matrix, covariance, mu: float, noise_variances) -> OrderingReport:
    """Evaluate the cross-strategy network MSD orderings on one homogeneous
    instance from one eigen-route pass; violations are reported, never raised."""
    structure = eigenstructure(matrix, covariance)
    reports = msd_eigenform(structure, mu, noise_variances, tuple(StrategyKind))
    # the verdicts compare finite MSDs, so a refused ATC, CTA or
    # non-cooperative strategy is raised; consensus may diverge
    for kind in (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.NON_COOPERATIVE):
        if reports[kind].per_mode is None:
            rho = reports[kind].spectral_radius
            reason = ">= 1" if rho >= 1.0 else "with a near-singular denominator"
            raise StabilityError(f"{kind.value} error modes reach radius {rho:.6g} "
                                 f"{reason} at mu = {mu}")
    network = {kind: rep.network for kind, rep in reports.items()}
    atc, cta = network[StrategyKind.ATC], network[StrategyKind.CTA]
    cons, ncop = network[StrategyKind.CONSENSUS], network[StrategyKind.NON_COOPERATIVE]
    mu_lmin = mu * float(structure.cov_eigenvalues[0])
    worst = bool(ncop <= cons + ORDERING_SLACK) if 1.0 <= mu_lmin < 2.0 else None
    return OrderingReport(
        network=network,
        atc_le_cta=bool(atc <= cta + ORDERING_SLACK),
        cta_le_ncop=bool(cta <= ncop + ORDERING_SLACK),
        atc_le_cons=bool(atc <= cons + ORDERING_SLACK),
        mu_lambda_min=mu_lmin,
        consensus_worst=worst)


@dataclass(frozen=True, eq=False)
class NoiseConditionReport:
    """Structural noise-profile conditions governing per-node MSD ordering."""

    shrink_matrix: np.ndarray
    min_eigenvalue: float
    noise_shrink_psd: bool
    primitive: bool
    strict_condition: bool | None


def noise_shrinkage(at, var):
    """(S - A^T S A, its least eigenvalue, PSD at PSD_TOL) of a stack of A^T, S = diag(var)."""
    sigma = np.diag(var)
    shrink = sigma - at @ sigma @ at.swapaxes(-1, -2)
    min_eig = np.linalg.eigvalsh(shrink)[..., 0]
    return shrink, min_eig, min_eig >= -PSD_TOL


def individual_ordering_conditions(matrix, noise_variances) -> NoiseConditionReport:
    """Check (i) Sigma_v - A^T Sigma_v A >= 0 and (ii) for primitive A the
    strict condition s1^T Sigma_v s1 / N < sigma_{v,k}^2 at every node.
    Serves acceptance 7, the per-node benefit conditions."""
    a = as_combination(matrix).weights
    var = _noise_vector(noise_variances, a.shape[0])
    shrink, min_eig, psd = noise_shrinkage(a.T, var)
    primitive = is_primitive(a)
    strict = None
    if primitive:
        pair = perron_pair(a)
        mean = float(pair.s1 @ (var * pair.s1)) / a.shape[0]
        strict = bool(np.all(var > mean))
    return NoiseConditionReport(shrink_matrix=shrink, min_eigenvalue=float(min_eig),
                                noise_shrink_psd=bool(psd), primitive=primitive,
                                strict_condition=strict)


@dataclass(frozen=True, eq=False)
class StepThresholdReport:
    """Certified small-step threshold for strict per-node MSD ordering."""

    mu_star: float | None
    stability_bound: float

    @property
    def found(self) -> bool:
        return self.mu_star is not None


def strict_gap_holds(structure: EigenStructure, mu: float, noise_variances) -> bool:
    """True when every (node, mode) component satisfies the strict gap
    MSD_ncop,k(m) - MSD_cta,k(m) > 0 with a small relative margin.
    Acceptance 7 re-checks each certified mu* with it."""
    reports = msd_eigenform(structure, mu, noise_variances,
                            (StrategyKind.CTA, StrategyKind.NON_COOPERATIVE))
    cta, ncop = (rep.per_mode for rep in reports.values())
    if cta is None or ncop is None:
        return False
    return bool(np.all(ncop - cta > GAP_REL_MARGIN * np.abs(ncop)))


def strict_ordering_step_threshold(matrix, covariance, noise_variances
                                   ) -> StepThresholdReport:
    """Certify a step-size mu* > 0 at which the strict per-node ordering
    MSD_atc < MSD_cta < MSD_ncop holds: the first halving bound / 2^j,
    j = 1 ... MAX_HALVINGS, of the stability bound at which
    ``strict_gap_holds``, or None where none does.  mu* is a certificate,
    not a supremum.  Serves acceptance 7's small-step claim."""
    structure = eigenstructure(matrix, covariance)
    if not is_primitive(structure.matrix):
        raise UnsupportedInputError("strict-ordering threshold requires a primitive matrix")
    bound = 2.0 / float(structure.cov_eigenvalues[-1])
    halvings = (bound * 0.5 ** j for j in range(1, MAX_HALVINGS + 1))
    mu_star = next((mu for mu in halvings
                    if strict_gap_holds(structure, mu, noise_variances)), None)
    return StepThresholdReport(mu_star=mu_star, stability_bound=bound)
