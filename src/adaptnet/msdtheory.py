"""Steady-state mean-square deviation (MSD) theory.

Two independent evaluation routes are kept deliberately separate so they can
cross-validate each other:

* series route, valid for any stable heterogeneous network:
      MSD_k = sum_j  Tr[ (e_k e_k^T (x) I_M)  B^j Y B^Tj ]
  with the network MSD the average over nodes, the series summed by
  doubling (squared Smith iteration) and no eigendecomposition;

* eigen route, valid under homogeneity (common step-size mu and covariance
  R_u) for diagonalizable A: with A^T r_l = lambda_l r_l, s_l^* A^T =
  lambda_l s_l^*, s_l^* r_l = 1, and R_u z_m = lambda_m z_m, the error modes
  decouple as lambda_{l,m} and

      MSD_k = sum_{l1,l2,m} (e_k^T r_{l1}) nu_{l1,l2,m} (r_{l2}^* e_k)
                             / (1 - lambda_{l1,m} conj(lambda_{l2,m}))

  where nu = mu^2 lambda_m(R_u) s_{l1}^* Sigma_v s_{l2}, carrying an extra
  lambda_{l1} conj(lambda_{l2}) factor for ATC.  When the right eigenvectors
  are orthonormal (symmetric A) the network MSD collapses to the diagonal
  l1 = l2 sum divided by N; for nonsymmetric A that collapsed value is an
  approximation, so reports carry both it and the exact per-node average,
  plus the orthonormality defect max_{l1 != l2} |r_{l2}^* r_{l1}|.

Mode eigenvalues (homogeneous case):

    diffusion (ATC = CTA)   lambda_l(A) (1 - mu lambda_m)
    consensus               lambda_l(A) - mu lambda_m
    non-cooperative         1 - mu lambda_m
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, NotDiagonalizableError, NumericalError,
                     StabilityError, UnsupportedInputError)
from .network import is_primitive, perron_pair
from .spectra import ErrorRecursion, _weights, spectral_radius
from .strategies import StrategyKind

ORTHONORMAL_TOL = 1e-8
DENOM_GUARD = 1e-12
SERIES_RTOL = 1e-12
SERIES_MAX_STEPS = 64


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
    of an increment is at most SERIES_RTOL of the running total.  Returns
    (X, terms covered)."""
    x = y
    for step in range(1, SERIES_MAX_STEPS + 1):
        inc = f @ x @ f.T
        x = x + inc
        if np.trace(inc) <= SERIES_RTOL * np.trace(x):
            return x, 2 ** step
        f = f @ f
    raise NumericalError(f"series did not settle in {SERIES_MAX_STEPS} doubling steps")


def msd_series(recursion: ErrorRecursion) -> MsdReport:
    """Per-node MSD from the series sum_j B^j Y B^jT, summed by doubling."""
    n, m = recursion.n_nodes, recursion.dim
    rho = spectral_radius(recursion.transition)
    if rho >= 1.0:
        return MsdReport(strategy=recursion.strategy, method="series",
                         per_node=np.full(n, np.inf), network=np.inf,
                         spectral_radius=rho, terms=0)
    x, terms = _doubling_sum(recursion.transition, recursion.noise_gram)
    per_node = x.diagonal().reshape(n, m).sum(axis=1)
    return MsdReport(strategy=recursion.strategy, method="series",
                     per_node=per_node, network=float(per_node.mean()),
                     spectral_radius=rho, terms=terms)


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


def eigenstructure(matrix, covariance, cond_limit: float = 1e8) -> EigenStructure:
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
    if cond > cond_limit:
        raise NotDiagonalizableError(
            f"eigenvector matrix condition {cond:.3g} exceeds {cond_limit:.0e}; "
            "matrix treated as not diagonalizable")
    left = np.linalg.inv(u).conj().T  # column l = s_l with s_l^* r_l = 1
    cov_vals, cov_vecs = np.linalg.eigh(r_u)
    if cov_vals.min() <= 0:
        raise ConfigError("covariance must be positive definite")
    return EigenStructure(matrix=a, covariance=r_u, eigenvalues=eigs,
                          right_vectors=u, left_vectors=left,
                          cov_eigenvalues=cov_vals, cov_vectors=cov_vecs,
                          condition=cond)


def mode_eigenvalues(structure: EigenStructure, mu: float,
                     strategy: StrategyKind) -> np.ndarray:
    """(N, M) grid of error-mode eigenvalues lambda_{l,m} for the strategy."""
    lam_a = structure.eigenvalues[:, None]
    shrink = 1.0 - mu * structure.cov_eigenvalues[None, :]
    if strategy in (StrategyKind.ATC, StrategyKind.CTA):
        return lam_a * shrink
    if strategy is StrategyKind.CONSENSUS:
        return lam_a - mu * structure.cov_eigenvalues[None, :]
    if strategy is StrategyKind.NON_COOPERATIVE:
        return np.broadcast_to(shrink.astype(complex),
                               (structure.n_nodes, shrink.shape[1])).copy()
    raise ConfigError(f"unknown strategy {strategy}")


def _noise_cross(structure: EigenStructure, noise_variances) -> np.ndarray:
    """G[l1, l2] = s_{l1}^* Sigma_v s_{l2}."""
    var = np.asarray(noise_variances, dtype=float)
    s = structure.left_vectors
    return s.conj().T @ (var[:, None] * s)


def _component_matrix(structure: EigenStructure, mu: float, noise_variances,
                      strategy: StrategyKind, denom_guard: float = DENOM_GUARD
                      ) -> np.ndarray:
    """Per-(node, covariance-mode) MSD contributions MSD_k(m), eigen route."""
    var = np.asarray(noise_variances, dtype=float)
    n = structure.n_nodes
    lam_r = structure.cov_eigenvalues
    shrink = 1.0 - mu * lam_r
    if strategy is StrategyKind.NON_COOPERATIVE:
        denom = 1.0 - shrink ** 2
        if np.any(np.abs(denom) < denom_guard) or np.any(np.abs(shrink) >= 1.0):
            raise StabilityError(f"non-cooperative modes unstable at mu = {mu}")
        return var[:, None] * (mu ** 2 * lam_r / denom)[None, :]
    if strategy is StrategyKind.CONSENSUS:
        raise UnsupportedInputError(
            "per-mode components are defined for ATC, CTA, and non-cooperative "
            "strategies only; consensus couples the modes")
    if np.any(np.abs(shrink) >= 1.0):
        # the l = 1 mode carries |lambda_1| = 1, so |1 - mu lam_m| < 1 is necessary
        raise StabilityError(f"diffusion modes unstable at mu = {mu}")
    lam_a = structure.eigenvalues
    pair = np.outer(lam_a, lam_a.conj())
    cross = _noise_cross(structure, var)
    u = structure.right_vectors
    comp = np.empty((n, lam_r.size))
    factor = pair if strategy is StrategyKind.ATC else np.ones_like(pair)
    for m, lam in enumerate(lam_r):
        denom = 1.0 - pair * shrink[m] ** 2
        small = np.abs(denom) < denom_guard
        if small.any():
            l1, l2 = np.argwhere(small)[0]
            raise StabilityError(
                f"mode pair (l1={l1}, l2={l2}, m={m}) has near-singular "
                f"denominator |1 - lam lam*| = {np.abs(denom[l1, l2]):.3g}")
        t = (mu ** 2 * lam) * factor * cross / denom
        comp[:, m] = np.einsum("kl,lj,kj->k", u, t, u.conj()).real
    return comp


def msd_component(structure: EigenStructure, mu: float, noise_variances,
                  node: int, mode: int, strategy: StrategyKind,
                  form: str = "eigen") -> float:
    """Single MSD_k(m) value, by the eigen route or by direct series summation."""
    if form == "eigen":
        comp = _component_matrix(structure, mu, noise_variances, strategy)
        return float(comp[node, mode])
    if form != "series":
        raise ConfigError(f"unknown component form {form!r}")
    if strategy is StrategyKind.CONSENSUS:
        raise UnsupportedInputError(
            "per-mode components are defined for ATC, CTA, and non-cooperative "
            "strategies only; consensus couples the modes")
    var = np.asarray(noise_variances, dtype=float)
    lam = structure.cov_eigenvalues[mode]
    shrink = 1.0 - mu * lam
    if shrink ** 2 >= 1.0:
        raise StabilityError(f"mode {mode} unstable at mu = {mu}")
    scale = mu ** 2 * lam
    if strategy is StrategyKind.NON_COOPERATIVE:
        x, _ = _doubling_sum(np.array([[shrink]]), np.array([[var[node]]]))
        return float(scale * x[0, 0])
    a = structure.matrix
    sv = np.diag(var)
    # ATC starts the propagation at A Sigma A^T power j+1; CTA at power j
    prop = a.T @ sv @ a if strategy is StrategyKind.ATC else sv
    x, _ = _doubling_sum(shrink * a.T, prop)
    return float(scale * x[node, node])


def msd_eigenform(structure: EigenStructure, mu: float, noise_variances,
                  strategy: StrategyKind, denom_guard: float = DENOM_GUARD
                  ) -> MsdReport:
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
    lam_r = structure.cov_eigenvalues
    scale = mu ** 2 * lam_r
    if strategy is StrategyKind.NON_COOPERATIVE:
        per_node = _component_matrix(structure, mu, var, strategy).sum(axis=1)
        # collapsed-diagonal value in the A eigenbasis, for like-for-like
        # comparison against the cooperative strategies
        cross = _noise_cross(structure, var)
        diag_noise = np.diag(cross).real
        denom = 1.0 - (1.0 - mu * lam_r) ** 2
        ortho = float(np.sum(np.outer(diag_noise, scale / denom)) / n)
    else:
        cross = _noise_cross(structure, var)
        lam_a = structure.eigenvalues
        pair = np.outer(lam_a, lam_a.conj())
        factor = pair if strategy is StrategyKind.ATC else np.ones_like(pair)
        u = structure.right_vectors
        per_node = np.zeros(n)
        ortho = 0.0
        for m in range(lam_r.size):
            denom = 1.0 - modes[:, m, None] * modes[None, :, m].conj()
            small = np.abs(denom) < denom_guard
            if small.any():
                l1, l2 = np.argwhere(small)[0]
                raise StabilityError(
                    f"mode pair (l1={l1}, l2={l2}, m={m}) has near-singular "
                    f"denominator |1 - lam lam*| = {np.abs(denom[l1, l2]):.3g}")
            t = scale[m] * factor * cross / denom
            per_node += np.einsum("kl,lj,kj->k", u, t, u.conj()).real
            diag_terms = scale[m] * np.diag(factor * cross).real / (1.0 - np.abs(modes[:, m]) ** 2)
            ortho += float(diag_terms.sum()) / n
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


def ordering_checks(matrix, covariance, mu: float, noise_variances,
                    slack: float = 1e-10) -> OrderingReport:
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
    worst = bool(ncop <= cons + slack) if 1.0 <= mu_lmin < 2.0 else None

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
        atc_le_cta=bool(atc <= cta + slack),
        cta_le_ncop=bool(cta <= ncop + slack),
        atc_le_cons=bool(atc <= cons + slack),
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


def individual_ordering_conditions(matrix, noise_variances,
                                   psd_tol: float = 1e-10) -> NoiseConditionReport:
    """Check (i) Sigma_v - A^T Sigma_v A >= 0 and (ii) for primitive A the
    strict condition s1^T Sigma_v s1 / N < sigma_{v,k}^2 at every node."""
    a = _weights(matrix)
    var = np.asarray(noise_variances, dtype=float)
    sigma = np.diag(var)
    shrink = sigma - a.T @ sigma @ a
    min_eig = float(np.linalg.eigvalsh(shrink)[0])
    psd = min_eig >= -psd_tol
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


def strict_gap_holds(structure: EigenStructure, mu: float, noise_variances,
                     rel_margin: float = 1e-12) -> bool:
    """True when every (node, mode) component satisfies the strict gap
    MSD_ncop,k(m) - MSD_cta,k(m) > 0 with a small relative margin."""
    try:
        cta = _component_matrix(structure, mu, noise_variances, StrategyKind.CTA)
        ncop = _component_matrix(structure, mu, noise_variances,
                                 StrategyKind.NON_COOPERATIVE)
    except StabilityError:
        return False
    if np.max(np.abs(mode_eigenvalues(structure, mu, StrategyKind.CTA))) >= 1.0:
        return False
    return bool(np.all(ncop - cta > rel_margin * np.abs(ncop)))


def strict_ordering_step_threshold(matrix, covariance, noise_variances,
                                   rel_margin: float = 1e-12,
                                   max_halvings: int = 60,
                                   refine_steps: int = 12) -> StepThresholdReport:
    """Locate a step-size mu* > 0 below which the strict per-node ordering
    MSD_atc < MSD_cta < MSD_ncop is certified, by geometric halving from the
    stability bound with log-scale refinement.  The reported mu* is a
    certificate, not a supremum."""
    structure = eigenstructure(matrix, covariance)
    if not is_primitive(structure.matrix):
        raise UnsupportedInputError("strict-ordering threshold requires a primitive matrix")
    bound = 2.0 / float(structure.cov_eigenvalues[-1])
    probes = []
    mu = 0.5 * bound
    last_fail = None
    ok_mu = None
    for _ in range(max_halvings):
        ok = strict_gap_holds(structure, mu, noise_variances, rel_margin)
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
        for _ in range(refine_steps):
            mid = float(np.sqrt(lo * hi))
            ok = strict_gap_holds(structure, mid, noise_variances, rel_margin)
            probes.append((mid, ok))
            if ok:
                lo = mid
            else:
                hi = mid
        ok_mu = lo
    return StepThresholdReport(mu_star=ok_mu, stability_bound=bound,
                               probes=tuple(probes))
