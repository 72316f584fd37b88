from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, NetworkTopology, NodeProfile, NotDiagonalizableError,
                      NumericalError, StabilityError, StrategyKind, UnsupportedInputError,
                      benchmark_profile, build_combination_matrix,
                      build_error_recursion, eigenstructure,
                      individual_ordering_conditions, mode_eigenvalues,
                      msd_eigenform, msd_series,
                      ordering_checks, strict_gap_holds,
                      strict_ordering_step_threshold)
import adaptnet.msdtheory as msdtheory
from adaptnet.msdtheory import _doubling_sum, series_reports
from adaptnet.spectra import build_error_recursions, spectral_radii
from adaptnet.strategies import uses_a

from conftest import (full_map, random_left_stochastic, random_spd,
                      random_symmetric_stochastic, stable_profiles)

ALL = tuple(StrategyKind)
DIFF = (StrategyKind.ATC, StrategyKind.CTA)
# the three strategies of the per-mode gap and ratio identities
GAP = (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.NON_COOPERATIVE)


def _scalar_profiles(mu_sigma, sigma=1.0, noise=0.1):
    return [NodeProfile(covariance=np.array([[sigma]]), step_size=p / sigma,
                        noise_variance=noise) for p in mu_sigma]


def _two_node_matrix(a_w, b_w):
    return np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])


def test_zero_noise_gives_zero_msd():
    profiles = _scalar_profiles([0.2, 0.3], noise=0.0)
    rec = build_error_recursion(StrategyKind.ATC, _two_node_matrix(0.3, 0.4),
                                profiles)
    rep = msd_series(rec)
    npt.assert_allclose(rep.per_node, 0.0, atol=1e-300)
    assert rep.network == 0.0


def test_scalar_lms_closed_form():
    # mu = 0.1, sigma_u^2 = 1, sigma_v^2 = 0.5: MSD = 1/38
    profiles = [NodeProfile(covariance=np.array([[1.0]]), step_size=0.1,
                            noise_variance=0.5)]
    rec = build_error_recursion(StrategyKind.NON_COOPERATIVE, np.eye(1), profiles)
    rep = msd_series(rec)
    assert rep.per_node[0] == pytest.approx(0.02631578947368421, rel=1e-10)


def test_hot_weights_consensus_divergence_verdict():
    profiles = _scalar_profiles([0.4, 0.6])
    rec = build_error_recursion(StrategyKind.CONSENSUS,
                                _two_node_matrix(0.85, 0.85), profiles)
    rep = msd_series(rec)
    assert rep.diverged
    assert rep.spectral_radius >= 1.0
    assert np.all(np.isinf(rep.per_node))


def test_series_that_cannot_settle_raises_from_the_stacked_loop(monkeypatch):
    # the four strategies stop at different steps; with the cap one step short
    # of the last stop, the ones that settle are dropped and the rest raise
    rng = np.random.default_rng(3)
    a = random_left_stochastic(4, rng)
    profiles = stable_profiles(4, 2, rng, diagonal=True)
    stack = build_error_recursions(ALL, a, profiles)
    steps = [int(rep.terms).bit_length() - 1 for rep in series_reports(stack).values()]
    assert min(steps) < max(steps)
    monkeypatch.setattr(msdtheory, "SERIES_MAX_STEPS", max(steps) - 1)
    with pytest.raises(NumericalError, match=f"did not settle in {max(steps) - 1} "):
        series_reports(stack)


def test_per_node_sum_does_not_read_the_layout_of_the_series(monkeypatch):
    # the same series values in Fortran order give the same per-node bits:
    # M = 10 blocks of 20 nodes, where a strided sum rounds differently
    topo, profiles, _ = benchmark_profile(n_nodes=20, dim=10, seed=20)
    a = build_combination_matrix(topo, "metropolis")
    stack = build_error_recursions(ALL, a, profiles)
    want = series_reports(stack)
    doubling_sum = msdtheory._doubling_sum

    def fortran_ordered(f, y):
        x, terms = doubling_sum(f, y)
        return np.asfortranarray(x), terms

    monkeypatch.setattr(msdtheory, "_doubling_sum", fortran_ordered)
    for kind, rep in series_reports(stack).items():
        assert np.array_equal(rep.per_node, want[kind].per_node), kind


def test_kronecker_mode_reconstruction():
    rng = np.random.default_rng(0)
    n, m = 4, 3
    a = random_symmetric_stochastic(n, rng)
    cov = np.diag(rng.uniform(0.5, 3.0, size=m))
    mu = 0.9 * 2.0 / np.linalg.eigvalsh(cov)[-1] * 0.4
    st = eigenstructure(a, cov)
    _, cov_vectors = np.linalg.eigh(cov)
    (modes,) = mode_eigenvalues(st, mu, (StrategyKind.ATC,))
    rebuilt = np.zeros((n * m, n * m), dtype=complex)
    for l in range(n):
        for j in range(m):
            rv = np.kron(st.right_vectors[:, l], cov_vectors[:, j])
            lv = np.kron(st.left_vectors[:, l], cov_vectors[:, j])
            rebuilt += modes[l, j] * np.outer(rv, lv.conj())
    profiles = [NodeProfile(covariance=cov, step_size=mu, noise_variance=0.1)
                for _ in range(n)]
    rec = build_error_recursion(StrategyKind.ATC, a, profiles)
    npt.assert_allclose(rebuilt.real, full_map(rec.transition[0], rec.basis), atol=1e-8)
    npt.assert_allclose(rebuilt.imag, 0.0, atol=1e-8)


def test_identity_matrix_modes_equal_across_strategies():
    st = eigenstructure(np.eye(3), np.diag([1.0, 2.0]))
    grids = mode_eigenvalues(st, 0.1, ALL)
    for grid in grids[1:]:
        npt.assert_allclose(np.sort_complex(grid.ravel()),
                            np.sort_complex(grids[0].ravel()), atol=1e-12)


def test_symmetric_matrix_orthonormal_structure():
    rng = np.random.default_rng(1)
    a = random_symmetric_stochastic(5, rng)
    st = eigenstructure(a, np.diag([1.0, 3.0]))
    assert st.orthonormality_defect <= 1e-8
    npt.assert_allclose(st.left_vectors, st.right_vectors, atol=1e-8)


@pytest.mark.parametrize("rule", ["metropolis", "uniform", "relative_variance"])
def test_eigen_route_is_real_on_a_real_spectrum(rule):
    # every rule on an undirected topology gives A a real spectrum; on this
    # irregular one the eigensolver returns it real, and the eigen route
    # keeps float64 from there to every per_mode
    adj = np.zeros((5, 5), dtype=bool)
    for l, k in [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)]:
        adj[l, k] = adj[k, l] = True
    noise = np.array([0.1, 0.2, 0.05, 0.3, 0.15])
    a = build_combination_matrix(NetworkTopology(5, adj), rule, noise)
    st = eigenstructure(a, np.array([[2.0, 0.3], [0.3, 1.0]]))
    arrays = [st.eigenvalues, st.right_vectors, st.left_vectors, mode_eigenvalues(st, 0.2, ALL)]
    arrays += [rep.per_mode for rep in msd_eigenform(st, 0.2, noise, ALL).values()]
    for arr in arrays:
        assert arr.dtype == np.float64


def test_eigen_route_is_complex_on_a_complex_spectrum():
    # a directed 3-cycle with self-loops: eigenvalues 1 and 0.25 +- 0.433i
    a = np.array([[0.5, 0.0, 0.5],
                  [0.5, 0.5, 0.0],
                  [0.0, 0.5, 0.5]])
    cov = np.diag([1.0, 2.0])
    noise = np.array([0.1, 0.2, 0.3])
    st = eigenstructure(a, cov)
    for arr in (st.eigenvalues, st.right_vectors, st.left_vectors,
                mode_eigenvalues(st, 0.2, ALL)):
        assert arr.dtype == np.complex128
    profiles = [NodeProfile(covariance=cov, step_size=0.2, noise_variance=v) for v in noise]
    series = series_reports(build_error_recursions(ALL, a, profiles))
    for kind, rep in msd_eigenform(st, 0.2, noise, ALL).items():
        npt.assert_allclose(rep.per_node, series[kind].per_node, rtol=1e-8, atol=0)


def test_eigen_route_at_the_benchmark_scale():
    # the small-step theory workload's inputs: 20 nodes, dim 5, mu = 0.002,
    # metropolis weights, the mean covariance at every node and its own noise
    mu = 0.002
    topo, profiles, _ = benchmark_profile(20, 5, seed=20, step_size=mu)
    a = build_combination_matrix(topo, "metropolis").weights
    cov = np.mean([p.covariance for p in profiles], axis=0)
    hom = [replace(p, covariance=cov) for p in profiles]
    noise = np.array([p.noise_variance for p in profiles])
    st = eigenstructure(a, cov)
    assert not np.iscomplexobj(st.right_vectors)
    series = series_reports(build_error_recursions(ALL, a, hom))
    for kind, rep in msd_eigenform(st, mu, noise, ALL).items():
        npt.assert_allclose(rep.per_node, series[kind].per_node, rtol=1e-8, atol=0)
    assert ordering_checks(a, cov, mu, noise).diffusion_first


def test_defective_matrix_rejected():
    a = np.array([[0.5, 0.0, 0.0],
                  [0.5, 0.5, 0.0],
                  [0.0, 0.5, 1.0]])
    with pytest.raises(NotDiagonalizableError):
        eigenstructure(a, np.eye(1))


@pytest.mark.parametrize("delta, refused", [(1e-6, False), (1e-10, True)])
def test_condition_limit_separates_near_defective_from_defective(delta, refused):
    # A^T = [[1 - a, a, 0], [0, 1 - b, b], [0, 0, 1]] with a = b + delta
    # coalesces two eigenvectors as delta -> 0: condition 9.4e5 at 1e-6,
    # 9.4e9 at 1e-10, each about 100 times from COND_LIMIT = 1e8
    a, b = 0.3 + delta, 0.3
    at = np.array([[1 - a, a, 0.0], [0.0, 1 - b, b], [0.0, 0.0, 1.0]])
    if refused:
        with pytest.raises(NotDiagonalizableError, match="9.4"):
            eigenstructure(at.T, np.eye(1))
    else:
        assert eigenstructure(at.T, np.eye(1)).condition == pytest.approx(9.4e5, rel=0.01)


def test_series_vs_eigenform_random_instances():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        a = random_symmetric_stochastic(n, rng)
        profiles = stable_profiles(n, m, rng, homogeneous=True, mu_hi=0.7)
        noise = np.array([p.noise_variance for p in profiles])
        st = eigenstructure(a, profiles[0].covariance)
        eigen_reports = msd_eigenform(st, profiles[0].step_size, noise, ALL)
        for kind in ALL:
            series = msd_series(build_error_recursion(kind, a, profiles))
            if series.diverged:
                continue
            eigen = eigen_reports[kind]
            npt.assert_allclose(eigen.per_node, series.per_node, rtol=1e-6)
            checked += 1
    assert checked >= 100


def test_region_boundary_consensus_equals_cta():
    # collapsed network values coincide where a + b = 2(1-p)/(2-p)
    p, sigma = 0.4, 1.3
    noise = np.array([0.05, 0.02])
    for a_w, b_w in [(0.375, 0.375), (0.3, 0.45), (0.6, 0.15)]:
        st = eigenstructure(_two_node_matrix(a_w, b_w), np.array([[sigma]]))
        cons, cta = msd_eigenform(st, p / sigma, noise,
                                  (StrategyKind.CONSENSUS, StrategyKind.CTA)).values()
        assert cons.network_orthonormal == pytest.approx(
            cta.network_orthonormal, abs=1e-9)


def test_region_boundary_consensus_equals_noncooperative():
    p, sigma = 0.4, 1.3
    noise = np.array([0.05, 0.02])
    for a_w, b_w in [(0.6, 0.6), (0.8, 0.4), (0.25, 0.95)]:
        st = eigenstructure(_two_node_matrix(a_w, b_w), np.array([[sigma]]))
        cons, ncop = msd_eigenform(st, p / sigma, noise,
                                   (StrategyKind.CONSENSUS, StrategyKind.NON_COOPERATIVE)
                                   ).values()
        assert cons.network_orthonormal == pytest.approx(
            ncop.network_orthonormal, abs=1e-9)


def test_noncoop_component_closed_form():
    rng = np.random.default_rng(3)
    a = random_symmetric_stochastic(3, rng)
    cov = np.diag([1.0, 2.5])
    st = eigenstructure(a, cov)
    mu = 0.2
    noise = np.array([0.3, 0.1, 0.05])
    ncop = StrategyKind.NON_COOPERATIVE
    comp = msd_eigenform(st, mu, noise, (ncop,))[ncop].per_mode
    for k in range(3):
        for m, lam in enumerate([1.0, 2.5]):
            expected = mu ** 2 * lam * noise[k] / (1.0 - (1.0 - mu * lam) ** 2)
            assert comp[k, m] == pytest.approx(expected, rel=1e-12)


def test_identity_matrix_components_equal():
    st = eigenstructure(np.eye(3), np.diag([1.0, 2.0]))
    noise = np.array([0.2, 0.1, 0.3])
    comps = [rep.per_mode for rep in msd_eigenform(st, 0.15, noise, GAP).values()]
    npt.assert_allclose(comps[0], comps[2], atol=1e-12)
    npt.assert_allclose(comps[1], comps[2], atol=1e-12)


def test_component_series_matches_eigen_route():
    # in the shared eigenbasis, series block m's (k, k) entry is MSD_k(m);
    # consensus can be unstable at these steps, and those draws are skipped
    rng = np.random.default_rng(4)
    stable_consensus = 0
    for draw_a in (random_symmetric_stochastic, random_left_stochastic):
        for rotated in (False, True):
            for _ in range(5):
                n = int(rng.integers(2, 6))
                m = int(rng.integers(2, 4))
                a = draw_a(n, rng)
                cov = (random_spd(m, rng) if rotated
                       else np.diag(rng.uniform(0.5, 3.0, size=m)))
                mu = float(rng.uniform(0.1, 0.5) * 2.0 / np.linalg.eigvalsh(cov)[-1])
                noise = rng.uniform(0.02, 0.4, size=n)
                profiles = [NodeProfile(covariance=cov, step_size=mu, noise_variance=v)
                            for v in noise]
                st = eigenstructure(a, cov)
                eigen = msd_eigenform(st, mu, noise, ALL)
                for kind in ALL:
                    rec = build_error_recursion(kind, a, profiles)
                    assert rec.blocks == m
                    if spectral_radii(rec)[0] >= 1.0:
                        continue
                    stable_consensus += kind is StrategyKind.CONSENSUS
                    x, _ = _doubling_sum(rec.transition, rec.noise_gram)
                    series = x[0].diagonal(axis1=1, axis2=2).T
                    npt.assert_allclose(eigen[kind].per_mode, series, rtol=1e-12)
    assert stable_consensus > 0


def _reference_per_mode(st, mu, noise, kind):
    """A cooperative strategy's (N, M) MSD_k(m) as a loop over the modes m,
    with the slot gains of its own table row."""
    lam = st.eigenvalues[:, None]
    g1, g0, g2 = (lam if uses else 1.0 for uses in uses_a(kind))
    modes = np.broadcast_to(g2 * (g0 - mu * st.cov_eigenvalues) * g1,
                            (st.n_nodes, st.cov_eigenvalues.size))
    s, u = st.left_vectors, st.right_vectors
    gram = g2 * np.conj(g2).T * (s.conj().T @ (noise[:, None] * s))
    comp = np.empty(modes.shape)
    for m, lam_m in enumerate(st.cov_eigenvalues):
        t = mu ** 2 * lam_m * gram / (1.0 - modes[:, m, None] * modes[None, :, m].conj())
        comp[:, m] = np.einsum("kl,lj,kj->k", u, t, u.conj()).real
    return comp


def test_per_mode_terms_are_the_loop_over_modes_bit_for_bit():
    # the one einsum over (strategy, mode) sums every term in the order of
    # the loop over modes, so each cooperative per_mode keeps its bits, in
    # real arithmetic where A's spectrum is real and complex where it is not
    rng = np.random.default_rng(13)
    checked = 0
    structures = {"real": 0, "complex": 0}
    for _ in range(30):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        a = (random_symmetric_stochastic(n, rng) if rng.random() < 0.5
             else random_left_stochastic(n, rng))
        cov = random_spd(m, rng)
        mu = float(rng.uniform(0.05, 0.9) * 2.0 / np.linalg.eigvalsh(cov)[-1])
        noise = rng.uniform(0.0, 0.4, size=n)
        st = eigenstructure(a, cov)
        structures["complex" if np.iscomplexobj(st.right_vectors) else "real"] += 1
        for kind, rep in msd_eigenform(st, mu, noise, ALL).items():
            if kind is StrategyKind.NON_COOPERATIVE or rep.diverged:
                continue
            assert np.array_equal(rep.per_mode, _reference_per_mode(st, mu, noise, kind)), kind
            checked += 1
    assert checked >= 60
    assert structures["real"] > 0 and structures["complex"] > 0, structures


def test_components_sum_to_per_node_msd():
    rng = np.random.default_rng(5)
    a = random_symmetric_stochastic(4, rng)
    cov = np.diag([1.0, 2.0, 0.7])
    mu = 0.25
    noise = rng.uniform(0.05, 0.3, size=4)
    st = eigenstructure(a, cov)
    for rep in msd_eigenform(st, mu, noise, GAP).values():
        npt.assert_array_equal(rep.per_mode.sum(axis=1), rep.per_node)


def test_unknown_strategy_is_config_error():
    st = eigenstructure(np.eye(2), np.eye(1))
    with pytest.raises(ConfigError, match="unknown strategy"):
        mode_eigenvalues(st, 0.1, ("atc",))


def test_unstable_modes_reported_or_raised():
    st = eigenstructure(np.eye(2), np.array([[1.0]]))
    rep = msd_eigenform(st, 2.5, [0.1, 0.1], (StrategyKind.ATC,))[StrategyKind.ATC]
    assert rep.diverged
    assert rep.per_mode is None
    assert rep.spectral_radius == pytest.approx(1.5)


def test_unstable_consensus_modes_raised():
    # diffusion modes lambda_l(A)(1 - mu) stay inside the unit circle, but
    # the consensus mode lambda_2(A) - mu = -0.7 - 0.6 leaves it
    st = eigenstructure(_two_node_matrix(0.85, 0.85), np.array([[1.0]]))
    noise = np.array([0.1, 0.1])
    cta, rep = msd_eigenform(st, 0.6, noise, (StrategyKind.CTA, StrategyKind.CONSENSUS)
                             ).values()
    assert cta.per_mode is not None
    assert rep.diverged
    assert rep.per_mode is None
    assert rep.spectral_radius == pytest.approx(1.3)


def test_eigenform_refusal_is_a_report_across_the_stability_limit():
    # diffusion and non-coop leave the unit circle at mu = 2, consensus at
    # mu = 0.3 (|-0.7 - mu| = 1); the grid keeps clear of both limits, where
    # a near-singular denominator refuses a radius a hair below 1; one pass
    # per mu, so a diverged consensus shares its pass with a stable ATC
    st = eigenstructure(_two_node_matrix(0.85, 0.85), np.array([[1.0]]))
    noise = np.array([0.1, 0.2])
    seen = set()
    for mu in np.linspace(0.05, 2.6, 52):
        for kind, rep in msd_eigenform(st, mu, noise, ALL).items():
            assert rep.diverged == (rep.spectral_radius >= 1.0)
            assert (rep.per_mode is None) == rep.diverged
            seen.add((kind, rep.diverged))
    assert len(seen) == 2 * len(ALL)


@pytest.mark.parametrize("mu, refused", [(1e-8, False), (1e-14, True)])
def test_denominator_guard_refuses_a_vanishing_step(mu, refused):
    # the modes at lambda_l(A) = 1 give 1 - (1 - mu)^2 ~ 2 mu: 2e-8 clears
    # DENOM_GUARD = 1e-12 and 2e-14 does not, while the radius 1 - mu stays
    # below 1.  strict_ordering_step_threshold's halvings reach such steps
    st = eigenstructure(np.array([[0.7, 0.4], [0.3, 0.6]]), np.eye(1))
    reports = msd_eigenform(st, mu, [0.1, 0.1],
                            (StrategyKind.CTA, StrategyKind.NON_COOPERATIVE))
    for rep in reports.values():
        assert rep.spectral_radius < 1.0
        assert rep.diverged == refused
        assert (rep.per_mode is None) == refused


def test_ordering_checks_raises_a_refused_diffusion_strategy():
    # ATC modes (1 - 2.5) lambda_l(A) reach radius 1.5; the verdicts
    # compare finite MSDs, so the refusal is raised, not reported
    with pytest.raises(StabilityError, match="atc error modes reach radius 1.5 >= 1 at mu = 2.5"):
        ordering_checks(_two_node_matrix(0.3, 0.4), np.array([[1.0]]), 2.5, [0.1, 0.1])


_A2 = _two_node_matrix(0.3, 0.4)


@pytest.mark.parametrize("call, fragment", [
    (lambda: eigenstructure(_A2, np.array([[np.nan]])), "finite and symmetric"),
    (lambda: eigenstructure(_A2, np.array([[2.0, 1.0], [0.0, 1.0]])), "finite and symmetric"),
    (lambda: eigenstructure(_A2, np.diag([1.0, -1.0])), "positive definite"),
    (lambda: ordering_checks(_A2, np.eye(1), 0.1, [-0.1, 0.1]), "noise variances"),
    (lambda: ordering_checks(_A2, np.eye(1), 0.1, [np.nan, 0.1]), "noise variances"),
    (lambda: ordering_checks(_A2, np.eye(1), np.nan, [0.1, 0.1]), "step size"),
    (lambda: ordering_checks(_A2, np.eye(1), -0.1, [0.1, 0.1]), "step size"),
    (lambda: msd_eigenform(eigenstructure(_A2, np.eye(1)), 0.1, [0.1, 0.1, 0.1],
                           (StrategyKind.ATC,)), "expected 2 finite noise"),
    (lambda: strict_gap_holds(eigenstructure(_A2, np.eye(1)), 0.1, [0.1, np.inf]),
     "noise variances"),
    (lambda: individual_ordering_conditions(_A2, [-0.1, 0.1]), "noise variances"),
], ids=["nan-covariance", "asymmetric-covariance", "indefinite-covariance",
        "negative-noise", "nan-noise", "nan-step", "negative-step", "noise-length",
        "infinite-noise-gap", "negative-noise-conditions"])
def test_eigen_route_rejects_invalid_inputs(call, fragment):
    with pytest.raises(ConfigError, match=fragment):
        call()


def test_msd_orderings_random_symmetric():
    rng = np.random.default_rng(6)
    seen_worst = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        a = random_symmetric_stochastic(n, rng)
        profiles = stable_profiles(n, m, rng, homogeneous=True, mu_hi=0.9)
        noise = [p.noise_variance for p in profiles]
        rep = ordering_checks(a, profiles[0].covariance, profiles[0].step_size,
                              noise)
        assert rep.atc_le_cta and rep.cta_le_ncop and rep.atc_le_cons
        if rep.consensus_worst is not None:
            assert rep.consensus_worst
            seen_worst += 1
    assert seen_worst > 0


def test_consensus_worst_when_step_exceeds_inverse_lambda_min():
    # mu * lam_min = 1.2 with consensus still stable: cons >= ncop
    sigma = 1.0
    mu = 1.2
    a = _two_node_matrix(0.3, 0.3)   # lam_min(A) = 0.4 > mu*sigma^2 - 1
    rep = ordering_checks(a, np.array([[sigma]]), mu, [0.1, 0.2])
    assert rep.mu_lambda_min == pytest.approx(1.2)
    assert rep.consensus_worst is True


def test_ordering_checks_reports_a_violated_ordering():
    # a non-symmetric homogeneous instance from a seeded search, on which
    # both nodes lean on the noisier node 2: every diffusion verdict fails,
    # by 7e-6 to 7e-5 at network MSDs near 4e-4, and the exact series route
    # finds the same gaps; a slack of 1e-3 would hide all three
    a = np.array([[0.04, 0.01], [0.96, 0.99]])
    mu, noise = 0.06, [0.008, 0.014]
    rep = ordering_checks(a, np.eye(1), mu, noise)
    assert not (rep.atc_le_cta or rep.cta_le_ncop or rep.atc_le_cons)
    assert not rep.diffusion_first
    profiles = [NodeProfile(step_size=mu, covariance=np.eye(1), noise_variance=v)
                for v in noise]
    series = {k: r.network for k, r in series_reports(build_error_recursions(ALL, a, profiles)).items()}
    atc, cta, cons, ncop = (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.CONSENSUS,
                            StrategyKind.NON_COOPERATIVE)
    for worse, better in ((atc, cta), (cta, ncop), (atc, cons)):
        gap = series[worse] - series[better]
        assert 1e-6 < gap < 1e-4
        assert rep.network[worse] - rep.network[better] == pytest.approx(gap, rel=1e-6)


def test_identity_matrix_all_strategies_equal_msd():
    st = eigenstructure(np.eye(3), np.diag([1.0, 2.0]))
    noise = np.array([0.2, 0.1, 0.3])
    reps = msd_eigenform(st, 0.2, noise, ALL)
    base = reps[StrategyKind.NON_COOPERATIVE].per_node
    for kind in ALL:
        npt.assert_allclose(reps[kind].per_node, base, atol=1e-12)


def test_trichotomy_per_component():
    # per (k, m): either atc <= cta <= ncop or the full reverse, never mixed
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = random_symmetric_stochastic(n, rng)
        cov = np.diag(rng.uniform(0.5, 3.0, size=2))
        mu = float(rng.uniform(0.05, 0.95) * 2.0 / np.linalg.eigvalsh(cov)[-1])
        noise = rng.uniform(0.02, 0.4, size=n)
        st = eigenstructure(a, cov)
        atc, cta, ncop = (rep.per_mode for rep in msd_eigenform(st, mu, noise, GAP).values())
        tol = 1e-12 * np.abs(ncop).max()
        forward = (atc <= cta + tol) & (cta <= ncop + tol)
        reverse = (ncop <= cta + tol) & (cta <= atc + tol)
        assert np.all(forward | reverse)


def _reference_ratio_checks(matrix, covariance, mu, noise):
    """The eigen route's per-mode ratio identities as a scalar loop over
    (node, mode): (ncop - atc) / (ncop - cta) = 1 / (1 - mu lambda_m)^2 and
    (ncop - atc) / (cta - atc) = 1 / (1 - (1 - mu lambda_m)^2), read from
    ``msd_eigenform(...)[kind].per_mode``.  An entry with a gap below 1e-14
    of the largest non-cooperative term is skipped, and a NaN ratio error is
    ignored.  Returns (largest relative error, entries skipped)."""
    st = eigenstructure(matrix, covariance)
    comp = {kind: rep.per_mode for kind, rep in msd_eigenform(st, mu, noise, GAP).items()}
    gap_nc = comp[StrategyKind.NON_COOPERATIVE] - comp[StrategyKind.CTA]
    gap_na = comp[StrategyKind.NON_COOPERATIVE] - comp[StrategyKind.ATC]
    gap_ca = comp[StrategyKind.CTA] - comp[StrategyKind.ATC]
    shrink = 1.0 - mu * st.cov_eigenvalues
    target1, target2 = 1.0 / shrink ** 2, 1.0 / (1.0 - shrink ** 2)
    floor = 1e-14 * np.abs(comp[StrategyKind.NON_COOPERATIVE]).max()
    ratio_err, skipped = 0.0, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(gap_nc.shape[0]):
            for m in range(gap_nc.shape[1]):
                if abs(gap_nc[k, m]) < floor or abs(gap_ca[k, m]) < floor:
                    skipped += 1
                    continue
                r1 = gap_na[k, m] / gap_nc[k, m]
                r2 = gap_na[k, m] / gap_ca[k, m]
                # max() keeps its running value against a NaN
                ratio_err = max(ratio_err,
                                abs(r1 - target1[m]) / abs(target1[m]),
                                abs(r2 - target2[m]) / abs(target2[m]))
    return ratio_err, skipped


def test_ratio_identities_hold():
    # the per-mode ratios above, and the CTA/consensus mode shift
    # lambda_cta - lambda_cons = (1 - lambda_l(A)) mu lambda_m
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_symmetric_stochastic(n, rng)
        cov = np.diag(rng.uniform(0.5, 3.0, size=2))
        mu = float(rng.uniform(0.05, 0.9) * 2.0 / np.linalg.eigvalsh(cov)[-1])
        noise = rng.uniform(0.02, 0.4, size=n)
        assert _reference_ratio_checks(a, cov, mu, noise)[0] < 1e-8
        st = eigenstructure(a, cov)
        cta_modes, cons_modes = mode_eigenvalues(st, mu, (StrategyKind.CTA,
                                                          StrategyKind.CONSENSUS))
        predicted = np.outer(1.0 - st.eigenvalues, mu * st.cov_eigenvalues)
        assert np.max(np.abs((cta_modes - cons_modes) - predicted)) < 1e-12
    # node 0 on its own: its two gaps vanish and are skipped, the others hold
    isolated = np.zeros((3, 3))
    isolated[0, 0] = 1.0
    isolated[1:, 1:] = _two_node_matrix(0.3, 0.4)
    ratio_err, skipped = _reference_ratio_checks(isolated, np.diag([1.0, 2.0]), 0.3,
                                                 np.array([0.1, 0.2, 0.3]))
    assert ratio_err < 1e-8
    assert skipped == 2


def test_eigen_route_ignores_eigenpair_order_and_phase(monkeypatch):
    # every eigen-route quantity is a sum over all modes of A: permuting the
    # eigenpairs and turning each r_l by a unit phase, and s_l by the same
    # phase so that s_l^* r_l = 1 still holds, moves per_node only at
    # rounding and changes no refusal and no ordering verdict
    rng = np.random.default_rng(14)

    def verdicts(structure, a, cov, mu, noise):
        monkeypatch.setattr(msdtheory, "eigenstructure", lambda *args: structure)
        try:
            rep = ordering_checks(a, cov, mu, noise)
        except StabilityError as exc:
            return str(exc)
        return rep.atc_le_cta, rep.cta_le_ncop, rep.atc_le_cons, rep.consensus_worst

    refused = 0
    for _ in range(40):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        a = (random_symmetric_stochastic(n, rng) if rng.random() < 0.5
             else random_left_stochastic(n, rng))
        cov = random_spd(m, rng)
        mu = float(rng.uniform(0.05, 1.3) * 2.0 / np.linalg.eigvalsh(cov)[-1])
        noise = rng.uniform(0.0, 0.4, size=n)
        st = eigenstructure(a, cov)
        perm = rng.permutation(n)
        phase = np.exp(2j * np.pi * rng.random(n))
        turned = replace(st, eigenvalues=st.eigenvalues[perm],
                         right_vectors=st.right_vectors[:, perm] * phase,
                         left_vectors=st.left_vectors[:, perm] * phase)
        assert np.linalg.cond(turned.right_vectors) == pytest.approx(st.condition, rel=1e-12)
        want = msd_eigenform(st, mu, noise, ALL)
        for kind, rep in msd_eigenform(turned, mu, noise, ALL).items():
            assert (rep.per_mode is None) == (want[kind].per_mode is None), kind
            if rep.per_mode is None:
                refused += 1
            else:
                npt.assert_allclose(rep.per_node, want[kind].per_node, rtol=1e-12, atol=0)
        assert verdicts(turned, a, cov, mu, noise) == verdicts(st, a, cov, mu, noise)
    assert refused > 0


def test_ordering_checks_makes_one_eigen_pass(monkeypatch):
    # one eigenstructure, one four-strategy msd_eigenform, and the one mode
    # grid that msd_eigenform builds
    trace = []

    def spy(name):
        real = getattr(msdtheory, name)

        def wrapped(*args, **kwargs):
            trace.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                trace.append("end " + name)
        monkeypatch.setattr(msdtheory, name, wrapped)

    for name in ("eigenstructure", "msd_eigenform", "mode_eigenvalues"):
        spy(name)
    rep = ordering_checks(_two_node_matrix(0.3, 0.4), np.diag([1.0, 2.0]), 0.3, [0.1, 0.2])
    assert rep.diffusion_first
    assert trace == ["eigenstructure", "end eigenstructure",
                     "msd_eigenform", "mode_eigenvalues", "end mode_eigenvalues",
                     "end msd_eigenform"]


def test_psd_noise_shrinkage_implies_per_node_ordering():
    # a = t b keeps Sigma_v - A^T Sigma_v A PSD; ordering then holds per node
    t, b_w = 2.0, 0.3
    a_w = t * b_w
    a = _two_node_matrix(a_w, b_w)
    floor = 0.04
    noise = np.array([t * floor, floor])
    cond = individual_ordering_conditions(a, noise)
    assert cond.noise_shrink_psd
    assert cond.min_eigenvalue >= -1e-12
    cov = np.array([[1.0]])
    st = eigenstructure(a, cov)
    for mu in (0.05, 0.3, 0.9, 1.5):
        reps = msd_eigenform(st, mu, noise, GAP)
        atc = reps[StrategyKind.ATC].per_node
        cta = reps[StrategyKind.CTA].per_node
        ncop = reps[StrategyKind.NON_COOPERATIVE].per_node
        assert np.all(atc <= cta + 1e-12)
        assert np.all(cta <= ncop + 1e-12)


def test_noise_conditions_detect_non_psd():
    a = _two_node_matrix(0.5, 0.5)
    cond = individual_ordering_conditions(a, [2.0 * 0.1, 0.1])  # t = 2, a != t b
    assert not cond.noise_shrink_psd
    assert cond.min_eigenvalue < 0
    assert cond.primitive


def test_psd_implies_strict_condition_for_primitive():
    # PSD noise shrinkage implies the strict Perron-mean condition whenever
    # the matrix is primitive
    rng = np.random.default_rng(9)
    implied = 0
    for _ in range(50):
        b_w = float(rng.uniform(0.05, 0.45))
        t = float(rng.uniform(0.3, 2.0))
        if b_w > min(1.0, 1.0 / t):
            continue
        a_w = t * b_w
        if not 0 < a_w < 1:
            continue
        floor = float(rng.uniform(0.01, 0.5))
        cond = individual_ordering_conditions(_two_node_matrix(a_w, b_w),
                                              [t * floor, floor])
        if cond.noise_shrink_psd and cond.primitive:
            assert cond.strict_condition
            implied += 1
    assert implied > 0


def test_strict_ordering_threshold_found_and_certified():
    a = _two_node_matrix(0.5, 0.5)
    cov = np.array([[1.0]])
    noise = np.array([0.2, 0.1])   # t = 2: strict condition holds
    cond = individual_ordering_conditions(a, noise)
    assert cond.strict_condition
    report = strict_ordering_step_threshold(a, cov, noise)
    assert report.found
    assert 0 < report.mu_star < report.stability_bound
    st = eigenstructure(a, cov)
    for mu in (report.mu_star, 0.5 * report.mu_star, 0.1 * report.mu_star):
        assert strict_gap_holds(st, mu, noise)
        atc, cta, ncop = (rep.per_node for rep in msd_eigenform(st, mu, noise, GAP).values())
        assert np.all(atc < cta) and np.all(cta < ncop)


def _gap_calls(monkeypatch):
    """The (mu, verdict) of every strict_gap_holds call, in call order."""
    calls = []
    real = msdtheory.strict_gap_holds

    def counted(structure, mu, noise_variances):
        ok = real(structure, mu, noise_variances)
        calls.append((mu, ok))
        return ok
    monkeypatch.setattr(msdtheory, "strict_gap_holds", counted)
    return calls


@pytest.mark.parametrize("a_w, b_w, noise, halvings", [
    (0.5, 0.5, [0.2, 0.1], 2),
    (0.85, 0.45, [0.04, 0.08], 7),
], ids=["mu* at bound over 4", "mu* at bound over 128"])
def test_strict_ordering_threshold_is_the_first_halving_that_holds(
        monkeypatch, a_w, b_w, noise, halvings):
    # mu* = bound / 2^j takes j calls, and the j - 1 earlier halvings fail
    calls = _gap_calls(monkeypatch)
    report = strict_ordering_step_threshold(_two_node_matrix(a_w, b_w), np.array([[1.0]]),
                                            np.array(noise))
    bound = report.stability_bound
    assert [mu for mu, _ in calls] == [bound * 0.5 ** j for j in range(1, halvings + 1)]
    assert [ok for _, ok in calls] == [False] * (halvings - 1) + [True]
    assert report.mu_star == calls[-1][0]


def test_strict_ordering_threshold_not_found_where_the_strict_condition_fails(monkeypatch):
    a = _two_node_matrix(0.5, 0.5)
    noise = np.array([1.0, 0.1])   # Perron mean (1 + 0.1) / 4 exceeds node 2's 0.1
    assert not individual_ordering_conditions(a, noise).strict_condition
    calls = _gap_calls(monkeypatch)
    report = strict_ordering_step_threshold(a, np.array([[1.0]]), noise)
    assert not report.found and report.mu_star is None
    assert len(calls) == msdtheory.MAX_HALVINGS
    assert not any(ok for _, ok in calls)


def test_strict_threshold_requires_primitive():
    with pytest.raises(UnsupportedInputError):
        strict_ordering_step_threshold(np.eye(2), np.array([[1.0]]), [0.1, 0.2])
