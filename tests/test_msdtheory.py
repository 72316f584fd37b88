import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, NodeProfile, NotDiagonalizableError, StabilityError,
                      StrategyKind, UnsupportedInputError,
                      build_error_recursion, eigenstructure,
                      individual_ordering_conditions, mode_eigenvalues,
                      msd_eigenform, msd_series,
                      ordering_checks, strict_gap_holds,
                      strict_ordering_step_threshold)
from adaptnet.msdtheory import _component_matrix, _doubling_sum

from conftest import (full_map, random_left_stochastic, random_spd,
                      random_symmetric_stochastic, stable_profiles)

ALL = tuple(StrategyKind)
DIFF = (StrategyKind.ATC, StrategyKind.CTA)


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


def test_kronecker_mode_reconstruction():
    rng = np.random.default_rng(0)
    n, m = 4, 3
    a = random_symmetric_stochastic(n, rng)
    cov = np.diag(rng.uniform(0.5, 3.0, size=m))
    mu = 0.9 * 2.0 / np.linalg.eigvalsh(cov)[-1] * 0.4
    st = eigenstructure(a, cov)
    modes = mode_eigenvalues(st, mu, StrategyKind.ATC)
    rebuilt = np.zeros((n * m, n * m), dtype=complex)
    for l in range(n):
        for j in range(m):
            rv = np.kron(st.right_vectors[:, l], st.cov_vectors[:, j])
            lv = np.kron(st.left_vectors[:, l], st.cov_vectors[:, j])
            rebuilt += modes[l, j] * np.outer(rv, lv.conj())
    profiles = [NodeProfile(covariance=cov, step_size=mu, noise_variance=0.1)
                for _ in range(n)]
    rec = build_error_recursion(StrategyKind.ATC, a, profiles)
    npt.assert_allclose(rebuilt.real, full_map(rec.transition, rec.basis), atol=1e-8)
    npt.assert_allclose(rebuilt.imag, 0.0, atol=1e-8)


def test_identity_matrix_modes_equal_across_strategies():
    st = eigenstructure(np.eye(3), np.diag([1.0, 2.0]))
    grids = [mode_eigenvalues(st, 0.1, kind) for kind in ALL]
    for grid in grids[1:]:
        npt.assert_allclose(np.sort_complex(grid.ravel()),
                            np.sort_complex(grids[0].ravel()), atol=1e-12)


def test_symmetric_matrix_orthonormal_structure():
    rng = np.random.default_rng(1)
    a = random_symmetric_stochastic(5, rng)
    st = eigenstructure(a, np.diag([1.0, 3.0]))
    assert st.orthonormality_defect <= 1e-8
    npt.assert_allclose(st.left_vectors, st.right_vectors, atol=1e-8)


def test_defective_matrix_rejected():
    a = np.array([[0.5, 0.0, 0.0],
                  [0.5, 0.5, 0.0],
                  [0.0, 0.5, 1.0]])
    with pytest.raises(NotDiagonalizableError):
        eigenstructure(a, np.eye(1))


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
        for kind in ALL:
            series = msd_series(build_error_recursion(kind, a, profiles))
            if series.diverged:
                continue
            eigen = msd_eigenform(st, profiles[0].step_size, noise, kind)
            npt.assert_allclose(eigen.per_node, series.per_node, rtol=1e-6)
            checked += 1
    assert checked >= 100


def test_region_boundary_consensus_equals_cta():
    # collapsed network values coincide where a + b = 2(1-p)/(2-p)
    p, sigma = 0.4, 1.3
    noise = np.array([0.05, 0.02])
    for a_w, b_w in [(0.375, 0.375), (0.3, 0.45), (0.6, 0.15)]:
        st = eigenstructure(_two_node_matrix(a_w, b_w), np.array([[sigma]]))
        cons = msd_eigenform(st, p / sigma, noise, StrategyKind.CONSENSUS)
        cta = msd_eigenform(st, p / sigma, noise, StrategyKind.CTA)
        assert cons.network_orthonormal == pytest.approx(
            cta.network_orthonormal, abs=1e-9)


def test_region_boundary_consensus_equals_noncooperative():
    p, sigma = 0.4, 1.3
    noise = np.array([0.05, 0.02])
    for a_w, b_w in [(0.6, 0.6), (0.8, 0.4), (0.25, 0.95)]:
        st = eigenstructure(_two_node_matrix(a_w, b_w), np.array([[sigma]]))
        cons = msd_eigenform(st, p / sigma, noise, StrategyKind.CONSENSUS)
        ncop = msd_eigenform(st, p / sigma, noise, StrategyKind.NON_COOPERATIVE)
        assert cons.network_orthonormal == pytest.approx(
            ncop.network_orthonormal, abs=1e-9)


def test_noncoop_component_closed_form():
    rng = np.random.default_rng(3)
    a = random_symmetric_stochastic(3, rng)
    cov = np.diag([1.0, 2.5])
    st = eigenstructure(a, cov)
    mu = 0.2
    noise = np.array([0.3, 0.1, 0.05])
    comp = _component_matrix(st, mu, noise, StrategyKind.NON_COOPERATIVE)
    for k in range(3):
        for m, lam in enumerate([1.0, 2.5]):
            expected = mu ** 2 * lam * noise[k] / (1.0 - (1.0 - mu * lam) ** 2)
            assert comp[k, m] == pytest.approx(expected, rel=1e-12)


def test_identity_matrix_components_equal():
    st = eigenstructure(np.eye(3), np.diag([1.0, 2.0]))
    noise = np.array([0.2, 0.1, 0.3])
    comps = [_component_matrix(st, 0.15, noise, kind)
             for kind in (StrategyKind.ATC, StrategyKind.CTA,
                          StrategyKind.NON_COOPERATIVE)]
    npt.assert_allclose(comps[0], comps[2], atol=1e-12)
    npt.assert_allclose(comps[1], comps[2], atol=1e-12)


def test_component_series_matches_eigen_route():
    # in the shared eigenbasis, series block m's (k, k) entry is MSD_k(m)
    rng = np.random.default_rng(4)
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
                for kind in (StrategyKind.ATC, StrategyKind.CTA,
                             StrategyKind.NON_COOPERATIVE):
                    rec = build_error_recursion(kind, a, profiles)
                    assert rec.blocks == m
                    x, _ = _doubling_sum(rec.transition, rec.noise_gram)
                    series = x.diagonal(axis1=1, axis2=2).T
                    npt.assert_allclose(_component_matrix(st, mu, noise, kind), series,
                                        rtol=1e-12)


def test_components_sum_to_per_node_msd():
    rng = np.random.default_rng(5)
    a = random_symmetric_stochastic(4, rng)
    cov = np.diag([1.0, 2.0, 0.7])
    mu = 0.25
    noise = rng.uniform(0.05, 0.3, size=4)
    st = eigenstructure(a, cov)
    for kind in (StrategyKind.ATC, StrategyKind.CTA,
                 StrategyKind.NON_COOPERATIVE):
        comp = _component_matrix(st, mu, noise, kind)
        rep = msd_eigenform(st, mu, noise, kind)
        npt.assert_allclose(comp.sum(axis=1), rep.per_node, atol=1e-10)


def test_unknown_strategy_is_config_error():
    st = eigenstructure(np.eye(2), np.eye(1))
    with pytest.raises(ConfigError, match="unknown strategy"):
        mode_eigenvalues(st, 0.1, "atc")


def test_unstable_modes_reported_or_raised():
    st = eigenstructure(np.eye(2), np.array([[1.0]]))
    rep = msd_eigenform(st, 2.5, [0.1, 0.1], StrategyKind.ATC)
    assert rep.diverged
    with pytest.raises(StabilityError):
        _component_matrix(st, 2.5, np.array([0.1, 0.1]), StrategyKind.ATC)


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


def test_identity_matrix_all_strategies_equal_msd():
    st = eigenstructure(np.eye(3), np.diag([1.0, 2.0]))
    noise = np.array([0.2, 0.1, 0.3])
    reps = {kind: msd_eigenform(st, 0.2, noise, kind) for kind in ALL}
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
        atc = _component_matrix(st, mu, noise, StrategyKind.ATC)
        cta = _component_matrix(st, mu, noise, StrategyKind.CTA)
        ncop = _component_matrix(st, mu, noise, StrategyKind.NON_COOPERATIVE)
        tol = 1e-12 * np.abs(ncop).max()
        forward = (atc <= cta + tol) & (cta <= ncop + tol)
        reverse = (ncop <= cta + tol) & (cta <= atc + tol)
        assert np.all(forward | reverse)


def test_ratio_identities_hold():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_symmetric_stochastic(n, rng)
        cov = np.diag(rng.uniform(0.5, 3.0, size=2))
        mu = float(rng.uniform(0.05, 0.9) * 2.0 / np.linalg.eigvalsh(cov)[-1])
        noise = rng.uniform(0.02, 0.4, size=n)
        rep = ordering_checks(a, cov, mu, noise)
        assert rep.ratio_max_error < 1e-8
        assert rep.shift_identity_error < 1e-12


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
        reps = {kind: msd_eigenform(st, mu, noise, kind)
                for kind in (StrategyKind.ATC, StrategyKind.CTA,
                             StrategyKind.NON_COOPERATIVE)}
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
    rng = np.random.default_rng(9)
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
        assert cond.implication_holds


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
        atc = msd_eigenform(st, mu, noise, StrategyKind.ATC).per_node
        cta = msd_eigenform(st, mu, noise, StrategyKind.CTA).per_node
        ncop = msd_eigenform(st, mu, noise, StrategyKind.NON_COOPERATIVE).per_node
        assert np.all(atc < cta) and np.all(cta < ncop)
    assert all(isinstance(p, tuple) and len(p) == 2 for p in report.probes)


def test_strict_threshold_requires_primitive():
    with pytest.raises(UnsupportedInputError):
        strict_ordering_step_threshold(np.eye(2), np.array([[1.0]]), [0.1, 0.2])
