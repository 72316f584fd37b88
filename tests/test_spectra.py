import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, NodeProfile, StabilityVerdict, StrategyKind,
                      analyze_network, build_combination_matrix, build_error_recursion,
                      complete_topology, msd_series)
from adaptnet.spectra import RecursionStack, spectral_radii

from conftest import (full_map, random_left_stochastic, random_symmetric_stochastic,
                      stable_profiles)

ALL = tuple(StrategyKind)


def _scalar_profiles(mu_sigma, sigma=1.0):
    return [NodeProfile(covariance=np.array([[sigma]]), step_size=p / sigma,
                        noise_variance=0.1) for p in mu_sigma]


def _homogeneous_profiles(cov, n):
    return [NodeProfile(covariance=cov, step_size=0.01, noise_variance=0.1)
            for _ in range(n)]


def test_identity_matrix_collapses_all_strategies():
    rng = np.random.default_rng(0)
    profiles = stable_profiles(3, 2, rng)
    eye = np.eye(3)
    base = build_error_recursion(StrategyKind.NON_COOPERATIVE, eye, profiles)
    for kind in ALL:
        rec = build_error_recursion(kind, eye, profiles)
        npt.assert_allclose(rec.transition, base.transition, atol=1e-14)
        npt.assert_allclose(rec.noise_gram, base.noise_gram, atol=1e-14)


def test_noncoop_transition_is_shrink_and_gram_is_msm():
    rng = np.random.default_rng(1)
    profiles = stable_profiles(2, 2, rng)
    eye = np.eye(2)
    rec = build_error_recursion(StrategyKind.NON_COOPERATIVE, eye, profiles)
    blocks = [np.eye(2) - p.step_size * p.covariance for p in profiles]
    expected_b = np.block([[blocks[0], np.zeros((2, 2))],
                           [np.zeros((2, 2)), blocks[1]]])
    npt.assert_allclose(full_map(rec.transition[0], rec.basis), expected_b, atol=1e-14)
    grams = [p.step_size ** 2 * p.noise_variance * p.covariance for p in profiles]
    expected_y = np.block([[grams[0], np.zeros((2, 2))],
                           [np.zeros((2, 2)), grams[1]]])
    npt.assert_allclose(full_map(rec.noise_gram[0], rec.basis), expected_y, atol=1e-14)


def test_atc_two_node_scalar_entrywise():
    # a = b = 0.85 with mu*sigma^2 = (0.4, 0.6)
    profiles = _scalar_profiles([0.4, 0.6])
    a = np.array([[0.15, 0.85], [0.85, 0.15]])
    rec = build_error_recursion(StrategyKind.ATC, a, profiles)
    npt.assert_allclose(rec.transition[0, 0], [[0.09, 0.34], [0.51, 0.06]], atol=1e-14)


def test_consensus_two_node_scalar_entrywise():
    profiles = _scalar_profiles([0.4, 0.6])
    a_w, b_w = 0.85, 0.85
    a = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
    rec = build_error_recursion(StrategyKind.CONSENSUS, a, profiles)
    npt.assert_allclose(rec.transition[0, 0], [[-0.25, 0.85], [0.85, -0.45]], atol=1e-14)


def test_noise_grams_entrywise():
    # mu^2 sigma_v^2 R per node: 0.4^2 * 0.1 and 0.6^2 * 0.1
    profiles = _scalar_profiles([0.4, 0.6])
    a = np.array([[0.15, 0.3], [0.85, 0.7]])   # not symmetric: A^T D A != A D A^T
    msm = [[0.016, 0.0], [0.0, 0.036]]
    for kind in (StrategyKind.CTA, StrategyKind.CONSENSUS):
        npt.assert_allclose(build_error_recursion(kind, a, profiles).noise_gram[0, 0],
                            msm, rtol=0.0, atol=1e-15)
    # calA^T M S M calA, entry (i, j) = sum_k a_ki msm_kk a_kj
    atc = build_error_recursion(StrategyKind.ATC, a, profiles).noise_gram[0, 0]
    npt.assert_allclose(atc, [[0.02637, 0.02214], [0.02214, 0.01908]],
                        rtol=0.0, atol=1e-15)


def test_unknown_strategy_is_config_error():
    with pytest.raises(ConfigError, match="unknown strategy"):
        build_error_recursion("atc", np.eye(2), _scalar_profiles([0.4, 0.6]))


def test_cta_is_shrink_then_combine():
    rng = np.random.default_rng(2)
    profiles = stable_profiles(3, 2, rng)
    a = random_left_stochastic(3, rng)
    atc = build_error_recursion(StrategyKind.ATC, a, profiles)
    cta = build_error_recursion(StrategyKind.CTA, a, profiles)
    cal_a = np.kron(a, np.eye(2))
    shrink = np.linalg.solve(cal_a.T, full_map(atc.transition[0], atc.basis))   # I - MR
    npt.assert_allclose(full_map(cta.transition[0], cta.basis), shrink @ cal_a.T, atol=1e-12)


def _one_block_stack(b, symmetric=None):
    return RecursionStack((StrategyKind.NON_COOPERATIVE,), b[None, None],
                          np.zeros((1, 1) + b.shape), len(b), 1, symmetric=symmetric)


def test_spectral_radius_basics():
    assert spectral_radii(_one_block_stack(np.eye(3)))[0] == pytest.approx(1.0)
    assert spectral_radii(_one_block_stack(np.diag([0.3, -0.9])))[0] == pytest.approx(0.9)
    # where the stack carries a symmetric form, the radius is read from it
    form = np.diag([0.3, -0.9, 0.1])[None, None]
    assert spectral_radii(_one_block_stack(np.eye(3), form))[0] == pytest.approx(0.9)


def test_hot_weights_consensus_unstable_diffusion_stable():
    profiles = _scalar_profiles([0.4, 0.6])
    a = np.array([[0.15, 0.85], [0.85, 0.15]])
    cons = build_error_recursion(StrategyKind.CONSENSUS, a, profiles)
    assert spectral_radii(cons)[0] >= 1.0
    atc = build_error_recursion(StrategyKind.ATC, a, profiles)
    assert spectral_radii(atc)[0] < 1.0
    verdict = analyze_network(a, profiles).verdicts[StrategyKind.CONSENSUS]
    assert not verdict.stable
    assert verdict.margin < 0


def test_noncoop_bounds():
    p_eye = [NodeProfile(covariance=np.eye(2), step_size=0.1, noise_variance=0.1)]
    npt.assert_allclose(analyze_network(np.eye(1), p_eye).noncoop_bounds, [2.0])
    p_diag = [NodeProfile(covariance=np.diag([2.0, 4.0]), step_size=0.1,
                          noise_variance=0.1)]
    npt.assert_allclose(analyze_network(np.eye(1), p_diag).noncoop_bounds, [0.5])


def test_exact_bound_is_marginally_unstable():
    cov = np.diag([2.0, 4.0])
    profiles = [NodeProfile(covariance=cov, step_size=0.5, noise_variance=0.1)]
    verdict = analyze_network(np.eye(1), profiles).verdicts[StrategyKind.NON_COOPERATIVE]
    assert verdict.spectral_radius == pytest.approx(1.0, abs=1e-12)
    assert not verdict.stable


def test_consensus_bound_identity_matches_noncoop():
    rng = np.random.default_rng(3)
    profiles = stable_profiles(3, 2, rng)
    report = analyze_network(np.eye(3), profiles)
    npt.assert_allclose(report.consensus_bounds, report.noncoop_bounds, atol=1e-12)


def test_consensus_bound_two_node():
    sigma = 1.7
    profiles = [NodeProfile(covariance=np.array([[sigma]]), step_size=0.01,
                            noise_variance=0.1) for _ in range(2)]
    a = np.array([[0.15, 0.85], [0.85, 0.15]])   # lam_min = 1 - a - b = -0.7
    bound = analyze_network(a, profiles).consensus_bounds
    npt.assert_allclose(bound, [0.3 / sigma, 0.3 / sigma], atol=1e-12)


def test_consensus_bound_degenerate_empty_interval():
    profiles = _scalar_profiles([0.1, 0.1])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])    # lam_min = -1
    bound = analyze_network(swap, profiles).consensus_bounds
    npt.assert_allclose(bound, [0.0, 0.0], atol=1e-15)


def test_consensus_bound_rejects_asymmetric():
    profiles = _scalar_profiles([0.1, 0.1])
    # the second is off by 4e-6, inside allclose's default relative tolerance;
    # the third by 1e-13: the bound is proven for an exactly symmetric A only
    for a in ([[0.8, 0.4], [0.2, 0.6]], [[0.5, 0.500004], [0.5, 0.499996]],
              [[0.5, 0.5 + 1e-13], [0.5, 0.5 - 1e-13]]):
        assert analyze_network(np.array(a), profiles).consensus_bounds is None


def test_equality_bound_cases():
    # symmetric two-node with lam_2 = 0.5 and R_u = diag(1, 3)
    a = np.array([[0.75, 0.25], [0.25, 0.75]])
    profiles = _homogeneous_profiles(np.diag([1.0, 3.0]), 2)
    assert analyze_network(a, profiles).equality_bound == pytest.approx(0.125)
    assert analyze_network(np.eye(2), profiles).equality_bound == np.inf
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])   # |lam_2| = 1
    assert (analyze_network(swap, _homogeneous_profiles(np.eye(2), 2)).equality_bound
            == pytest.approx(0.0))


def test_diffusion_radii_equal_and_dominated():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        profiles = stable_profiles(n, m, rng)
        a = random_left_stochastic(n, rng)
        radii = {}
        for kind in ALL:
            rec = build_error_recursion(kind, a, profiles)
            radii[kind] = spectral_radii(rec)[0]
        assert abs(radii[StrategyKind.ATC] - radii[StrategyKind.CTA]) <= 1e-9
        assert radii[StrategyKind.ATC] <= radii[StrategyKind.NON_COOPERATIVE] + 1e-9


def test_atc_cta_same_eigenvalue_multiset():
    rng = np.random.default_rng(6)
    profiles = stable_profiles(4, 2, rng)
    a = random_left_stochastic(4, rng)
    atc = build_error_recursion(StrategyKind.ATC, a, profiles)
    cta = build_error_recursion(StrategyKind.CTA, a, profiles)
    ev_atc = np.sort_complex(np.linalg.eigvals(atc.transition))
    ev_cta = np.sort_complex(np.linalg.eigvals(cta.transition))
    npt.assert_allclose(ev_atc, ev_cta, atol=1e-9)


def test_symmetric_sorted_eigenvalue_dominance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        profiles = stable_profiles(n, m, rng)
        a = random_symmetric_stochastic(n, rng)
        cons = build_error_recursion(StrategyKind.CONSENSUS, a, profiles)
        ncop = build_error_recursion(StrategyKind.NON_COOPERATIVE, a, profiles)
        cons_map = full_map(cons.transition[0], cons.basis)
        ev_c = np.sort(np.linalg.eigvalsh(0.5 * (cons_map + cons_map.T)))[::-1]
        ev_n = np.sort(np.linalg.eigvals(full_map(ncop.transition[0], ncop.basis)).real)[::-1]
        assert np.all(ev_c <= ev_n + 1e-9)


def test_homogeneous_diffusion_equals_noncoop_below_bound():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        a = random_symmetric_stochastic(n, rng)
        cov = np.diag(rng.uniform(0.5, 3.0, size=m))
        eigs = np.linalg.eigvalsh(cov)
        bound = analyze_network(a, _homogeneous_profiles(cov, n)).equality_bound
        mu = min(0.9 * bound, 0.9 * 2.0 / eigs[-1])
        if mu <= 0:
            continue
        profiles = [NodeProfile(covariance=cov, step_size=mu, noise_variance=0.1)
                    for _ in range(n)]
        radii = {kind: spectral_radii(build_error_recursion(kind, a, profiles))[0]
                 for kind in ALL}
        assert radii[StrategyKind.ATC] == pytest.approx(
            radii[StrategyKind.NON_COOPERATIVE], abs=1e-9)
        assert radii[StrategyKind.CONSENSUS] == pytest.approx(
            radii[StrategyKind.ATC], abs=1e-9)
        assert radii[StrategyKind.NON_COOPERATIVE] <= radii[StrategyKind.CONSENSUS] + 1e-9


def test_analyze_network_report():
    rng = np.random.default_rng(10)
    profiles = stable_profiles(3, 2, rng, homogeneous=True)
    a = random_symmetric_stochastic(3, rng)
    report = analyze_network(a, profiles)
    assert set(report.verdicts) == set(ALL)
    rows = report.rows()
    assert len(rows) == 4
    assert report.consensus_bounds is not None
    assert report.equality_bound is not None
    for _, rho, label, margin in rows:
        assert label == ("stable" if rho < 1.0 else "UNSTABLE")
        assert margin == pytest.approx(1.0 - rho)
    # the bound is a threshold on one common mu: none for per-node step sizes
    mixed = analyze_network(np.full((3, 3), 1.0 / 3.0), _scalar_profiles([0.1, 0.5, 0.9]))
    assert mixed.equality_bound is None


@pytest.mark.parametrize("matrix, fragment", [
    (2.0 * np.eye(2), "column 0 sums to 2.0, expected 1"),
    (np.full((2, 2), np.nan), "non-finite weight"),
    (np.array([[1.5, 0.0], [-0.5, 1.0]]), "negative weight"),
    (np.ones(2), "square matrix"),
])
def test_analyze_network_validates_a_raw_matrix(matrix, fragment):
    with pytest.raises(ConfigError, match=fragment):
        analyze_network(matrix, _scalar_profiles([0.9, 0.9]))


@pytest.mark.parametrize("profiles, fragment", [
    (_scalar_profiles([0.1, 0.1, 0.1]), r"\(2, 2\) does not match 3 profiles"),
    ([NodeProfile(covariance=np.eye(m), step_size=0.1, noise_variance=0.1) for m in (1, 2)],
     "share the regressor dimension"),
], ids=["node count", "mixed dimensions"])
def test_error_recursions_refuse_mismatched_profiles(profiles, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_error_recursion(StrategyKind.ATC, np.full((2, 2), 0.5), profiles)


@pytest.mark.parametrize("cov", [np.array([[np.nan]]), np.array([[2.0, 1.0], [0.0, 1.0]]),
                                 -np.eye(2)])
def test_equality_bound_validates_the_covariance(cov):
    # a covariance enters the bounds through its NodeProfile, which checks it
    with pytest.raises(ConfigError, match="covariance"):
        NodeProfile(covariance=cov, step_size=0.01, noise_variance=0.1)


def test_equality_bound_on_the_complete_metropolis_matrix():
    # metropolis on the complete topology is (1 1^T - I) / (N - 1), with
    # eigenvalues 1 and -1 / (N - 1): a symmetric A, so its spectrum is read
    # as real by eigvalsh
    n = 20
    a = build_combination_matrix(complete_topology(n), "metropolis")
    cov = np.diag([0.5, 1.0, 2.0])
    bound = analyze_network(a, _homogeneous_profiles(cov, n)).equality_bound
    assert type(bound) is float
    assert bound == pytest.approx((1.0 - 1.0 / (n - 1)) / (0.5 + 2.0), rel=1e-14)


def test_analyze_network_radii_are_each_strategy_alone():
    # one eigensolve over the stacked blocks of all four strategies gives
    # each the verdict of its own recursion: M blocks, one dense block, the
    # symmetric form of a symmetric A, and the hot pair where consensus is
    # unstable
    rng = np.random.default_rng(11)
    cases = [(np.array([[0.15, 0.85], [0.85, 0.15]]), _scalar_profiles([0.4, 0.6]))]
    for diagonal in (True, False):
        for draw in range(10):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            a = (random_symmetric_stochastic(n, rng) if draw % 2
                 else random_left_stochastic(n, rng))
            cases.append((a, stable_profiles(n, m, rng, diagonal=diagonal)))
    for a, profiles in cases:
        report = analyze_network(a, profiles)
        for kind in ALL:
            rho = float(spectral_radii(build_error_recursion(kind, a, profiles))[0])
            assert report.verdicts[kind] == StabilityVerdict(rho, rho < 1.0, 1.0 - rho)
        # the per-node bounds are 2 / lambda_max of each node's own covariance
        lam_max = [np.linalg.eigvalsh(p.covariance)[-1] for p in profiles]
        assert np.array_equal(report.noncoop_bounds, [2.0 / lam for lam in lam_max])
    assert not analyze_network(*cases[0]).verdicts[StrategyKind.CONSENSUS].stable
    forms = [build_error_recursion(StrategyKind.ATC, a, p).symmetric is not None
             for a, p in cases]
    assert any(forms) and not all(forms)


def test_analyze_network_takes_each_spectrum_once(monkeypatch):
    # the profiles check their covariances with eigvalsh when built, so they
    # are built before the solvers are counted
    ru = np.array([[2.0, 0.5], [0.5, 1.0]])
    symmetric = (build_combination_matrix(complete_topology(4), "metropolis"),
                 [NodeProfile(covariance=ru, step_size=0.05, noise_variance=0.01)
                  for _ in range(4)])
    asymmetric = (np.array([[0.6, 0.2, 0.1], [0.3, 0.5, 0.2], [0.1, 0.3, 0.7]]),
                  [NodeProfile(covariance=np.diag([1.0, 2.0]), step_size=mu,
                               noise_variance=0.01) for mu in (0.04, 0.05, 0.06)])
    calls = []
    for name in ("eigvalsh", "eigvals", "eigh", "eig"):
        def counted(x, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.ndim(x)))
            return _solve(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    analyze_network(*symmetric)
    # one eigh for the shared basis; one eigvalsh each on A, the covariances
    # and the symmetric forms behind the radii
    assert sorted(calls) == [("eigh", 2), ("eigvalsh", 2), ("eigvalsh", 3), ("eigvalsh", 4)]
    calls.clear()
    report = analyze_network(*asymmetric)
    assert report.consensus_bounds is None and report.equality_bound is None
    assert ("eigvals", 2) not in calls and ("eigvalsh", 2) not in calls
    assert calls.count(("eigvalsh", 3)) == 1


def test_near_repeated_sum_eigenvalue_takes_the_exact_dense_form():
    # the covariances commute (one rotation Q by 0.3 rad), but their sum
    # Q diag(4.5, 4.5 + 1e-5) Q^T has a near-repeated eigenvalue, so eigh of
    # it returns a basis that leaves each Q^T R_k Q off-diagonal by more than
    # BASIS_TOL; the dense NM form then gives the diagonal copy's per-node MSD
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.array([[c, -s], [s, c]])
    d = ((1.0, 2.0), (2.0, 1.0 + 1e-5), (1.5, 1.5))
    a = build_combination_matrix(complete_topology(3), "uniform")

    def profiles(q):
        return [NodeProfile(covariance=q @ np.diag(dk) @ q.T, step_size=0.1,
                            noise_variance=v) for dk, v in zip(d, (0.1, 0.2, 0.3))]

    for kind in (StrategyKind.ATC, StrategyKind.CONSENSUS):
        dense = build_error_recursion(kind, a, profiles(rotation))
        split = build_error_recursion(kind, a, profiles(np.eye(2)))
        assert dense.blocks == 1 and dense.basis is None
        assert split.blocks == 2
        want = msd_series(split).per_node
        npt.assert_allclose(msd_series(dense).per_node, want, rtol=1e-12, atol=0.0)
