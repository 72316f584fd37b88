import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (CombinationMatrix, ConfigError, NodeProfile, StabilityError,
                      StrategyKind, TwoNodeConfig, build_error_recursion, canonical,
                      complete_topology, condition_grid,
                      consensus_instability_condition, consensus_min_eigenvalue,
                      diffusion_stabilization_range, eigenstructure,
                      individual_msd_conditions, is_primitive,
                      msd_eigenform, msd_region_classify, region_grid,
                      region_thresholds, spectral_radius)


def _cons_matrix(cfg):
    return np.array([[1 - cfg.a - cfg.mu_sigma1, cfg.a],
                     [cfg.b, 1 - cfg.b - cfg.mu_sigma2]])


def _atc_matrix(cfg):
    at = np.array([[1 - cfg.a, cfg.a], [cfg.b, 1 - cfg.b]])
    return at @ np.diag([1 - cfg.mu_sigma1, 1 - cfg.mu_sigma2])


def test_config_validation():
    with pytest.raises(ConfigError):
        TwoNodeConfig(a=1.2, b=0.5, mu_sigma1=0.4, mu_sigma2=0.6)
    with pytest.raises(ConfigError):
        TwoNodeConfig(a=0.5, b=0.5, mu_sigma1=-0.1, mu_sigma2=0.6)
    with pytest.raises(ConfigError):
        TwoNodeConfig(a=0.5, b=0.5, mu_sigma1=0.4, mu_sigma2=0.6, t=0.0)
    for field in ("mu_sigma1", "mu_sigma2", "t"):
        values = dict(a=0.5, b=0.5, mu_sigma1=0.4, mu_sigma2=0.6, t=1.0)
        values[field] = np.inf
        with pytest.raises(ConfigError, match="finite"):
            TwoNodeConfig(**values)


def test_conditions_reject_infinite_noise_ratio():
    with pytest.raises(ConfigError, match="finite"):
        individual_msd_conditions(0.5, 0.5, np.inf)


@pytest.mark.parametrize("points", [0, -3])
def test_grids_reject_nonpositive_point_counts(points):
    with pytest.raises(ConfigError, match="point count"):
        region_grid(0.4, points=points)
    with pytest.raises(ConfigError, match="point count"):
        condition_grid(2.0, points=points)


def test_canonical_swaps_labels():
    cfg = TwoNodeConfig(a=0.2, b=0.7, mu_sigma1=0.9, mu_sigma2=0.3, t=4.0)
    out, swapped = canonical(cfg)
    assert swapped
    assert out.mu_sigma1 == 0.3 and out.mu_sigma2 == 0.9
    assert out.a == 0.7 and out.b == 0.2
    assert out.t == pytest.approx(0.25)
    same, flag = canonical(out)
    assert not flag and same == out


def test_decoupled_min_eigenvalue():
    cfg = TwoNodeConfig(a=0.0, b=0.0, mu_sigma1=0.4, mu_sigma2=0.6)
    assert consensus_min_eigenvalue(cfg) == pytest.approx(0.4)


def test_hot_weights_min_eigenvalue_frozen():
    cfg = TwoNodeConfig(a=0.85, b=0.85, mu_sigma1=0.4, mu_sigma2=0.6)
    lam = consensus_min_eigenvalue(cfg)
    assert lam == pytest.approx(-1.2058621384311845, abs=1e-12)
    assert lam <= -1.0


def test_min_eigenvalue_against_dense_solver():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        cfg = TwoNodeConfig(a=float(rng.uniform(0, 1)), b=float(rng.uniform(0, 1)),
                            mu_sigma1=float(rng.uniform(0.01, 1.9)),
                            mu_sigma2=float(rng.uniform(0.01, 1.9)))
        direct = float(np.min(np.linalg.eigvals(_cons_matrix(cfg)).real))
        assert consensus_min_eigenvalue(cfg) == pytest.approx(direct, abs=1e-12)


def test_min_eigenvalue_with_a_huge_finite_product():
    # the squared discriminant term would overflow a float at p2 = 1e200
    cfg = TwoNodeConfig(a=0.5, b=0.5, mu_sigma1=0.1, mu_sigma2=1e200)
    assert consensus_min_eigenvalue(cfg) == pytest.approx(-1e200, rel=1e-12)


def test_instability_condition_examples():
    hot = TwoNodeConfig(a=0.85, b=0.85, mu_sigma1=0.4, mu_sigma2=0.6)
    assert consensus_instability_condition(hot)
    decoupled = TwoNodeConfig(a=0.0, b=0.0, mu_sigma1=0.4, mu_sigma2=0.6)
    assert not consensus_instability_condition(decoupled)


def test_instability_condition_boundary():
    # a + b exactly 2 - mu_sigma1: marginally unstable, rho >= 1
    cfg = TwoNodeConfig(a=0.8, b=0.8, mu_sigma1=0.4, mu_sigma2=0.6)
    assert consensus_instability_condition(cfg)
    assert spectral_radius(_cons_matrix(cfg)) >= 1.0 - 1e-12


def test_instability_condition_requires_stable_nodes():
    cfg = TwoNodeConfig(a=0.5, b=0.5, mu_sigma1=0.4, mu_sigma2=2.4)
    with pytest.raises(ConfigError):
        consensus_instability_condition(cfg)


def test_instability_condition_is_sufficient_on_draws():
    # one-directional guarantee: whenever the test fires, the eigensolver
    # must confirm rho >= 1 (the converse does not hold)
    rng = np.random.default_rng(2)
    fired = 0
    for _ in range(500):
        cfg = TwoNodeConfig(a=float(rng.uniform(0, 1)), b=float(rng.uniform(0, 1)),
                            mu_sigma1=float(rng.uniform(0.01, 1.9)),
                            mu_sigma2=float(rng.uniform(0.01, 1.9)))
        if consensus_instability_condition(cfg):
            fired += 1
            assert spectral_radius(_cons_matrix(cfg)) >= 1.0 - 1e-12
    assert fired > 20


def test_instability_condition_is_not_necessary():
    # unstable configuration the sufficient test does not catch
    cfg = TwoNodeConfig(a=0.43, b=0.67, mu_sigma1=0.81, mu_sigma2=1.21)
    assert not consensus_instability_condition(cfg)
    assert spectral_radius(_cons_matrix(cfg)) > 1.0


def test_diffusion_stabilization_interval():
    cfg = TwoNodeConfig(a=0.2, b=0.8, mu_sigma1=0.4, mu_sigma2=2.4)
    limit = diffusion_stabilization_range(cfg)
    assert limit == pytest.approx(0.8)
    assert spectral_radius(_atc_matrix(cfg)) < 1.0
    at_limit = TwoNodeConfig(a=0.8, b=0.2, mu_sigma1=0.4, mu_sigma2=2.4)
    assert spectral_radius(_atc_matrix(at_limit)) == pytest.approx(1.0)


def test_region_thresholds_at_point_four():
    t1, t2, stab = region_thresholds(0.4)
    assert t1 == pytest.approx(0.75)
    assert t2 == pytest.approx(1.2)
    assert stab == pytest.approx(1.6)


def test_region_thresholds_reject_large_step():
    with pytest.raises(ConfigError):
        region_thresholds(1.4)


def test_region_classification_examples():
    assert msd_region_classify(0.25, 0.25, 0.4) == "I"
    assert msd_region_classify(0.5, 0.5, 0.4) == "II"
    assert msd_region_classify(0.7, 0.7, 0.4) == "III"
    assert msd_region_classify(0.375, 0.375, 0.4) == "boundary"
    with pytest.raises(StabilityError):
        msd_region_classify(0.85, 0.85, 0.4)


def test_region_verdicts_match_eigenform():
    # independent eigen-route confirmation of the closed-form region labels
    sigma = 1.0
    mu = 0.4
    noise = np.array([0.08, 0.05])
    cov = np.array([[sigma]])
    for a_w, b_w, region in [(0.25, 0.25, "I"), (0.2, 0.3, "I"),
                             (0.5, 0.5, "II"), (0.3, 0.8, "II"),
                             (0.7, 0.7, "III"), (0.5, 0.85, "III")]:
        assert msd_region_classify(a_w, b_w, mu) == region
        at = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
        st = eigenstructure(at, cov)
        net = {kind: msd_eigenform(st, mu, noise, kind).network_orthonormal
               for kind in StrategyKind}
        cons = net[StrategyKind.CONSENSUS]
        if region == "I":
            assert cons <= net[StrategyKind.CTA] + 1e-12
        elif region == "II":
            assert net[StrategyKind.CTA] <= cons + 1e-12
            assert cons <= net[StrategyKind.NON_COOPERATIVE] + 1e-12
        else:
            assert cons >= net[StrategyKind.NON_COOPERATIVE] - 1e-12
        assert net[StrategyKind.ATC] <= min(net.values()) + 1e-12


def test_closed_forms_match_general_path_on_grid():
    # 50 x 50 sweep: consensus stability verdict and region label agree with
    # the dense spectral analysis and the eigen-route MSD ordering
    mu_sigma = 0.4
    sigma = 2.0
    cov = np.array([[sigma]])
    noise = np.array([0.06, 0.03])
    t1, t2, stab = region_thresholds(mu_sigma)
    band = 1e-6
    vals = np.linspace(0.0, 1.0, 50)
    for a_w in vals:
        for b_w in vals:
            cfg = TwoNodeConfig(a=float(a_w), b=float(b_w),
                                mu_sigma1=mu_sigma, mu_sigma2=mu_sigma)
            at = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
            rho = spectral_radius(_cons_matrix(cfg))
            s = a_w + b_w
            if abs(s - stab) <= band:
                continue
            assert (s >= stab) == (rho >= 1.0 - 1e-12)
            if s >= stab or min(abs(s - t1), abs(s - t2)) <= band:
                continue
            region = msd_region_classify(float(a_w), float(b_w), mu_sigma)
            st = eigenstructure(at, cov)
            net = {kind: msd_eigenform(st, mu_sigma / sigma, noise,
                                       kind).network_orthonormal
                   for kind in (StrategyKind.CONSENSUS, StrategyKind.CTA,
                                StrategyKind.NON_COOPERATIVE)}
            cons = net[StrategyKind.CONSENSUS]
            if region == "I":
                assert cons <= net[StrategyKind.CTA] + 1e-12
            elif region == "II":
                assert net[StrategyKind.CTA] <= cons + 1e-12
                assert cons <= net[StrategyKind.NON_COOPERATIVE] + 1e-12
            else:
                assert region == "III"
                assert cons >= net[StrategyKind.NON_COOPERATIVE] - 1e-12


def test_shrink_matrix_determinant_identity():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a_w = float(rng.uniform(0, 1))
        b_w = float(rng.uniform(0, 1))
        t = float(rng.uniform(0.2, 3.0))
        rep = individual_msd_conditions(a_w, b_w, t)
        assert rep.determinant == pytest.approx(-(a_w - t * b_w) ** 2, abs=1e-12)


def test_psd_iff_proportional_weights():
    rep = individual_msd_conditions(0.5, 0.5, 1.0)   # a = t b exactly
    assert rep.noise_shrink_psd
    assert rep.determinant == pytest.approx(0.0, abs=1e-15)
    # nonzero eigenvalue b (1 + t^2)(2 - b - b t)
    assert max(np.linalg.eigvalsh(rep.shrink_matrix)) == pytest.approx(1.0)
    rep2 = individual_msd_conditions(0.5, 0.5, 2.0)  # a != t b
    assert not rep2.noise_shrink_psd
    assert rep2.determinant == pytest.approx(-0.25)


def test_psd_eigenvalue_formula_when_proportional():
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = float(rng.uniform(0.3, 2.5))
        b_w = float(rng.uniform(0.0, min(1.0, 1.0 / t)))
        a_w = t * b_w
        if a_w > 1:
            continue
        rep = individual_msd_conditions(a_w, b_w, t)
        assert rep.noise_shrink_psd
        expected = b_w * (1 + t * t) * (2 - b_w - b_w * t)
        assert max(np.linalg.eigvalsh(rep.shrink_matrix)) == pytest.approx(
            expected, abs=1e-10)


def test_strict_condition_closed_form():
    rep = individual_msd_conditions(0.5, 0.5, 2.0)
    assert rep.strict_lhs[0] == pytest.approx(2.5)
    assert rep.strict_lhs[1] == pytest.approx(0.5)
    assert rep.strict_condition
    degenerate = individual_msd_conditions(0.0, 0.0, 1.5)
    assert degenerate.noise_shrink_psd          # shrink matrix is exactly zero
    assert not degenerate.strict_condition      # strict inequalities fail at 0
    assert not degenerate.primitive             # A = I


def test_psd_shrinkage_implies_strict_condition_on_grid():
    # PSD shrinkage + primitive A implies the strict condition
    vals = np.linspace(0.0, 1.0, 50)
    for t in (0.5, 1.0, 2.0):
        for a_w in vals:
            for b_w in vals:
                rep = individual_msd_conditions(float(a_w), float(b_w), t)
                if rep.noise_shrink_psd and rep.primitive:
                    assert rep.strict_condition, (a_w, b_w, t)


def test_general_model_matches_scalar_closed_forms():
    cfg = TwoNodeConfig(a=0.3, b=0.45, mu_sigma1=0.5, mu_sigma2=0.8, t=1.7)
    # regressor power 2 with step sizes halved keeps mu * sigma^2 fixed
    profiles = [NodeProfile(step_size=p / 2.0, covariance=np.array([[2.0]]),
                            noise_variance=v)
                for p, v in ((cfg.mu_sigma1, cfg.t), (cfg.mu_sigma2, 1.0))]
    matrix = CombinationMatrix(cfg.combination(), complete_topology(2))
    rec = build_error_recursion(StrategyKind.CONSENSUS, matrix, profiles)
    assert spectral_radius(rec.transition) == pytest.approx(
        max(abs(x) for x in np.linalg.eigvals(_cons_matrix(cfg))), abs=1e-12)
    assert np.min(np.linalg.eigvals(rec.transition).real) == pytest.approx(
        consensus_min_eigenvalue(cfg), abs=1e-12)


def test_region_grid_labels():
    rows = region_grid(0.4, points=21)
    assert len(rows) == 21 * 21
    labels = {label for _, _, label in rows}
    assert {"I", "II", "III", "unstable"} <= labels
    for a_w, b_w, label in rows:
        if label == "unstable":
            assert a_w + b_w >= 1.6 - 1e-9


def test_condition_grid_shape():
    rows = condition_grid(2.0, points=11)
    assert len(rows) == 11 * 11
    for a_w, b_w, psd, strict in rows:
        assert isinstance(psd, (bool, np.bool_))
        assert isinstance(strict, (bool, np.bool_))


def test_is_primitive_grid_consistency():
    # off-diagonal positivity in both directions makes the 2-node matrix primitive
    for a_w, b_w, expected in [(0.3, 0.4, True), (0.0, 0.4, False),
                               (1.0, 1.0, False)]:
        at = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
        assert is_primitive(at.T) == expected
