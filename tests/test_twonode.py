import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import adaptnet.twonode as twonode
from adaptnet import (CombinationMatrix, ConfigError, NodeProfile, StabilityError,
                      StrategyKind, TwoNodeConfig, build_error_recursion, canonical,
                      complete_topology, condition_grid,
                      consensus_instability_condition, consensus_min_eigenvalue,
                      diffusion_stabilization_range, eigenstructure,
                      individual_msd_conditions, is_primitive,
                      msd_eigenform, msd_region_classify, region_grid,
                      region_thresholds)
from adaptnet.spectra import spectral_radii
from adaptnet.twonode import REGION_BOUNDARY_TOL

from conftest import dense_radius


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


@pytest.mark.parametrize("points", [0, -3, True, 2.5])
def test_grids_reject_nonpositive_point_counts(points, monkeypatch):
    # a bad point count is reported before a bad mu*sigma^2 or noise ratio,
    # and every refusal comes before the grid's arrays are built; True was
    # a 1-point grid and 2.5 a raw TypeError from linspace
    def unbuilt(points):
        raise AssertionError("grid arrays built before validation")

    monkeypatch.setattr(twonode, "_unit_square", unbuilt)
    for mu_sigma in (0.4, 1.5):
        with pytest.raises(ConfigError, match="point count"):
            region_grid(mu_sigma, points=points)
    for t in (2.0, np.inf):
        with pytest.raises(ConfigError, match="point count"):
            condition_grid(t, points=points)
    with pytest.raises(ConfigError, match="mu\\*sigma"):
        region_grid(1.5, points=3)
    with pytest.raises(ConfigError, match="noise ratio"):
        condition_grid(np.inf, points=3)


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
    assert dense_radius(_cons_matrix(cfg)) >= 1.0 - 1e-12


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
            assert dense_radius(_cons_matrix(cfg)) >= 1.0 - 1e-12
    assert fired > 20


def test_instability_condition_is_not_necessary():
    # unstable configuration the sufficient test does not catch
    cfg = TwoNodeConfig(a=0.43, b=0.67, mu_sigma1=0.81, mu_sigma2=1.21)
    assert not consensus_instability_condition(cfg)
    assert dense_radius(_cons_matrix(cfg)) > 1.0


def test_diffusion_stabilization_interval():
    cfg = TwoNodeConfig(a=0.2, b=0.8, mu_sigma1=0.4, mu_sigma2=2.4)
    limit = diffusion_stabilization_range(cfg)
    assert limit == pytest.approx(0.8)
    assert dense_radius(_atc_matrix(cfg)) < 1.0
    at_limit = TwoNodeConfig(a=0.8, b=0.2, mu_sigma1=0.4, mu_sigma2=2.4)
    assert dense_radius(_atc_matrix(at_limit)) == pytest.approx(1.0)


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


@pytest.mark.parametrize("a, b", [(np.nan, 0.2), (-0.5, 0.2), (1.3, 0.0), (0.2, 1.01)])
def test_region_classify_rejects_weights_outside_unit_interval(a, b):
    with pytest.raises(ConfigError, match=r"a, b must lie in \[0, 1\]"):
        msd_region_classify(a, b, 0.5)


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
        net = {kind: rep.network_orthonormal
               for kind, rep in msd_eigenform(st, mu, noise, tuple(StrategyKind)).items()}
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
            rho = dense_radius(_cons_matrix(cfg))
            s = a_w + b_w
            if abs(s - stab) <= band:
                continue
            assert (s >= stab) == (rho >= 1.0 - 1e-12)
            if s >= stab or min(abs(s - t1), abs(s - t2)) <= band:
                continue
            region = msd_region_classify(float(a_w), float(b_w), mu_sigma)
            st = eigenstructure(at, cov)
            net = {kind: rep.network_orthonormal
                   for kind, rep in msd_eigenform(st, mu_sigma / sigma, noise,
                                                  (StrategyKind.CONSENSUS, StrategyKind.CTA,
                                                   StrategyKind.NON_COOPERATIVE)).items()}
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


@pytest.mark.parametrize("eps, psd", [(1e-6, True), (1e-4, False)])
def test_psd_tolerance_separates_rounding_from_a_negative_eigenvalue(eps, psd):
    # t = 1, a = b + eps leaves the proportional line by eps: the least
    # eigenvalue is -1.19e-12 at 1e-6, inside PSD_TOL = 1e-10, and -1.19e-8
    # at 1e-4, outside it
    rep = individual_msd_conditions(0.3 + eps, 0.3, 1.0)
    assert rep.min_eigenvalue == pytest.approx(-1.19 * eps ** 2, rel=0.01)
    assert rep.noise_shrink_psd == psd


def test_psd_exactly_on_the_proportional_line():
    # the closed form: the shrink matrix is PSD exactly when a = t b with
    # b <= min(1, 1/t), and its determinant -(a - t b)^2 keeps it indefinite
    # off that line
    rng = np.random.default_rng(11)
    for t in np.concatenate([[0.25, 0.5, 1.0, 2.0, 4.0], rng.uniform(0.1, 10.0, 20)]):
        t = float(t)
        for b_w in np.linspace(0.0, min(1.0, 1.0 / t), 21):
            a_w = min(t * float(b_w), 1.0)
            assert individual_msd_conditions(a_w, float(b_w), t).noise_shrink_psd, (a_w, b_w, t)
        a_off, b_off = rng.uniform(0.0, 1.0, size=(2, 200))
        for a_w, b_w in zip(a_off, b_off):
            if abs(a_w - t * b_w) >= 0.05:
                assert not individual_msd_conditions(float(a_w), float(b_w), t).noise_shrink_psd, \
                    (a_w, b_w, t)


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
    assert spectral_radii(rec)[0] == pytest.approx(
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


GRID = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@GRID
@given(t=st.one_of(st.floats(0.05, 20.0),
                   # a grid-index ratio puts grid points on the a = t b line
                   st.builds(lambda i, j: i / j, st.integers(1, 14), st.integers(1, 14))),
       points=st.integers(1, 15))
@example(t=1.0, points=21)
@example(t=2.0, points=21)
@example(t=0.5, points=21)
def test_condition_grid_rows_match_point_reports(t, points):
    rows = condition_grid(t, points=points)
    vals = np.linspace(0.0, 1.0, points)
    assert [(a_w, b_w) for a_w, b_w, _, _ in rows] == [(float(x), float(y))
                                                       for x in vals for y in vals]
    for row in rows:
        rep = individual_msd_conditions(row[0], row[1], t)
        assert row == (row[0], row[1], rep.noise_shrink_psd, rep.strict_condition)


@GRID
@given(points=st.integers(2, 15), k=st.integers(0, 28), which=st.integers(0, 2),
       offset=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
@example(points=21, k=15, which=0, offset=0.0)
def test_region_grid_labels_match_point_classification(points, k, which, offset):
    # place threshold `which` at a grid sum k / (points - 1), shifted by a
    # multiple of the boundary tolerance, so grid points fall on, just
    # inside and just outside its boundary band
    s = k / (points - 1) + offset * REGION_BOUNDARY_TOL
    assume(s < 2.0)
    mu_sigma = ((2.0 - 2.0 * s) / (2.0 - s), 1.0 - s / 2.0, 2.0 - s)[which]
    assume(0.0 < mu_sigma < 1.0)
    for a_w, b_w, label in region_grid(mu_sigma, points=points):
        try:
            expected = msd_region_classify(a_w, b_w, mu_sigma)
        except StabilityError:
            expected = "unstable"
        assert label == expected, (a_w, b_w)
