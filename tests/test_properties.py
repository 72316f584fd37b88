"""Property tests: hypothesis draws the inputs, derandomized so runs repeat."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaptnet import (NodeProfile, StrategyKind, build_error_recursion,
                      msd_series, spectral_radius)

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# 1 - mu sigma_u^2 carries a rounding error of about eps / (mu sigma_u^2)
# relative to the distance from either end, so the range stops 1e-6 short.
EDGE = 1e-6


@PROPERTY
@given(x=st.floats(EDGE, 2.0 - EDGE), sigma_u2=st.floats(0.1, 10.0),
       noise=st.floats(1e-4, 1.0))
@example(x=EDGE, sigma_u2=1.0, noise=0.1)
@example(x=2.0 - EDGE, sigma_u2=1.0, noise=0.1)
def test_scalar_series_matches_lms_closed_form(x, sigma_u2, noise):
    mu = x / sigma_u2
    profile = NodeProfile(covariance=np.array([[sigma_u2]]), step_size=mu,
                          noise_variance=noise)
    rep = msd_series(build_error_recursion(StrategyKind.NON_COOPERATIVE,
                                           np.eye(1), [profile]))
    # mu^2 s_u s_v / (1 - (1 - mu s_u)^2), with the difference of squares
    # cancelled so the reference itself stays exact near x = 0
    expected = mu * noise / (2.0 - mu * sigma_u2)
    assert abs(rep.per_node[0] - expected) <= 1e-10 * expected
    assert rep.terms & (rep.terms - 1) == 0


@st.composite
def heterogeneous_networks(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 3))
    weights = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
    assume(np.all(weights.sum(axis=0) > 1e-3))
    a = weights / weights.sum(axis=0, keepdims=True)
    diag = draw(arrays(np.float64, (n, m), elements=st.floats(0.1, 5.0)))
    mu = draw(arrays(np.float64, n, elements=st.floats(0.01, 1.0)))
    profiles = [NodeProfile(covariance=np.diag(diag[k]), step_size=float(mu[k]),
                            noise_variance=0.1) for k in range(n)]
    return a, profiles


@PROPERTY
@given(heterogeneous_networks())
def test_diffusion_radius_shared_and_never_above_noncooperative(network):
    a, profiles = network
    radii = {kind: spectral_radius(build_error_recursion(kind, a, profiles).transition)
             for kind in (StrategyKind.ATC, StrategyKind.CTA,
                          StrategyKind.NON_COOPERATIVE)}
    # a defective eigenvalue is computed only to about sqrt(eps)
    assert abs(radii[StrategyKind.ATC] - radii[StrategyKind.CTA]) <= 1e-7
    assert radii[StrategyKind.ATC] <= radii[StrategyKind.NON_COOPERATIVE] + 1e-7
