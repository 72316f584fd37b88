"""Property tests: hypothesis draws the inputs, derandomized so runs repeat."""

from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import adaptnet.harness as harness
from adaptnet import (CombinationMatrix, ConfigError, ExperimentConfig,
                      GroundTruth, NodeProfile, StrategyKind, build_error_recursion,
                      build_experiment, complete_topology, msd_series,
                      parse_pairs, spectral_radius)

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


# Consensus diverges in every trial (mixing too strong for these steps);
# with noise power 0.5 the heavy tails of the LMS error make a low divergence
# factor catch some trials of the other three strategies and not others.
CHUNKED = ExperimentConfig(
    profiles=[NodeProfile(step_size=mu, covariance=np.array([[1.0]]), noise_variance=0.5)
              for mu in (0.4, 0.6)],
    truth=GroundTruth(np.ones(1)),
    combination=CombinationMatrix(np.array([[0.15, 0.85], [0.85, 0.15]]),
                                  complete_topology(2)))


def _run_chunked(cfg, chunk):
    saved = harness.CHUNK
    harness.CHUNK = chunk
    try:
        return harness.run_experiment(cfg)
    finally:
        harness.CHUNK = saved


@PROPERTY
@given(chunk=st.integers(1, 8), trials=st.integers(1, 7),
       iterations=st.integers(1, 300), factor=st.floats(3.0, 30.0),
       seed=st.integers(0, 2**32))
@example(chunk=3, trials=7, iterations=200, factor=4.0, seed=1)
def test_outputs_bit_identical_for_any_chunk_size(chunk, trials, iterations,
                                                  factor, seed):
    cfg = replace(CHUNKED, trials=trials, iterations=iterations, seed=seed,
                  divergence_factor=factor)
    whole = _run_chunked(cfg, trials)
    parts = _run_chunked(cfg, chunk)
    for kind, ref in whole.items():
        got = parts[kind]
        np.testing.assert_array_equal(got.msd, ref.msd)
        np.testing.assert_array_equal(got.per_node_steady, ref.per_node_steady)
        assert np.array_equal([got.standard_error, got.network_steady],
                              [ref.standard_error, ref.network_steady])
        assert (got.diverged_trials, got.divergence_onset) == \
            (ref.diverged_trials, ref.divergence_onset)
        # +inf from the earliest onset on, finite before it
        onset = ref.divergence_onset
        if onset is not None:
            assert np.all(np.isinf(ref.msd[onset:]))
        assert np.all(np.isfinite(ref.msd[:onset]))
    if (trials, iterations, factor, seed) == (7, 200, 4.0, 1):
        assert 0 < whole[StrategyKind.ATC].diverged_trials < trials
        assert whole[StrategyKind.CONSENSUS].diverged_trials == trials


# free text: no line breaks, which would start a new pair
TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
               max_size=12)
NUMBERS = st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                             st.integers(-5, 5)), min_size=1, max_size=6) \
    .map(lambda xs: ", ".join(repr(x) for x in xs))
ANY = st.one_of(TEXT, NUMBERS)
# sizes stay small so no example builds a large network; the non-digit text
# keeps int() from reading one either
SIZE = st.one_of(st.integers(-2, 6).map(str),
                 st.text("abc.-e ", min_size=1, max_size=4))
VALUES = {"nodes": SIZE, "dim": SIZE, "iterations": SIZE, "trials": SIZE,
          "mu": ANY, "ru_diag": ANY, "ru_matrix": ANY, "noise_db": ANY,
          "w0": ANY, "seed": st.one_of(st.integers(-3, 2**70).map(str), TEXT),
          "steady_window": ANY, "workers": ANY, "strategies": TEXT,
          "topology": st.one_of(st.sampled_from(["full", "line", "random", ".", "/"]),
                                TEXT),
          "edge_prob": ANY, "rule": TEXT, "a_csv": TEXT,
          "profile": st.one_of(st.just("benchmark"), TEXT)}


# a valid explicit model and a valid benchmark profile, to override from
BASES = ({"nodes": "2", "dim": "2", "mu": "0.1", "noise_db": "-20", "ru_diag": "1, 2"},
         {"profile": "benchmark", "nodes": "3", "dim": "2"})


@st.composite
def config_pairs(draw):
    pairs = dict(draw(st.sampled_from(BASES)))
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=3, unique=True)):
        pairs[key] = draw(VALUES[key])
    return pairs


@settings(PROPERTY, max_examples=200)
@given(config_pairs())
@example({**BASES[0], "noise_db": "5000"})
@example({**BASES[0], "topology": "."})
@example({**BASES[0], "a_csv": "missing.csv"})
@example({**BASES[0], "topology": "random", "edge_prob": "0"})
@example({**BASES[1], "seed": "-1"})
@example({**BASES[1], "dim": "0"})
def test_config_parser_raises_only_config_error(pairs):
    text = "".join(f"{key} = {value}\n" for key, value in pairs.items())
    try:
        build_experiment(parse_pairs(text))
    except ConfigError:
        pass
