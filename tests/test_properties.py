"""Property tests: hypothesis draws the inputs, derandomized so runs repeat."""

from dataclasses import replace

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import adaptnet.harness as harness
from adaptnet import (CombinationMatrix, ConfigError, ExperimentConfig,
                      GroundTruth, NodeProfile, RecursionStack, StrategyKind,
                      build_error_recursion, build_experiment, complete_topology,
                      msd_series, parse_pairs, spectral_radius)
from adaptnet.spectra import build_error_recursions
from adaptnet.strategies import combination_stack, recursion_step

from conftest import (full_map, random_left_stochastic, random_spd,
                      random_symmetric_stochastic, reference_blocks, reference_recursion)

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
def heterogeneous_networks(draw, max_dim=3):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, max_dim))
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


@PROPERTY
@given(heterogeneous_networks(max_dim=1), st.floats(-2.0, 2.0),
       arrays(np.float64, 5, elements=st.floats(-2.0, 2.0)))
def test_one_recursion_step_maps_the_error_through_b(network, w0, start):
    # M = 1, noiseless data and u_k = sqrt(R_k): one step of the simulator
    # takes the error w0 - W to B (w0 - W), with B from the theory's code
    a, profiles = network
    n = len(profiles)
    r = np.array([p.covariance[0, 0] for p in profiles])
    mu = np.array([p.step_size for p in profiles])
    W = start[:n, None]
    u = np.sqrt(r)[:, None]
    d = u[:, 0] * w0
    for kind in StrategyKind:
        stack = combination_stack((kind,), a, n)
        stepped = recursion_step(W, u, d, mu, *(x[0] for x in stack))
        b = build_error_recursion(kind, a, profiles).transition[0, 0]
        assert np.allclose(w0 - stepped, b @ (w0 - W), rtol=0.0, atol=1e-12), kind


@st.composite
def covariance_networks(draw, kinds=("diagonal", "rotated", "non_commuting")):
    """A network whose covariances are diagonal, share one random rotation
    (so they commute) or each have their own rotation (so, for M > 1, they
    do not commute), over a left-stochastic or a symmetric A.  Hypothesis
    draws the sizes and classes (from ``kinds``); the entries come from a
    drawn seed, so the matrices are generic."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(kinds))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_symmetric_stochastic(n, rng) if symmetric else random_left_stochastic(n, rng)
    eigs = rng.uniform(0.5, 3.0, size=(n, m))
    shared = np.linalg.qr(rng.standard_normal((m, m)))[0]
    rotations = {"diagonal": [np.eye(m)] * n, "rotated": [shared] * n,
                 "non_commuting": [np.linalg.qr(rng.standard_normal((m, m)))[0]
                                   for _ in range(n)]}[kind]
    mu = rng.uniform(0.05, 0.95, size=n) * 2.0 / eigs.max(axis=1)
    noise = rng.uniform(0.01, 0.5, size=n)
    profiles = [NodeProfile(covariance=(q * eigs[k]) @ q.T, step_size=float(mu[k]),
                            noise_variance=float(noise[k]))
                for k, q in enumerate(rotations)]
    return kind, a, profiles


@settings(PROPERTY, max_examples=60)
@given(covariance_networks())
def test_blocks_match_the_dense_kronecker_recursion(network):
    # B and Y as M blocks in the shared eigenbasis (or one dense block when
    # there is none) give the dense construction's maps, radius and MSD
    kind, a, profiles = network
    n, m = len(profiles), profiles[0].dim
    for strategy in StrategyKind:
        rec = build_error_recursion(strategy, a, profiles)
        ref_b, ref_y = reference_recursion(strategy, a, profiles)
        if kind == "non_commuting":
            assert rec.blocks == 1 and rec.basis is None
            assert np.array_equal(rec.transition[0, 0], ref_b)
            assert np.array_equal(rec.noise_gram[0, 0], ref_y)
        elif m > 1:
            # the generic draws give eigh(sum_k R_k) distinct eigenvalues
            assert rec.blocks == m
        for stack, ref in ((rec.transition[0], ref_b), (rec.noise_gram[0], ref_y)):
            err = np.abs(full_map(stack, rec.basis) - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), (strategy, err)
        assert abs(spectral_radius(rec.transition) - spectral_radius(ref_b)) <= 1e-12
        got = msd_series(rec)
        want = msd_series(RecursionStack((strategy,), ref_b[None, None], ref_y[None, None],
                                         n, m))
        assert got.terms == want.terms
        assert got.blocks == rec.blocks
        if np.all(np.isfinite(want.per_node)):
            assert np.all(np.abs(got.per_node - want.per_node)
                          <= 1e-12 * want.per_node), strategy
        else:
            assert np.array_equal(got.per_node, want.per_node)


@settings(PROPERTY, max_examples=60)
@given(covariance_networks(kinds=("diagonal", "rotated")))
def test_blocks_are_the_table_formula_bit_for_bit(network):
    # B_m and Y_m come from products with the I slots multiplied; an
    # identity factor is exact, so they equal the formula with them skipped
    _, a, profiles = network
    rec = build_error_recursions(tuple(StrategyKind), a, profiles)
    # M = 1, or a near-repeated eigenvalue of sum_k R_k, keeps the dense form
    assume(rec.basis is not None)
    for s, strategy in enumerate(rec.strategies):
        ref_b, ref_y = reference_blocks(strategy, a, profiles, rec.basis)
        assert np.array_equal(rec.transition[s], ref_b), strategy
        assert np.array_equal(rec.noise_gram[s], ref_y), strategy


@st.composite
def theory_networks(draw):
    """N 2-6 nodes, M 1-3, diagonal covariances (M blocks) or full ones (one
    dense block for M > 1), and each node's step up to 0.99 of its own
    stability bound, where consensus can diverge.  The entries come from a
    drawn seed, as in ``covariance_networks``."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    full = draw(st.booleans())
    symmetric = draw(st.booleans())
    reach = draw(st.floats(0.05, 0.99))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_symmetric_stochastic(n, rng) if symmetric else random_left_stochastic(n, rng)
    covs = [random_spd(m, rng) if full else np.diag(rng.uniform(0.5, 3.0, m))
            for _ in range(n)]
    return a, [NodeProfile(covariance=cov, noise_variance=float(rng.uniform(0.01, 0.5)),
                           step_size=float(rng.uniform(0.01, reach) * 2.0
                                           / np.linalg.eigvalsh(cov)[-1]))
               for cov in covs]


HOT_PAIR = (np.array([[0.15, 0.85], [0.85, 0.15]]),
            [NodeProfile(covariance=np.array([[1.0]]), step_size=mu, noise_variance=0.1)
             for mu in (0.4, 0.6)])


@settings(PROPERTY, max_examples=60)
@given(theory_networks())
@example(HOT_PAIR)
def test_one_theory_pass_equals_each_strategy_alone(network):
    # the stacked pass (one basis, one eigvals call, one doubling loop) gives
    # every strategy the bits of its own one-strategy series, also where the
    # strategies stop at different terms or one of them diverges
    a, profiles = network
    cfg = ExperimentConfig(profiles=profiles, truth=GroundTruth(np.ones(profiles[0].dim)),
                           combination=CombinationMatrix(a, complete_topology(len(a))))
    reports = harness.theory_reports(cfg)
    assert tuple(reports) == cfg.strategies
    for kind, rep in reports.items():
        alone = msd_series(build_error_recursion(kind, a, profiles))
        assert rep.strategy is alone.strategy is kind
        assert np.array_equal(rep.per_node, alone.per_node)
        assert rep.network == alone.network
        assert rep.spectral_radius == alone.spectral_radius
        assert rep.terms == alone.terms and rep.blocks == alone.blocks
        assert (rep.terms == 0) == (rep.spectral_radius >= 1.0)


# Consensus diverges in every trial (mixing too strong for these steps);
# with noise power 0.5 the heavy tails of the LMS error make a low divergence
# factor catch some trials of the other three strategies and not others.
CHUNKED = ExperimentConfig(
    profiles=[NodeProfile(step_size=mu, covariance=np.array([[1.0]]), noise_variance=0.5)
              for mu in (0.4, 0.6)],
    truth=GroundTruth(np.ones(1)),
    combination=CombinationMatrix(np.array([[0.15, 0.85], [0.85, 0.15]]),
                                  complete_topology(2)))


def _run_chunked(cfg, chunk, factor):
    saved = harness.CHUNK, harness.DIVERGENCE_FACTOR
    harness.CHUNK, harness.DIVERGENCE_FACTOR = chunk, factor
    try:
        return harness.run_experiment(cfg)
    finally:
        harness.CHUNK, harness.DIVERGENCE_FACTOR = saved


@PROPERTY
@given(chunk=st.integers(1, 8), trials=st.integers(1, 7),
       iterations=st.integers(1, 300), factor=st.floats(3.0, 30.0),
       seed=st.integers(0, 2**32))
@example(chunk=3, trials=7, iterations=200, factor=4.0, seed=1)
def test_outputs_bit_identical_for_any_chunk_size(chunk, trials, iterations,
                                                  factor, seed):
    cfg = replace(CHUNKED, trials=trials, iterations=iterations, seed=seed)
    whole = _run_chunked(cfg, trials, factor)
    parts = _run_chunked(cfg, chunk, factor)
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
