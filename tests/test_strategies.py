import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, StrategyKind, build_combination_matrix,
                      random_connected_topology)
from adaptnet.strategies import (COOPERATIVE, combination_stack, recursion_step,
                                 uses_a)

NCOP = StrategyKind.NON_COOPERATIVE
CONS = StrategyKind.CONSENSUS
ATC = StrategyKind.ATC
CTA = StrategyKind.CTA


def _random_inputs(n, m, rng):
    W = rng.standard_normal((n, m))
    u = rng.standard_normal((n, m))
    d = rng.standard_normal(n)
    mu = rng.uniform(0.01, 0.2, size=n)
    return W, u, d, mu


def _random_weights(n, rng):
    w = rng.random((n, n)) + 0.1
    return w / w.sum(axis=0, keepdims=True)


def _step(kind, W, u, d, mu, A=None):
    # one strategy through the engine's two calls
    stack = combination_stack((kind,), A, W.shape[-2])
    return recursion_step(W, u, d, mu, *(a[0] for a in stack))


def test_from_name_round_trip():
    assert StrategyKind.from_name("ATC") is StrategyKind.ATC
    assert StrategyKind.from_name(" consensus ") is StrategyKind.CONSENSUS
    with pytest.raises(ConfigError):
        StrategyKind.from_name("gossip")


def test_zero_step_freezes_noncooperative():
    rng = np.random.default_rng(0)
    W, u, d, _ = _random_inputs(4, 3, rng)
    npt.assert_array_equal(_step(NCOP, W, u, d, np.zeros(4)), W)


def test_zero_step_cooperative_is_pure_combination():
    rng = np.random.default_rng(1)
    W, u, d, _ = _random_inputs(4, 3, rng)
    A = _random_weights(4, rng)
    mu = np.zeros(4)
    combined = A.T @ W
    for kind in COOPERATIVE:
        npt.assert_allclose(_step(kind, W, u, d, mu, A), combined, atol=1e-15)


def test_noiseless_fixed_point():
    # every strategy leaves the exact solution untouched on noiseless data
    rng = np.random.default_rng(2)
    n, m = 5, 3
    w0 = rng.standard_normal(m)
    W = np.tile(w0, (n, 1))
    u = rng.standard_normal((n, m))
    d = u @ w0
    mu = rng.uniform(0.05, 0.3, size=n)
    A = _random_weights(n, rng)
    for kind in StrategyKind:
        out = _step(kind, W, u, d, mu, A)
        npt.assert_allclose(out, W, atol=1e-13)


def test_scalar_hand_example():
    W = np.array([[0.0]])
    u = np.array([[1.0]])
    d = np.array([1.0])
    out = _step(NCOP, W, u, d, np.array([0.5]))
    assert out[0, 0] == pytest.approx(0.5)


def test_consensus_pure_averaging():
    W = np.array([[0.0], [1.0]])
    A = np.array([[0.5, 0.5], [0.5, 0.5]])
    out = _step(CONS, W, np.ones((2, 1)), np.zeros(2), np.zeros(2), A)
    npt.assert_allclose(out, [[0.5], [0.5]])


def test_identity_matrix_degenerates_to_noncooperative():
    rng = np.random.default_rng(3)
    W, u, d, mu = _random_inputs(5, 2, rng)
    eye = np.eye(5)
    base = _step(NCOP, W, u, d, mu)
    for kind in COOPERATIVE:
        npt.assert_allclose(_step(kind, W, u, d, mu, eye), base, atol=1e-15)


def test_cta_minus_consensus_closed_form():
    # the two differ by mu_k (u_k (w_k - psi_k)) u_k with psi the combined state
    rng = np.random.default_rng(4)
    W, u, d, mu = _random_inputs(4, 3, rng)
    A = _random_weights(4, rng)
    psi = A.T @ W
    gap = _step(CTA, W, u, d, mu, A) - _step(CONS, W, u, d, mu, A)
    expected = (mu * np.einsum("km,km->k", u, W - psi))[:, None] * u
    npt.assert_allclose(gap, expected, atol=1e-13)
    assert np.max(np.abs(gap)) > 1e-6


def test_two_step_updates_equal_fused_forms():
    rng = np.random.default_rng(5)
    n, m = 6, 4
    W, u, d, mu = _random_inputs(n, m, rng)
    A = _random_weights(n, rng)
    # ATC in one formula: w_k <- sum_l a_lk [w_l + mu_l u_l^T (d_l - u_l w_l)]
    adapted = W + (mu * (d - np.einsum("km,km->k", u, W)))[:, None] * u
    atc_direct = A.T @ adapted
    npt.assert_allclose(_step(ATC, W, u, d, mu, A), atc_direct, atol=1e-12)
    # CTA in one formula: psi = sum_l a_lk w_l, then adapt at psi
    psi = A.T @ W
    cta_direct = psi + (mu * (d - np.einsum("km,km->k", u, psi)))[:, None] * u
    npt.assert_allclose(_step(CTA, W, u, d, mu, A), cta_direct, atol=1e-12)


def test_consensus_error_uses_own_previous_iterate():
    rng = np.random.default_rng(6)
    W, u, d, mu = _random_inputs(4, 3, rng)
    A = _random_weights(4, rng)
    psi = A.T @ W
    expected = psi + (mu * (d - np.einsum("km,km->k", u, W)))[:, None] * u
    npt.assert_allclose(_step(CONS, W, u, d, mu, A), expected, atol=1e-13)


def _stacked_step(kinds, W, u, d, mu, A):
    # the engine's form: every listed strategy at once, a trial axis on W
    stack = combination_stack(kinds, A, W.shape[-2])
    return recursion_step(W, u, d, mu, *(a[:, None] for a in stack))


def test_locality_sentinel_poisoning():
    # node k's update must not read any array entry outside N_k
    rng = np.random.default_rng(7)
    n, m = 6, 3
    topo = random_connected_topology(n, 0.3, rng)
    A = build_combination_matrix(topo, "uniform").weights
    W, u, d, mu = _random_inputs(n, m, rng)
    k = 2
    outside = ~topo.adjacency[:, k]
    assert outside.any(), "test needs at least one non-neighbor"
    # a batch of three trials: the poison sits in one trial only
    W, u, d = (np.stack([x, 2 * x, -x]) for x in (W, u, d))
    clean = _stacked_step(COOPERATIVE, W, u, d, mu, A)
    Wp, up, dp = W.copy(), u.copy(), d.copy()
    Wp[1, outside] = 1e30
    up[1, outside] = 1e30
    dp[1, outside] = 1e30
    poisoned = _stacked_step(COOPERATIVE, Wp, up, dp, mu, A)
    npt.assert_array_equal(poisoned[:, :, k], clean[:, :, k])
    npt.assert_array_equal(poisoned[:, [0, 2]], clean[:, [0, 2]])


def test_noncooperative_ignores_all_other_nodes():
    rng = np.random.default_rng(8)
    W, u, d, mu = _random_inputs(5, 2, rng)
    W, u, d = (np.stack([x, -x]) for x in (W, u, d))
    clean = _stacked_step((NCOP,), W, u, d, mu, None)
    Wp, up, dp = W.copy(), u.copy(), d.copy()
    Wp[:, 1:] = 1e30
    up[:, 1:] = 1e30
    dp[:, 1:] = 1e30
    poisoned = _stacked_step((NCOP,), Wp, up, dp, mu, None)
    npt.assert_array_equal(poisoned[:, :, 0], clean[:, :, 0])


def test_overflow_stays_in_its_strategy_trial_slab():
    # a diverged trial keeps running in the engine: its inf and nan must not
    # reach any other (strategy, trial) slab
    rng = np.random.default_rng(13)
    s, t, n, m = 4, 3, 5, 2
    W = rng.standard_normal((s, t, n, m))
    u = rng.standard_normal((t, n, m))
    d = rng.standard_normal((t, n))
    mu = rng.uniform(0.01, 0.2, size=n)
    A = _random_weights(n, rng)
    kinds = tuple(StrategyKind)
    clean = _stacked_step(kinds, W, u, d, mu, A)
    Wp = W.copy()
    Wp[2, 1, 0] = np.inf
    Wp[2, 1, 3] = np.nan
    with np.errstate(invalid="ignore"):
        poisoned = _stacked_step(kinds, Wp, u, d, mu, A)
    others = np.ones((s, t), dtype=bool)
    others[2, 1] = False
    npt.assert_array_equal(poisoned[others], clean[others])
    assert not np.all(np.isfinite(poisoned[2, 1]))


def test_update_requires_weights_for_cooperative():
    with pytest.raises(ConfigError, match="combination matrix"):
        combination_stack((NCOP, ATC), None, 3)
    assert all(a.shape == (1, 3, 3) for a in combination_stack((NCOP,), None, 3))


@pytest.mark.parametrize("kind", ["atc", None, 2])
def test_table_rejects_non_members(kind):
    # combination_stack used to let a raw KeyError escape
    with pytest.raises(ConfigError, match="unknown strategy"):
        uses_a(kind)
    with pytest.raises(ConfigError, match="unknown strategy"):
        combination_stack((ATC, kind), np.eye(3), 3)


def test_batched_update_matches_per_trial_calls_bit_for_bit():
    rng = np.random.default_rng(10)
    t, n, m = 5, 6, 3
    W, u = rng.standard_normal((2, t, n, m))
    d = rng.standard_normal((t, n))
    mu = rng.uniform(0.01, 0.2, size=n)
    A = _random_weights(n, rng)
    kinds = (CTA, NCOP, ATC, CONS)
    stacked = _stacked_step(kinds, np.stack([W] * len(kinds)), u, d, mu, A)
    assert stacked.shape == (len(kinds), t, n, m)
    for s, kind in enumerate(kinds):
        batched = _step(kind, W, u, d, mu, A)
        assert batched.shape == (t, n, m)
        npt.assert_array_equal(stacked[s], batched)
        for trial in range(t):
            npt.assert_array_equal(batched[trial],
                                   _step(kind, W[trial], u[trial], d[trial], mu, A))


class CountingStep:
    """Reference implementation with explicit per-node multiply counting.

    Mirrors the per-node cost model: combination costs n_k * M multiplies,
    adaptation costs 2M + 1 (inner product, scalar scale, scaled regressor).
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights)
        self.multiplies = None

    def _combine(self, W, k, counts):
        n, m = W.shape
        acc = np.zeros(m)
        for l in range(n):
            a = self.weights[l, k]
            if a != 0.0:
                acc += a * W[l]
                counts[k] += m
        return acc

    def _adapt(self, w, u, d, mu, k, counts):
        inner = float(u @ w)
        counts[k] += u.size
        err = mu * (d - inner)
        counts[k] += 1
        out = w + err * u
        counts[k] += u.size
        return out

    def run(self, kind, W, u, d, mu):
        n, m = W.shape
        counts = np.zeros(n, dtype=int)
        out = np.empty_like(W)
        if kind is StrategyKind.ATC:
            psi = np.array([self._adapt(W[k], u[k], d[k], mu[k], k, counts)
                            for k in range(n)])
            for k in range(n):
                out[k] = self._combine(psi, k, counts)
        elif kind is StrategyKind.CTA:
            for k in range(n):
                psi = self._combine(W, k, counts)
                out[k] = self._adapt(psi, u[k], d[k], mu[k], k, counts)
        elif kind is StrategyKind.CONSENSUS:
            for k in range(n):
                psi = self._combine(W, k, counts)
                inner = float(u[k] @ W[k])
                counts[k] += m
                err = mu[k] * (d[k] - inner)
                counts[k] += 1
                out[k] = psi + err * u[k]
                counts[k] += m
        else:
            raise ValueError(kind)
        self.multiplies = counts
        return out


def test_cooperative_cost_is_nk_plus_2_times_m():
    # all three cooperative strategies: (n_k + 2) M multiplies per node,
    # up to an additive constant, and the shim agrees with the vector code
    rng = np.random.default_rng(11)
    n, m = 7, 4
    topo = random_connected_topology(n, 0.4, rng)
    A = build_combination_matrix(topo, "metropolis").weights
    W, u, d, mu = _random_inputs(n, m, rng)
    degrees = topo.degrees()
    for kind in (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.CONSENSUS):
        shim = CountingStep(A)
        ref = shim.run(kind, W, u, d, mu)
        fast = _step(kind, W, u, d, mu, A)
        npt.assert_allclose(ref, fast, atol=1e-12)
        expected = (degrees + 2) * m
        # ATC combines the adapted state over supp(A) columns; Metropolis can
        # zero a diagonal weight, dropping exactly one block of m multiplies
        slack = m + 1
        assert np.all(np.abs(shim.multiplies - expected) <= slack), (
            kind, shim.multiplies, expected)


def test_equal_seeds_identity_matrix_identical_trajectories():
    rng = np.random.default_rng(12)
    n, m = 4, 3
    mu = np.full(n, 0.05)
    eye = np.eye(n)
    states = {kind: np.zeros((n, m)) for kind in StrategyKind}
    for _ in range(25):
        u = rng.standard_normal((n, m))
        d = rng.standard_normal(n)
        for kind in StrategyKind:
            states[kind] = _step(kind, states[kind], u, d, mu, eye)
    base = states[StrategyKind.NON_COOPERATIVE]
    for kind in StrategyKind:
        npt.assert_allclose(states[kind], base, atol=1e-13)
