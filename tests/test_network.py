import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (CombinationMatrix, ConfigError, NumericalError,
                      build_combination_matrix, complete_topology, is_primitive,
                      line_topology, load_combination_csv, load_topology,
                      perron_pair, random_connected_topology)
from adaptnet.network import COLUMN_SUM_TOL, RULES, NetworkTopology

from conftest import random_left_stochastic


def test_complete_topology_all_true():
    topo = complete_topology(4)
    assert topo.adjacency.all()
    assert topo.is_connected()
    assert topo.neighbors(2).tolist() == [0, 1, 2, 3]


def test_line_topology_shape():
    topo = line_topology(4)
    assert topo.neighbors(0).tolist() == [0, 1]
    assert topo.neighbors(1).tolist() == [0, 1, 2]
    assert topo.degrees().tolist() == [2, 3, 3, 2]
    assert topo.is_connected()


def test_topology_requires_symmetry():
    adj = np.eye(3, dtype=bool)
    adj[0, 1] = True
    with pytest.raises(ConfigError):
        NetworkTopology(3, adj)


def test_topology_self_loops_forced():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    topo = NetworkTopology(3, adj)
    assert np.all(np.diag(topo.adjacency))


def test_disconnected_detected():
    adj = np.eye(4, dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    assert not NetworkTopology(4, adj).is_connected()


def test_random_topology_connected_and_reproducible():
    rng = np.random.default_rng(7)
    topo = random_connected_topology(12, 0.25, rng)
    assert topo.is_connected()
    again = random_connected_topology(12, 0.25, np.random.default_rng(7))
    npt.assert_array_equal(topo.adjacency, again.adjacency)


def test_topology_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    topo = random_connected_topology(9, 0.3, rng)
    path = tmp_path / "graph.txt"
    # 1-based upper-triangle edge list under the "nodes N" line
    edges = np.argwhere(np.triu(topo.adjacency, k=1)) + 1
    np.savetxt(path, edges, fmt="%d", header=f"nodes {topo.n_nodes}", comments="")
    back = load_topology(path)
    npt.assert_array_equal(topo.adjacency, back.adjacency)


def test_uniform_two_node_all_half():
    # full 2-node graph: both degrees are 2, every weight 1/2
    a = build_combination_matrix(complete_topology(2), "uniform").weights
    npt.assert_allclose(a, 0.5)


def test_relative_variance_two_node():
    a = build_combination_matrix(complete_topology(2), "relative_variance",
                                 noise_variances=[1.0, 4.0]).weights
    npt.assert_allclose(a[:, 0], [0.8, 0.2], atol=1e-15)
    npt.assert_allclose(a[:, 1], [0.8, 0.2], atol=1e-15)


def test_relative_variance_needs_positive_noise():
    with pytest.raises(ConfigError, match="node 1"):
        build_combination_matrix(complete_topology(2), "relative_variance",
                                 noise_variances=[1.0, 0.0])


def test_metropolis_three_node_line():
    a = build_combination_matrix(line_topology(3), "metropolis").weights
    assert a[0, 1] == pytest.approx(0.5)
    assert a[2, 1] == pytest.approx(0.5)
    assert a[1, 1] == pytest.approx(0.0)
    assert a[1, 0] == pytest.approx(0.5)
    assert a[0, 0] == pytest.approx(0.5)


def test_rules_column_sums_and_support():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        topo = random_connected_topology(n, 0.4, rng)
        noise = rng.uniform(0.05, 2.0, size=n)
        for rule in RULES:
            a = build_combination_matrix(topo, rule, noise_variances=noise).weights
            npt.assert_allclose(a.sum(axis=0), 1.0, atol=COLUMN_SUM_TOL)
            assert np.all(a[~topo.adjacency] == 0.0)
            assert np.all(a >= 0.0)


def test_metropolis_always_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(10):
        topo = random_connected_topology(int(rng.integers(3, 10)), 0.4, rng)
        a = build_combination_matrix(topo, "metropolis").weights
        npt.assert_allclose(a, a.T, atol=1e-15)


def test_unknown_rule_rejected():
    with pytest.raises(ConfigError):
        build_combination_matrix(complete_topology(3), "nope")


def test_combination_matrix_validation():
    topo = complete_topology(2)
    with pytest.raises(ConfigError, match="column"):
        CombinationMatrix(np.array([[0.6, 0.5], [0.5, 0.5]]), topo)
    with pytest.raises(ConfigError):
        CombinationMatrix(np.array([[1.2, 0.5], [-0.2, 0.5]]), topo)
    line = line_topology(3)
    off = np.full((3, 3), 1 / 3)
    with pytest.raises(ConfigError, match="non-neighbors"):
        CombinationMatrix(off, line)


def test_is_primitive_identity_false():
    assert not is_primitive(np.eye(4))


def test_is_primitive_two_node_interior_true():
    a = np.array([[0.7, 0.4], [0.3, 0.6]])
    assert is_primitive(a)


def test_is_primitive_swap_false():
    # pure swap alternates between I and the antidiagonal, never positive
    assert not is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_is_primitive_rejects_zero_column():
    with pytest.raises(ConfigError):
        is_primitive(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_perron_doubly_stochastic():
    rng = np.random.default_rng(4)
    a = build_combination_matrix(random_connected_topology(6, 0.5, rng),
                                 "metropolis").weights
    pair = perron_pair(a)
    npt.assert_allclose(pair.r1, np.full(6, 1 / np.sqrt(6)), atol=1e-10)
    npt.assert_allclose(pair.s1, pair.r1, atol=1e-10)


def test_perron_two_node_closed_form():
    a_w, b_w = 0.2, 0.4
    a = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
    pair = perron_pair(a)
    npt.assert_allclose(pair.s1, [0.9428090415820634, 0.4714045207910317],
                        atol=1e-10)
    assert pair.s1 @ pair.r1 == pytest.approx(1.0, abs=1e-12)


def test_perron_power_convergence_monotone():
    rng = np.random.default_rng(9)
    a = random_left_stochastic(5, rng)
    pair = perron_pair(a)
    target = np.outer(pair.r1, pair.s1)
    power = a.T.copy()
    errs = []
    for _ in range(40):
        errs.append(np.max(np.abs(power - target)))
        power = power @ a.T
    diffs = np.diff(errs)
    assert np.all(diffs <= 1e-12)
    assert errs[-1] < 1e-6


def test_perron_nonconvergence_raises():
    # primitive but with second eigenvalue 1 - 3e-5: far too slow for 50 steps
    slow = np.array([[1.0 - 1e-5, 2e-5], [1e-5, 1.0 - 2e-5]])
    with pytest.raises(NumericalError):
        perron_pair(slow, max_iters=50)


def test_combination_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    topo = random_connected_topology(5, 0.5, rng)
    mat = build_combination_matrix(topo, "uniform")
    path = tmp_path / "a.csv"
    np.savetxt(path, mat.weights, fmt="%.17g", delimiter=",", header="round trip")
    back = load_combination_csv(path)
    npt.assert_allclose(back.weights, mat.weights, atol=1e-15)
    npt.assert_array_equal(back.topology.adjacency, mat.topology.adjacency)
