import re

import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (CombinationMatrix, ConfigError, UnsupportedInputError,
                      build_combination_matrix, complete_topology, is_primitive,
                      line_topology, load_combination_csv, load_topology,
                      perron_pair, random_connected_topology)
from adaptnet.network import COLUMN_SUM_TOL, RULES, NetworkTopology

from conftest import random_left_stochastic


def test_complete_topology_all_true():
    topo = complete_topology(4)
    assert topo.adjacency.all()
    assert is_primitive(topo.adjacency)
    assert topo.neighbors(2).tolist() == [0, 1, 2, 3]


def test_line_topology_shape():
    topo = line_topology(4)
    assert topo.neighbors(0).tolist() == [0, 1]
    assert topo.neighbors(1).tolist() == [0, 1, 2]
    assert topo.degrees().tolist() == [2, 3, 3, 2]
    assert is_primitive(topo.adjacency)


@pytest.mark.parametrize("build", [
    lambda: complete_topology(2.5), lambda: complete_topology(0),
    lambda: line_topology(2.5), lambda: line_topology(True), lambda: line_topology(-1),
    lambda: random_connected_topology(2.5, 0.5, np.random.default_rng(0)),
    lambda: NetworkTopology(True, [[True]]), lambda: NetworkTopology(0, np.eye(0)),
], ids=["complete 2.5", "complete 0", "line 2.5", "line True", "line -1",
        "random 2.5", "topology True", "topology 0"])
def test_builders_reject_a_node_count_that_is_not_a_positive_integer(build):
    # checked before anything is allocated: 2.5 and -1 failed as raw
    # TypeError and ValueError, and True built a one-node topology
    with pytest.raises(ConfigError, match="node count must be an integer of at least 1"):
        build()


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
    assert not is_primitive(NetworkTopology(4, adj).adjacency)


def test_primitive_support_is_a_connected_one():
    # a symmetric support with self-loops is primitive exactly when a
    # breadth-first search from node 0 reaches every node
    rng = np.random.default_rng(29)
    for _ in range(400):
        n = int(rng.integers(1, 12))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.6), k=1)
        adj = adj | adj.T | np.eye(n, dtype=bool)
        seen, frontier = {0}, [0]
        while frontier:
            frontier = [l for k in frontier for l in np.flatnonzero(adj[k]) if l not in seen]
            seen.update(frontier)
        assert is_primitive(adj) == (len(seen) == n)


def test_random_topology_connected_and_reproducible():
    rng = np.random.default_rng(7)
    topo = random_connected_topology(12, 0.25, rng)
    assert is_primitive(topo.adjacency)
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


@pytest.mark.parametrize("text, where", [
    ("# header\nnodes 3\n1 2\n1 2 3\n", ":4: bad edge line '1 2 3'"),
    ("nodes 3\n\n1 4  # past the end\n", ":3: edge 1 4 outside 1..3"),
    ("\n  # only a comment\n1 2\n", ":3: first line must be 'nodes N'"),
    ("", ":1: first line must be 'nodes N'"),
    ("nodesXYZ 3 junk\n1 2\n", ":1: first line must be 'nodes N'"),
    ("nodes 3 junk\n1 2\n", ":1: first line must be 'nodes N'"),
    ("nodes three\n1 2\n", ":1: cannot parse node count from 'nodes three'"),
    ("nodes -2\n", ":1: node count must be positive, got -2"),
    ("# none\nnodes 0\n", ":2: node count must be positive, got 0"),
    ("nodes 3\n1 x\n", ":2: edge ends must be integers, got '1 x'"),
], ids=["bad edge line", "outside", "comment before the header", "empty",
        "glued header", "tokens after the count", "count not a number",
        "negative count", "zero count", "edge end not a number"])
def test_edge_list_errors_name_path_and_line(tmp_path, text, where):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}{where}")):
        load_topology(path)


@pytest.mark.parametrize("text, where", [
    ("0.5,0.5\n0.5,x  # typo\n", ":2: expected numbers, got '0.5,x'"),
    ("# ragged\n0.5,0.5\n\n0.5\n", ":4: ragged row of 1 entries, not 2"),
    ("0.5,0.5,0\n0.5,0.5,1\n", ": expected a square matrix, got shape (2, 3)"),
    ("# comments only\n\n", ": expected a square matrix, got shape (0,)"),
], ids=["token not a number", "ragged rows", "not square", "no rows"])
def test_matrix_csv_errors_name_path_and_line(tmp_path, text, where):
    path = tmp_path / "a.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{path}{where}")):
        load_combination_csv(path)


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


@pytest.mark.parametrize("weights", [
    [[np.nan, 0.5], [0.5, 0.5]],
    [[0.5, 0.5], [0.5, np.nan]],
    [[0.5, np.nan], [0.5, 0.5]],
], ids=["diagonal", "last-diagonal", "off-diagonal"])
def test_combination_matrix_rejects_non_finite_weights(weights):
    # a NaN column sum passes |sum - 1| > tol, so finiteness is checked first
    with pytest.raises(ConfigError, match="non-finite weight"):
        CombinationMatrix(np.array(weights), complete_topology(2))


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
    npt.assert_array_equal(pair.r1, np.full(6, 1 / np.sqrt(6)))
    npt.assert_allclose(pair.s1, pair.r1, atol=1e-10)


def test_perron_two_node_closed_form():
    a_w, b_w = 0.2, 0.4
    a = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
    pair = perron_pair(a)
    npt.assert_array_equal(pair.r1, np.full(2, 1 / np.sqrt(2)))
    npt.assert_allclose(pair.s1, [0.9428090415820634, 0.4714045207910317],
                        atol=1e-10)
    assert pair.s1 @ pair.r1 == pytest.approx(1.0, abs=1e-12)


def test_perron_power_convergence_monotone():
    rng = np.random.default_rng(9)
    a = random_left_stochastic(5, rng)
    pair = perron_pair(a)
    npt.assert_array_equal(pair.r1, np.full(5, 1 / np.sqrt(5)))
    target = np.outer(pair.r1, pair.s1)
    power = a.T.copy()
    errs = []
    for _ in range(40):
        errs.append(np.max(np.abs(power - target)))
        power = power @ a.T
    diffs = np.diff(errs)
    assert np.all(diffs <= 1e-12)
    assert errs[-1] < 1e-6


def test_perron_pair_with_second_eigenvalue_near_one():
    # primitive, second eigenvalue 1 - 3e-5; rounding the entries alone moves
    # the exact pair of the stored matrix by about 9e-13
    slow = np.array([[1.0 - 1e-5, 2e-5], [1e-5, 1.0 - 2e-5]])
    pair = perron_pair(slow)
    npt.assert_allclose(pair.s1, np.array([2.0, 1.0]) * np.sqrt(2.0) / 3.0,
                        rtol=0, atol=1e-12)
    npt.assert_array_equal(pair.r1, np.full(2, 1 / np.sqrt(2)))


def test_perron_pair_validates_the_matrix_before_primitivity():
    # 2 I is no combination matrix, whatever its support; I is one, not primitive
    with pytest.raises(ConfigError, match="column 0 sums to 2.0, expected 1"):
        perron_pair(2.0 * np.eye(2))
    with pytest.raises(UnsupportedInputError, match="requires a primitive"):
        perron_pair(np.eye(2))


def test_combination_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    topo = random_connected_topology(5, 0.5, rng)
    mat = build_combination_matrix(topo, "uniform")
    path = tmp_path / "a.csv"
    np.savetxt(path, mat.weights, fmt="%.17g", delimiter=",", header="round trip")
    back = load_combination_csv(path)
    npt.assert_allclose(back.weights, mat.weights, atol=1e-15)
    npt.assert_array_equal(back.topology.adjacency, mat.topology.adjacency)
