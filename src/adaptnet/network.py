"""Network topologies, combination matrices, and Perron eigenvector machinery.

A combination matrix A is left-stochastic: entries a_{l,k} >= 0 give the weight
node k assigns to node l's estimate, columns sum to one, and a_{l,k} = 0
whenever l is not a neighbor of k.  Every node is its own neighbor.  For a
primitive A the powers of A^T converge to the rank-one matrix r1 s1^T, where
r1 and s1 are the right/left eigenvectors of A^T at eigenvalue one under the
normalization ||r1|| = 1, s1^T r1 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, UnsupportedInputError

COLUMN_SUM_TOL = 1e-12
# random draws tried before a connected topology is given up on
TOPOLOGY_ATTEMPTS = 1000
# power-iteration stop: largest entry change between iterates
PERRON_TOL = 1e-12
RULES = ("uniform", "metropolis", "relative_variance")


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Undirected connectivity pattern over ``n_nodes`` nodes.

    ``adjacency`` is a boolean (N, N) matrix, symmetric, with a True diagonal:
    each node always neighbors itself.
    """

    n_nodes: int
    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if self.n_nodes < 1:
            raise ConfigError("topology needs at least one node")
        if adj.shape != (self.n_nodes, self.n_nodes):
            raise ConfigError(f"adjacency shape {adj.shape} does not match n_nodes={self.n_nodes}")
        if not np.array_equal(adj, adj.T):
            raise ConfigError("adjacency must be symmetric")
        adj = adj.copy()
        np.fill_diagonal(adj, True)
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    def neighbors(self, k: int) -> np.ndarray:
        """Indices of N_k, including k itself."""
        return np.flatnonzero(self.adjacency[:, k])

    def degrees(self) -> np.ndarray:
        """Neighborhood sizes n_k = |N_k| (self-inclusive)."""
        return self.adjacency.sum(axis=0)

    def is_connected(self) -> bool:
        reach = np.zeros(self.n_nodes, dtype=bool)
        reach[0] = True
        frontier = [0]
        while frontier:
            nxt = np.flatnonzero(self.adjacency[:, frontier].any(axis=1) & ~reach)
            reach[nxt] = True
            frontier = list(nxt)
        return bool(reach.all())


def complete_topology(n_nodes: int) -> NetworkTopology:
    return NetworkTopology(n_nodes, np.ones((n_nodes, n_nodes), dtype=bool))


def line_topology(n_nodes: int) -> NetworkTopology:
    adj = np.eye(n_nodes, dtype=bool)
    idx = np.arange(n_nodes - 1)
    adj[idx, idx + 1] = True
    adj[idx + 1, idx] = True
    return NetworkTopology(n_nodes, adj)


def random_connected_topology(n_nodes: int, edge_prob: float,
                              rng: np.random.Generator) -> NetworkTopology:
    """Erdos-Renyi draw with the given edge probability, rejected until connected."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ConfigError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    for _ in range(TOPOLOGY_ATTEMPTS):
        upper = rng.random((n_nodes, n_nodes)) < edge_prob
        adj = np.triu(upper, k=1)
        adj = adj | adj.T
        np.fill_diagonal(adj, True)
        topo = NetworkTopology(n_nodes, adj)
        if topo.is_connected():
            return topo
    raise ConfigError(f"no connected topology in {TOPOLOGY_ATTEMPTS} draws "
                      f"(n={n_nodes}, p={edge_prob}); raise edge_prob")


def load_topology(path) -> NetworkTopology:
    """Read an edge list: first line ``nodes N``, then 1-based ``i j`` pairs."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("nodes"):
        raise ConfigError(f"{path}: first line must be 'nodes N'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot parse node count from {lines[0]!r}") from exc
    adj = np.eye(n, dtype=bool)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ConfigError(f"{path}: bad edge line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ConfigError(f"{path}: edge {i} {j} outside 1..{n}")
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = True
    return NetworkTopology(n, adj)


@dataclass(frozen=True, eq=False)
class CombinationMatrix:
    """Left-stochastic weights on a topology; ``weights[l, k]`` is a_{l,k}."""

    weights: np.ndarray
    topology: NetworkTopology

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        n = self.topology.n_nodes
        if w.shape != (n, n):
            raise ConfigError(f"weights shape {w.shape} does not match topology with {n} nodes")
        if np.any(w < 0):
            l, k = np.argwhere(w < 0)[0]
            raise ConfigError(f"negative weight a[{l},{k}] = {w[l, k]}")
        sums = w.sum(axis=0)
        bad = np.flatnonzero(np.abs(sums - 1.0) > COLUMN_SUM_TOL)
        if bad.size:
            k = bad[0]
            raise ConfigError(f"column {k} sums to {sums[k]!r}, expected 1")
        off = ~self.topology.adjacency & (w != 0.0)
        if off.any():
            l, k = np.argwhere(off)[0]
            raise ConfigError(f"nonzero weight a[{l},{k}] between non-neighbors")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes


def build_combination_matrix(topology: NetworkTopology, rule: str,
                             noise_variances=None) -> CombinationMatrix:
    """Construct A by one of the standard rules.

    uniform            a_{l,k} = 1/n_k for l in N_k (n_k counts k itself)
    metropolis         a_{l,k} = 1/max{deg_l, deg_k} for neighbors l != k, where
                       deg is the link count excluding the self-loop; diagonal
                       absorbs the remainder (symmetric, doubly stochastic)
    relative_variance  a_{l,k} proportional to 1/sigma_{v,l}^2 over N_k
    """
    n = topology.n_nodes
    adj = topology.adjacency
    w = np.zeros((n, n))
    if rule == "uniform":
        w[adj] = 1.0
        w /= topology.degrees()[None, :]
        w[~adj] = 0.0
    elif rule == "metropolis":
        link_deg = topology.degrees() - 1
        for k in range(n):
            for l in range(k + 1, n):
                if adj[l, k]:
                    w[l, k] = w[k, l] = 1.0 / max(link_deg[l], link_deg[k])
        np.fill_diagonal(w, 0.0)
        diag = 1.0 - w.sum(axis=0)
        # off-diagonal sums can round a hair past 1 when they are exactly 1
        diag[np.abs(diag) < 1e-12] = 0.0
        np.fill_diagonal(w, diag)
    elif rule == "relative_variance":
        if noise_variances is None:
            raise ConfigError("relative_variance rule needs noise variances")
        var = np.asarray(noise_variances, dtype=float)
        if var.shape != (n,):
            raise ConfigError(f"expected {n} noise variances, got shape {var.shape}")
        if np.any(var <= 0):
            k = int(np.argmax(var <= 0))
            raise ConfigError(f"relative_variance needs positive noise variance, node {k} has {var[k]}")
        inv = 1.0 / var
        for k in range(n):
            nk = topology.neighbors(k)
            w[nk, k] = inv[nk] / inv[nk].sum()
    else:
        raise ConfigError(f"unknown combination rule {rule!r}; choose from {RULES}")
    return CombinationMatrix(w, topology)


def _support(matrix) -> np.ndarray:
    w = matrix.weights if isinstance(matrix, CombinationMatrix) else np.asarray(matrix)
    return w > 0


def is_primitive(matrix) -> bool:
    """True iff some power A^j, j <= (N-1)^2 + 1, is entrywise positive.

    Boolean repeated squaring of the support matrix.  Positivity of powers is
    absorbing because a left-stochastic matrix has no zero column, so checking
    the first squared power past the Wielandt bound suffices.
    """
    s = _support(matrix)
    n = s.shape[0]
    if np.any(~s.any(axis=0)):
        raise ConfigError("support has a zero column; matrix is not left-stochastic")
    bound = (n - 1) ** 2 + 1
    power = 1
    cur = s.astype(np.int64)
    cur = (cur > 0)
    while power < bound and not cur.all():
        cur = (cur.astype(np.int64) @ cur.astype(np.int64)) > 0
        power *= 2
    return bool(cur.all())


@dataclass(frozen=True, eq=False)
class PerronPair:
    """Right/left eigenvectors of A^T at eigenvalue one, ||r1|| = 1, s1^T r1 = 1."""

    r1: np.ndarray
    s1: np.ndarray


def perron_pair(matrix, max_iters: int = 100000) -> PerronPair:
    """Power iteration for the Perron pair of a primitive combination matrix;
    its s1 weighs the noise in acceptance 7's strict per-node condition."""
    if not is_primitive(matrix):
        raise UnsupportedInputError("Perron pair requires a primitive combination matrix")
    a = matrix.weights if isinstance(matrix, CombinationMatrix) else np.asarray(matrix, dtype=float)
    at = a.T
    n = a.shape[0]

    def iterate(op):
        x = np.ones(n) / np.sqrt(n)
        for _ in range(max_iters):
            nxt = op @ x
            nxt = nxt / np.linalg.norm(nxt)
            if nxt.sum() < 0:
                nxt = -nxt
            if np.max(np.abs(nxt - x)) < PERRON_TOL:
                return nxt
            x = nxt
        raise NumericalError("power iteration did not converge")

    r1 = iterate(at)
    s1 = iterate(a)
    s1 = s1 / (s1 @ r1)
    return PerronPair(r1, s1)


def load_combination_csv(path) -> CombinationMatrix:
    """Read a matrix CSV (row l, column k = a_{l,k}); topology from the support."""
    rows = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            rows.append([float(tok) for tok in ln.split(",")])
    w = np.asarray(rows, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ConfigError(f"{path}: expected a square matrix, got shape {w.shape}")
    support = (w > 0) | (w > 0).T
    np.fill_diagonal(support, True)
    return CombinationMatrix(w, NetworkTopology(w.shape[0], support))

