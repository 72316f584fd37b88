"""Streaming data generation for the linear regression model.

Each node k observes d_k(i) = u_{k,i} w0 + v_k(i), with zero-mean Gaussian
regressors of covariance R_{u,k} and zero-mean Gaussian noise of variance
sigma_{v,k}^2, white over time and independent across nodes.  Real-valued
data throughout.

Streams are counter-based: the data of one trial over a block of ``BLOCK``
consecutive time indices is a pure function of the master seed, the trial
and the block index, so trials can run in any order or grouping and
reproduce bit-identical data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer
from .network import NetworkTopology, random_connected_topology

# time indices drawn per counter stream
BLOCK = 128


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The unknown M-vector the network estimates."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float).reshape(-1)
        if v.size == 0 or not np.all(np.isfinite(v)):
            raise ConfigError("ground truth must be a nonempty finite vector")
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.size


def check_covariance(covariance) -> np.ndarray:
    """A copy of the covariance as floats; a ConfigError unless it is square,
    nonempty, finite, symmetric to 1e-12 relative and positive definite."""
    cov = np.array(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
        raise ConfigError(f"covariance must be square and nonempty, got shape {cov.shape}")
    if (not np.all(np.isfinite(cov))
            or np.abs(cov - cov.T).max() > 1e-12 * np.abs(cov).max()):
        raise ConfigError("covariance must be finite and symmetric")
    if not np.linalg.eigvalsh(cov).min() > 0:
        raise ConfigError("covariance must be positive definite")
    return cov


@dataclass(frozen=True, eq=False)
class NodeProfile:
    """Per-node statistics: step-size, regressor covariance, noise variance.

    noise_variance = 0 is accepted (useful for noiseless tests); operations
    that need strictly positive noise check it themselves.
    """

    step_size: float
    covariance: np.ndarray
    noise_variance: float

    def __post_init__(self):
        cov = check_covariance(self.covariance)
        if not 0 < self.step_size < np.inf:
            raise ConfigError(f"step size must be positive and finite, got {self.step_size}")
        if not 0 <= self.noise_variance < np.inf:
            raise ConfigError("noise variance must be nonnegative and finite, "
                              f"got {self.noise_variance}")
        cov.flags.writeable = False
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]


def is_homogeneous(profiles) -> bool:
    """True when every node shares the step size and the regressor covariance,
    the condition under which the eigen-route theory and the common-mu
    bounds apply."""
    first = profiles[0]
    return all(p.step_size == first.step_size
               and np.array_equal(p.covariance, first.covariance)
               for p in profiles[1:])


class SnapshotSource:
    """Reproducible snapshot stream over (trial, time) indices.

    Each (trial, block) pair addresses its own Philox stream: counter word 2
    carries the block index and word 3 the trial.  A block's draws advance
    only word 0, by far less than 2**64, so streams never overlap.
    """

    def __init__(self, profiles, truth: GroundTruth, master_seed: int):
        if len(profiles) == 0:
            raise ConfigError("need at least one node profile")
        self.profiles = list(profiles)
        self.truth = truth
        seed = int(check_integer("seed", master_seed))
        self._key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        for k, p in enumerate(self.profiles):
            if p.dim != truth.dim:
                raise ConfigError(f"node {k}: covariance dim {p.dim} != ground truth dim {truth.dim}")
        vals, vecs = np.linalg.eigh(np.array([p.covariance for p in self.profiles], dtype=float))
        low = vals.min(axis=-1)
        if not np.all(low > 0):
            k = int(np.argmin(low > 0))
            raise ConfigError(f"covariance at node {k} is not positive definite "
                              f"(min eigenvalue {low[k]:.3g})")
        self._sqrts = (vecs * np.sqrt(vals)[:, None]) @ vecs.swapaxes(-1, -2)
        self._noise_std = np.array([np.sqrt(p.noise_variance) for p in self.profiles])

    def block(self, trials, b: int, rows: int = BLOCK):
        """Data of the first ``rows`` time indices of [b * BLOCK, (b + 1) *
        BLOCK) for each listed trial: u of shape (T, rows, N, M) and d of
        shape (T, rows, N).  Philox normals fill in order, so a shorter draw
        is the first rows of the full block, bit for bit.

        Trials are drawn one at a time into one reused (rows, N, M + 1)
        buffer of standard normals, and each trial's noise goes from its
        draw straight into its slab of d, so beyond its outputs a call holds
        one trial's draw.  Trial and block are integers in [0, 2**64), the
        range of a Philox counter word."""
        check_integer("block index", b, 0, 2 ** 64)
        check_integer("rows", rows, 1, BLOCK + 1)
        n, m = len(self.profiles), self.truth.dim
        # one row would colour through a matrix-vector product, which rounds
        # otherwise than the matrix product of a longer draw, so draw two
        drawn = max(rows, 2)
        u = np.empty((len(trials), drawn, n, m))
        d = np.empty((len(trials), drawn, n))
        z = np.empty((drawn, n, m + 1))
        sqrts = self._sqrts.swapaxes(-1, -2)
        for j, trial in enumerate(trials):
            check_integer("trial index", trial, 0, 2 ** 64)
            counter = np.array([0, 0, b, trial], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=self._key, counter=counter))
            rng.standard_normal(out=z)
            # one (rows, M) @ (M, M) BLAS product per node, written straight
            # into this trial's slab of u, so a trial's bits do not depend on
            # its batch; every slab has unit column stride, so nothing is copied
            np.matmul(z[..., :m].swapaxes(0, 1), sqrts, out=u[j].swapaxes(0, 1))
            np.einsum("...km,m->...k", u[j], self.truth.vector, out=d[j])
            d[j] += self._noise_std * z[..., m]
        return u[:, :rows], d[:, :rows]


def benchmark_profile(n_nodes: int = 20, dim: int = 10, seed: int = 0,
                      step_size: float = 0.02, edge_prob: float = 0.3
                      ) -> tuple[NetworkTopology, list[NodeProfile], GroundTruth]:
    """Randomized heterogeneous benchmark scenario.

    Connected random topology; per-node diagonal covariances with entries
    uniform in [2, 4]; noise powers uniform in [-30, -10] dB; ground truth
    with every entry 1/sqrt(dim); common step-size.
    """
    check_integer("dim", dim, 1)
    rng = np.random.default_rng(check_integer("seed", seed))
    topology = random_connected_topology(n_nodes, edge_prob, rng)
    profiles = []
    for _ in range(n_nodes):
        diag = rng.uniform(2.0, 4.0, size=dim)
        noise_db = rng.uniform(-30.0, -10.0)
        profiles.append(NodeProfile(step_size=step_size,
                                    covariance=np.diag(diag),
                                    noise_variance=10.0 ** (noise_db / 10.0)))
    truth = GroundTruth(np.full(dim, 1.0 / np.sqrt(dim)))
    return topology, profiles, truth
