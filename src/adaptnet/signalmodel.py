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

from .errors import ConfigError
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
        cov = np.array(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
            raise ConfigError(f"covariance must be square and nonempty, got shape {cov.shape}")
        if not np.all(np.isfinite(cov)) or not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigError("covariance must be finite and symmetric")
        if not np.linalg.eigvalsh(cov).min() > 0:
            raise ConfigError("covariance must be positive definite")
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


def covariance_sqrt(cov: np.ndarray, node: int | None = None) -> np.ndarray:
    """Symmetric square root via eigendecomposition; rejects non-PD input."""
    vals, vecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    if vals.min() <= 0:
        where = f" at node {node}" if node is not None else ""
        raise ConfigError(f"covariance{where} is not positive definite "
                          f"(min eigenvalue {vals.min():.3g})")
    return (vecs * np.sqrt(vals)) @ vecs.T


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
        self.master_seed = int(master_seed)
        self._key = np.random.SeedSequence(self.master_seed).generate_state(2, np.uint64)
        for k, p in enumerate(self.profiles):
            if p.dim != truth.dim:
                raise ConfigError(f"node {k}: covariance dim {p.dim} != ground truth dim {truth.dim}")
        self._sqrts = np.array([covariance_sqrt(p.covariance, node=k)
                                for k, p in enumerate(self.profiles)])
        self._noise_std = np.array([np.sqrt(p.noise_variance) for p in self.profiles])

    def block(self, trials, b: int):
        """Data of time indices [b * BLOCK, (b + 1) * BLOCK) for each listed
        trial: u of shape (T, BLOCK, N, M), v and d of shape (T, BLOCK, N)."""
        n, m = len(self.profiles), self.truth.dim
        z = np.empty((len(trials), BLOCK, n, m + 1))
        for j, trial in enumerate(trials):
            counter = np.array([0, 0, b, trial], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=self._key, counter=counter))
            z[j] = rng.standard_normal((BLOCK, n, m + 1))
        u = np.einsum("kij,...kj->...ki", self._sqrts, z[..., :m])
        v = self._noise_std * z[..., m]
        return u, v, np.einsum("...km,m->...k", u, self.truth.vector) + v


def benchmark_profile(n_nodes: int = 20, dim: int = 10, seed: int = 0,
                      step_size: float = 0.02, edge_prob: float = 0.3
                      ) -> tuple[NetworkTopology, list[NodeProfile], GroundTruth]:
    """Randomized heterogeneous benchmark scenario.

    Connected random topology; per-node diagonal covariances with entries
    uniform in [2, 4]; noise powers uniform in [-30, -10] dB; ground truth
    with every entry 1/sqrt(dim); common step-size.
    """
    rng = np.random.default_rng(seed)
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
