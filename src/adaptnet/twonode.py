"""Closed-form analytics for the two-node scalar network.

The combination matrix is parameterized by a, b in [0, 1]:

    A^T = [[1-a, a],
           [b, 1-b]]

so a is the weight node 1 places on node 2's estimate and vice versa.  With
scalar regressors the only free statistics are the products p_k =
mu_k sigma_{u,k}^2 and the noise ratio t = sigma_{v,1}^2 / sigma_{v,2}^2.

Everything here has an independent general-path counterpart in the spectra
and msdtheory modules; the two routes are cross-validated in the tests.
The PSD half of the noise conditions is msdtheory's ``noise_shrinkage``; the
determinant and the strict condition stay closed forms, the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StabilityError, check_integer
from .msdtheory import noise_shrinkage
from .network import is_primitive

REGION_BOUNDARY_TOL = 1e-9


def _check_noise_ratio(t: float) -> None:
    if not 0 < t < np.inf:
        raise ConfigError(f"noise ratio must be positive and finite, got {t}")


def _check_weights(a: float, b: float) -> None:
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ConfigError(f"a, b must lie in [0, 1], got a={a}, b={b}")


@dataclass(frozen=True)
class TwoNodeConfig:
    """a, b: combination weights; mu_sigma_k: step-size times regressor power;
    t: noise-variance ratio node1/node2."""

    a: float
    b: float
    mu_sigma1: float
    mu_sigma2: float
    t: float = 1.0

    def __post_init__(self):
        _check_weights(self.a, self.b)
        if not (0 < self.mu_sigma1 < np.inf and 0 < self.mu_sigma2 < np.inf):
            raise ConfigError("mu*sigma^2 products must be positive and finite, got "
                              f"{self.mu_sigma1}, {self.mu_sigma2}")
        _check_noise_ratio(self.t)

    def combination(self) -> np.ndarray:
        """The left-stochastic A (columns sum to one)."""
        return np.array([[1.0 - self.a, self.b], [self.a, 1.0 - self.b]])


def canonical(cfg: TwoNodeConfig) -> tuple[TwoNodeConfig, bool]:
    """Relabel nodes so that mu_sigma1 <= mu_sigma2; returns (config, swapped).

    Swapping node labels exchanges a with b and inverts the noise ratio; the
    spectrum of every associated matrix is unchanged.
    """
    if cfg.mu_sigma1 <= cfg.mu_sigma2:
        return cfg, False
    return TwoNodeConfig(a=cfg.b, b=cfg.a, mu_sigma1=cfg.mu_sigma2,
                         mu_sigma2=cfg.mu_sigma1, t=1.0 / cfg.t), True


def consensus_min_eigenvalue(cfg: TwoNodeConfig) -> float:
    """Smallest eigenvalue of the 2x2 consensus transition matrix."""
    cfg, _ = canonical(cfg)
    # root of the discriminant (b - a + p2 - p1)^2 + 4ab, real since a, b >= 0;
    # hypot keeps a large finite p2 from overflowing the square
    root = np.hypot(cfg.b - cfg.a + cfg.mu_sigma2 - cfg.mu_sigma1,
                    2.0 * np.sqrt(cfg.a * cfg.b))
    return 0.5 * (2.0 - cfg.a - cfg.b - cfg.mu_sigma1 - cfg.mu_sigma2 - root)


def consensus_instability_condition(cfg: TwoNodeConfig) -> bool:
    """Sufficient instability test for individually stable nodes: when
    a + b >= 2 - mu_sigma1 (smaller product after relabeling) the consensus
    network is guaranteed unstable.  False means the test is inconclusive,
    not that the network is stable."""
    cfg, _ = canonical(cfg)
    if not cfg.mu_sigma2 < 2.0:
        raise ConfigError("instability condition assumes both nodes individually "
                          f"stable; got mu*sigma^2 = {cfg.mu_sigma2} >= 2")
    return cfg.a + cfg.b >= 2.0 - cfg.mu_sigma1


def diffusion_stabilization_range(cfg: TwoNodeConfig) -> float:
    """For the b = 1 - a family with node 1 stable and node 2 unstable,
    diffusion is mean-stable iff 0 <= a < (2 - p1)/(p2 - p1); returns that
    open upper endpoint (intersect with [0, 1] for usable weights)."""
    p1, p2 = cfg.mu_sigma1, cfg.mu_sigma2
    if not (p1 < 2.0 <= p2):
        raise ConfigError("stabilization range needs node 1 stable and node 2 "
                          f"unstable: mu*sigma^2 = ({p1}, {p2})")
    if abs(cfg.b - (1.0 - cfg.a)) > 1e-12:
        raise ConfigError(f"stabilization analysis assumes b = 1 - a, got a={cfg.a}, b={cfg.b}")
    return (2.0 - p1) / (p2 - p1)


def region_thresholds(mu_sigma: float) -> tuple[float, float, float]:
    """(first threshold, second threshold, consensus stability boundary) on
    a + b, for the homogeneous two-node network."""
    if not 0.0 < mu_sigma < 1.0:
        raise ConfigError(f"region analysis assumes 0 < mu*sigma^2 < 1, got {mu_sigma}")
    return (2.0 * (1.0 - mu_sigma) / (2.0 - mu_sigma),
            2.0 * (1.0 - mu_sigma),
            2.0 - mu_sigma)


def _region_labels(s, thresholds) -> np.ndarray:
    """The region rule on an array of sums s = a + b: "unstable" from the
    stability limit on, "boundary" within ``REGION_BOUNDARY_TOL`` of either
    threshold, then "I", "II" or "III" (see ``msd_region_classify``)."""
    t1, t2, stability = thresholds
    return np.select([s >= stability,
                      (np.abs(s - t1) <= REGION_BOUNDARY_TOL)
                      | (np.abs(s - t2) <= REGION_BOUNDARY_TOL),
                      s < t1,
                      s < t2],
                     ["unstable", "boundary", "I", "II"], default="III")


def msd_region_classify(a: float, b: float, mu_sigma: float) -> str:
    """Classify (a, b) into the homogeneous MSD-ordering regions.

    Region I   (a+b below the first threshold):  consensus beats CTA and
               the non-cooperative baseline.
    Region II  (between thresholds): CTA <= consensus <= non-cooperative.
    Region III (above the second threshold): consensus is worse than the
               non-cooperative baseline.
    Points within ``REGION_BOUNDARY_TOL`` of a threshold are labeled "boundary"
    (the defining inequalities are non-strict on both sides there).  A point
    at or past the consensus stability limit raises ``StabilityError``, and
    a or b outside [0, 1] a ``ConfigError``.
    """
    _check_weights(a, b)
    thresholds = region_thresholds(mu_sigma)
    s = a + b
    label = str(_region_labels(np.asarray(s), thresholds))
    if label == "unstable":
        raise StabilityError(
            f"consensus is unstable for a + b = {s:.6g} >= {thresholds[2]:.6g}")
    return label


@dataclass(frozen=True, eq=False)
class TwoNodeConditionReport:
    """Noise-shrinkage and strict-ordering conditions at one (a, b, t) point.

    The shrink matrix is Sigma_v - A^T Sigma_v A in units of sigma_{v,2}^2.
    It is PSD exactly when a = t b with b <= min{1, 1/t}; its determinant is
    -(a - t b)^2.  The strict condition (Perron-averaged noise below every
    node's own noise) reduces to (t-1)a + 2bt > 0 and 2a + (1-t)b > 0.
    """

    shrink_matrix: np.ndarray
    determinant: float
    min_eigenvalue: float
    noise_shrink_psd: bool
    strict_lhs: tuple
    strict_condition: bool
    primitive: bool


def _transposed_weights(a, b) -> np.ndarray:
    """A^T = [[1-a, a], [b, 1-b]] at every point of the broadcast a, b:
    shape (..., 2, 2)."""
    a, b = np.broadcast_arrays(a, b)
    return np.stack([np.stack([1.0 - a, a], axis=-1),
                     np.stack([b, 1.0 - b], axis=-1)], axis=-2)


def _noise_conditions(a, b, t: float):
    """(shrink, det, min_eig, psd, lhs1, lhs2, strict) at every point of the
    broadcast arrays a, b, for one noise ratio t the caller has checked:
    ``noise_shrinkage``'s three with the determinants of its (..., 2, 2)
    stack, then the two strict left-hand sides and the strict verdicts."""
    shrink, min_eig, psd = noise_shrinkage(_transposed_weights(a, b), np.array([t, 1.0]))
    lhs1 = (t - 1.0) * a + 2.0 * b * t
    lhs2 = 2.0 * a + (1.0 - t) * b
    return (shrink, np.linalg.det(shrink), min_eig, psd,
            lhs1, lhs2, (lhs1 > 0) & (lhs2 > 0))


def individual_msd_conditions(a: float, b: float, t: float) -> TwoNodeConditionReport:
    _check_noise_ratio(t)
    _check_weights(a, b)
    shrink, det, min_eig, psd, lhs1, lhs2, strict = _noise_conditions(a, b, t)
    return TwoNodeConditionReport(
        shrink_matrix=shrink,
        determinant=float(det),
        min_eigenvalue=float(min_eig),
        noise_shrink_psd=bool(psd),
        strict_lhs=(float(lhs1), float(lhs2)),
        strict_condition=bool(strict),
        primitive=is_primitive(_transposed_weights(a, b).T),
    )


def _unit_square(points: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) over an evenly spaced grid of the unit square, indexed [i, j]
    so that a raveled array runs a-major, the grids' row order."""
    vals = np.linspace(0.0, 1.0, points)
    return np.meshgrid(vals, vals, indexing="ij")


def region_grid(mu_sigma: float, points: int = 200):
    """(a, b, label) rows over the unit square; unstable points labeled so.
    The square is labeled in one array pass of the region rule."""
    check_integer("grid point count", points, 1)
    thresholds = region_thresholds(mu_sigma)
    a, b = _unit_square(points)
    labels = _region_labels(a + b, thresholds)
    return list(zip(a.ravel().tolist(), b.ravel().tolist(), labels.ravel().tolist()))


def condition_grid(t: float, points: int = 200):
    """(a, b, PSD shrinkage, strict condition) rows over the unit square,
    evaluated in one array pass."""
    check_integer("grid point count", points, 1)
    _check_noise_ratio(t)
    a, b = _unit_square(points)
    _, _, _, psd, _, _, strict = _noise_conditions(a, b, t)
    return list(zip(a.ravel().tolist(), b.ravel().tolist(),
                    psd.ravel().tolist(), strict.ravel().tolist()))
