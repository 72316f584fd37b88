"""Closed-form analytics for the two-node scalar network.

The combination matrix is parameterized by a, b in [0, 1]:

    A^T = [[1-a, a],
           [b, 1-b]]

so a is the weight node 1 places on node 2's estimate and vice versa.  With
scalar regressors the only free statistics are the products p_k =
mu_k sigma_{u,k}^2 and the noise ratio t = sigma_{v,1}^2 / sigma_{v,2}^2.

Everything here has an independent general-path counterpart in the spectra
and msdtheory modules; the two routes are cross-validated in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StabilityError
from .msdtheory import PSD_TOL
from .network import is_primitive

REGION_BOUNDARY_TOL = 1e-9


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
        if not (0.0 <= self.a <= 1.0 and 0.0 <= self.b <= 1.0):
            raise ConfigError(f"a, b must lie in [0, 1], got a={self.a}, b={self.b}")
        if not (0 < self.mu_sigma1 < np.inf and 0 < self.mu_sigma2 < np.inf):
            raise ConfigError("mu*sigma^2 products must be positive and finite, got "
                              f"{self.mu_sigma1}, {self.mu_sigma2}")
        if not 0 < self.t < np.inf:
            raise ConfigError(f"noise ratio must be positive and finite, got {self.t}")

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


def msd_region_classify(a: float, b: float, mu_sigma: float) -> str:
    """Classify (a, b) into the homogeneous MSD-ordering regions.

    Region I   (a+b below the first threshold):  consensus beats CTA and
               the non-cooperative baseline.
    Region II  (between thresholds): CTA <= consensus <= non-cooperative.
    Region III (above the second threshold): consensus is worse than the
               non-cooperative baseline.
    Points within ``REGION_BOUNDARY_TOL`` of a threshold are labeled "boundary"
    (the defining inequalities are non-strict on both sides there).
    """
    t1, t2, stability = region_thresholds(mu_sigma)
    s = a + b
    if s >= stability:
        raise StabilityError(
            f"consensus is unstable for a + b = {s:.6g} >= {stability:.6g}")
    if abs(s - t1) <= REGION_BOUNDARY_TOL or abs(s - t2) <= REGION_BOUNDARY_TOL:
        return "boundary"
    if s < t1:
        return "I"
    if s < t2:
        return "II"
    return "III"


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
    proportional_weights: bool
    b_within_range: bool
    strict_lhs: tuple
    strict_condition: bool
    primitive: bool


def individual_msd_conditions(a: float, b: float, t: float) -> TwoNodeConditionReport:
    if not 0 < t < np.inf:
        raise ConfigError(f"noise ratio must be positive and finite, got {t}")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ConfigError(f"a, b must lie in [0, 1], got a={a}, b={b}")
    at = np.array([[1.0 - a, a], [b, 1.0 - b]])
    sigma = np.diag([t, 1.0])
    shrink = sigma - at @ sigma @ at.T
    det = float(np.linalg.det(shrink))
    min_eig = float(np.linalg.eigvalsh(shrink)[0])
    lhs1 = (t - 1.0) * a + 2.0 * b * t
    lhs2 = 2.0 * a + (1.0 - t) * b
    return TwoNodeConditionReport(
        shrink_matrix=shrink,
        determinant=det,
        min_eigenvalue=min_eig,
        noise_shrink_psd=min_eig >= -PSD_TOL,
        proportional_weights=abs(a - t * b) <= PSD_TOL,
        b_within_range=b <= min(1.0, 1.0 / t) + PSD_TOL,
        strict_lhs=(lhs1, lhs2),
        strict_condition=lhs1 > 0 and lhs2 > 0,
        primitive=is_primitive(at.T),
    )


def _unit_grid(points: int) -> np.ndarray:
    if points < 1:
        raise ConfigError(f"grid needs a positive point count, got {points}")
    return np.linspace(0.0, 1.0, points)


def region_grid(mu_sigma: float, points: int = 200):
    """(a, b, label) rows over the unit square; unstable points labeled so."""
    vals = _unit_grid(points)
    rows = []
    for a in vals:
        for b in vals:
            try:
                label = msd_region_classify(float(a), float(b), mu_sigma)
            except StabilityError:
                label = "unstable"
            rows.append((float(a), float(b), label))
    return rows


def condition_grid(t: float, points: int = 200):
    """(a, b, PSD shrinkage, strict condition) rows over the unit square."""
    vals = _unit_grid(points)
    rows = []
    for a in vals:
        for b in vals:
            rep = individual_msd_conditions(float(a), float(b), t)
            rows.append((float(a), float(b), rep.noise_shrink_psd, rep.strict_condition))
    return rows
