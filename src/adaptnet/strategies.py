"""Per-iteration updates for the four estimation strategies.

All four act on the stacked estimate matrix W (row k holds node k's current
estimate) and a single data snapshot; any leading axes of W, u and d are a
batch of independent networks (trials) sharing step sizes and weights:

    non-cooperative   w_k <- w_k + mu_k u_k^T (d_k - u_k w_k)
    consensus         w_k <- sum_l a_{l,k} w_l + mu_k u_k^T (d_k - u_k w_k)
    ATC diffusion     psi_k = w_k + mu_k u_k^T (d_k - u_k w_k);  w_k <- sum_l a_{l,k} psi_l
    CTA diffusion     psi_k = sum_l a_{l,k} w_l;  w_k <- psi_k + mu_k u_k^T (d_k - psi_k via u_k)

The consensus error signal uses the node's own previous iterate, not the
combined one; that single difference drives all the stability gaps studied
here.  Updates are synchronous and double-buffered: every formula reads the
previous iteration's estimates only.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigError


class StrategyKind(Enum):
    NON_COOPERATIVE = "non_cooperative"
    CONSENSUS = "consensus"
    ATC = "atc"
    CTA = "cta"

    @classmethod
    def from_name(cls, name: str) -> "StrategyKind":
        key = name.strip().lower()
        for kind in cls:
            if kind.value == key:
                return kind
        raise ConfigError(f"unknown strategy {name!r}; choose from "
                          f"{[k.value for k in cls]}")


COOPERATIVE = (StrategyKind.CONSENSUS, StrategyKind.ATC, StrategyKind.CTA)


def _errors(weights_matrix, u, d):
    # d_k - u_k w_k for every node at once
    return d - np.einsum("...km,...km->...k", u, weights_matrix)


def adapt(W, u, d, mu, reference=None):
    """LMS adaptation of every row of W; the error signal is evaluated at
    ``reference`` (defaults to W itself)."""
    ref = W if reference is None else reference
    err = _errors(ref, u, d)
    return W + (mu * err)[..., None] * u


def combine(W, weights):
    """Neighborhood averaging: row k of the result is sum_l a_{l,k} W[l]."""
    return weights.T @ W


def noncooperative_update(W, u, d, mu):
    return adapt(W, u, d, mu)


def consensus_update(W, u, d, mu, weights):
    # combination of the neighbors' previous iterates, error at own previous iterate
    return adapt(combine(W, weights), u, d, mu, reference=W)


def atc_update(W, u, d, mu, weights):
    return combine(adapt(W, u, d, mu), weights)


def cta_update(W, u, d, mu, weights):
    psi = combine(W, weights)
    return adapt(psi, u, d, mu)


_UPDATES = {
    StrategyKind.NON_COOPERATIVE: lambda W, u, d, mu, weights: noncooperative_update(W, u, d, mu),
    StrategyKind.CONSENSUS: consensus_update,
    StrategyKind.ATC: atc_update,
    StrategyKind.CTA: cta_update,
}


def update(kind: StrategyKind, W, u, d, mu, weights=None):
    """Array-level dispatcher; cooperative strategies need the weight matrix."""
    if kind in COOPERATIVE and weights is None:
        raise ConfigError(f"{kind.value} needs a combination matrix")
    return _UPDATES[kind](W, u, d, mu, weights)

