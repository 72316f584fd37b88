"""The four estimation strategies: one table and one recursion.

All four are one recursion with three combination matrices A1, A0 and A2,
acting on the stacked estimate matrix W (row k holds node k's estimate) and
one data snapshot; each strategy sets at most one of them to the network's
left-stochastic matrix A and the others to I:

    phi_k = sum_l a1_{l,k} w_l
    psi_k = sum_l a0_{l,k} phi_l + mu_k u_k^T (d_k - u_k phi_k)
    w_k  <- sum_l a2_{l,k} psi_l

    strategy          A1   A0   A2
    non-cooperative   I    I    I
    consensus         I    A    I
    ATC diffusion     I    I    A
    CTA diffusion     A    I    I

Consensus combines in A0, beside the adaptation, so its error signal uses
the node's own previous iterate, not the combined one; that single
difference drives all the stability gaps studied here.  The table is the
one definition of a strategy: the simulator stacks its matrices, and the
theory (``spectra``, ``msdtheory``) builds B, Y and the mode grids from it.
Every formula reads the previous iteration's estimates only.  Leading axes
of W, u and d are a batch of independent networks (trials) sharing step
sizes and weights; a leading strategy axis on the matrices advances several
strategies at once.
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

# the table above: which of (A1, A0, A2) is A rather than I
_USES_A = {
    StrategyKind.NON_COOPERATIVE: (False, False, False),
    StrategyKind.CONSENSUS: (False, True, False),
    StrategyKind.ATC: (False, False, True),
    StrategyKind.CTA: (True, False, False),
}


def uses_a(kind) -> tuple:
    """Which of (A1, A0, A2) is A rather than I for strategy ``kind``."""
    try:
        return _USES_A[kind]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown strategy {kind!r}") from None


def combination_stack(kinds, weights, n: int):
    """Transposed (A1, A0, A2) of the listed strategies, each of shape
    (S, N, N): the (N, N) array ``weights`` = A where the table puts A, the
    identity where it puts I."""
    uses = [uses_a(k) for k in kinds]
    eye = np.eye(n)
    # transposed views, not copies: matmul then reads A exactly as it reads A.T
    return tuple(np.stack([weights if u[slot] else eye for u in uses])
                 .swapaxes(-1, -2) for slot in range(3))


def recursion_step(W, u, d, mu, a1t, a0t, a2t):
    """One iteration of the general recursion, given the transposed
    combination matrices; their leading axes broadcast against W's."""
    phi = a1t @ W
    err = d - np.einsum("...km,...km->...k", u, phi)
    return a2t @ (a0t @ phi + (mu * err)[..., None] * u)
