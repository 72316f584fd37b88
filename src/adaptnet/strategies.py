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
one definition of a strategy, and every reader multiplies by A only where
the table puts A: ``GroupedStep`` steps the simulator with it, and
``slot_masks`` hands its rows to ``spectra`` for B and Y and to
``msdtheory`` for the mode grids.  Every formula reads the previous
iteration's estimates only.  The simulator's (S, T, N, M) estimate tensor
stacks S strategies and T independent networks (trials) sharing step sizes
and weights.
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


# the table above: which of (A1, A0, A2) is A rather than I
_USES_A = {
    StrategyKind.NON_COOPERATIVE: (False, False, False),
    StrategyKind.CONSENSUS: (False, True, False),
    StrategyKind.ATC: (False, False, True),
    StrategyKind.CTA: (True, False, False),
}

# a strategy is cooperative exactly when its row puts A in some slot
COOPERATIVE = tuple(kind for kind, row in _USES_A.items() if any(row))


def uses_a(kind) -> tuple:
    """Which of (A1, A0, A2) is A rather than I for strategy ``kind``."""
    try:
        return _USES_A[kind]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown strategy {kind!r}") from None


def slot_masks(kinds) -> np.ndarray:
    """(3, S) booleans of the listed strategies' table rows: entry [j, s] is
    True where strategy s puts A in slot j of (A1, A0, A2)."""
    return np.array([uses_a(k) for k in kinds], dtype=bool).reshape(-1, 3).T


# the order the grouped step lays strategies out in, by the slot that holds
# A: none, A2, A0, A1, so the A0 and A1 strategies are one contiguous slice
_GROUP_RANK = {(False, False, False): 0, (False, False, True): 1,
               (False, True, False): 2, (True, False, False): 3}


def slot_order(kinds) -> tuple:
    """The listed strategies ordered by the slot that holds A: none, A2, A0,
    A1."""
    return tuple(sorted(kinds, key=lambda k: _GROUP_RANK[uses_a(k)]))


class GroupedStep:
    """The recursion above for several strategies and a batch of trials: it
    owns the (S, T, N, M) tensor ``estimates``, its rows in ``slot_order``,
    zero at first, and each call advances it in place.

    An I slot multiplies nothing: I x = x exactly for finite x, and a slab
    turns non-finite only long after it crossed the harness's divergence
    threshold, from which its curve is masked.  Each slot's strategies are
    one contiguous slice, so an iteration makes two products by A^T, each
    one call of the same per-slab (N, N) @ (N, M) BLAS products: one before
    adaptation over the A0 and A1 slice (CTA's combined estimate, and the
    combination consensus adds to its update) and one after it over the A2
    slice (ATC's combination).  Every buffer and slice is made once, here;
    ``scratch`` is an (S, T, N, M) buffer free between calls."""

    def __init__(self, kinds, weights, mu, trials: int, dim: int):
        self.kinds = slot_order(kinds)
        ranks = [_GROUP_RANK[uses_a(k)] for k in self.kinds]
        s, n = len(ranks), len(mu)
        # where the A2, A0 and A1 groups start
        a2, a0, a1 = (sum(r < rank for r in ranks) for rank in (1, 2, 3))
        # the transposed view of a C-contiguous A, as spectra multiplies it
        self._at = None if a2 == s else np.ascontiguousarray(weights, dtype=float).T
        self._mu = mu
        self._combine_first, self._combine_last = a0 < s, a2 < a0
        w = self.estimates = np.zeros((s, trials, n, dim))
        gu = self.scratch = np.empty_like(w)
        err = self._err = np.empty((s, trials, n))
        comb = self._comb = np.empty((s - a0, trials, n, dim))
        # W and g u before the A0 slice, then from it; CTA's rows of W and of
        # the product; ATC's rows of W and of g u; the error as a column
        self._views = (w[:a0], gu[:a0], w[a0:], gu[a0:], w[a1:], comb[a1 - a0:],
                       w[a2:a0], gu[a2:a0], err[..., None])

    def __call__(self, u, d):
        """Advance ``estimates`` one iteration on the snapshot u (T, N, M),
        d (T, N)."""
        w_lo, gu_lo, w_pre, gu_pre, w_a1, comb_a1, w_a2, gu_a2, err_col = self._views
        comb, err = self._comb, self._err
        if self._combine_first:
            np.matmul(self._at, w_pre, out=comb)
            # CTA adapts at its combined estimate phi
            np.copyto(w_a1, comb_a1)
        np.einsum("...km,...km->...k", u, self.estimates, out=err)
        np.subtract(d, err, out=err)
        np.multiply(err, self._mu, out=err)
        # g u as u scaled by the error column: a product commutes, so this is
        # (mu e) u bit for bit, and the copy runs as a few long loops
        np.copyto(self.scratch, u)
        np.multiply(self.scratch, err_col, out=self.scratch)
        np.add(w_lo, gu_lo, out=w_lo)
        # CTA's phi + mu e u, consensus's A^T w + mu e u
        np.add(comb, gu_pre, out=w_pre)
        if self._combine_last:
            np.matmul(self._at, w_a2, out=gu_a2)
            np.copyto(w_a2, gu_a2)
