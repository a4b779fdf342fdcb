"""Dense primal simplex for the maximin mass-covering game.

The hard-distortion PUT reduces to the matrix game

    q* = sup_Q inf_x Q(B(x)),

a linear program over the output simplex, solved through the standard
positive-value transform: q* > 0 because every ball is nonempty, so

    max 1'v  s.t.  A'v <= 1, v >= 0        (A[x, y] = 1(y in B(x)))

has optimum 1/q*; v/1'v is the optimal mu and the constraint duals u
give Q* = u/1'u.  The slack basis is feasible, so no phase 1 is needed.

Most instances have under ten outputs, so a dense tableau beats a sparse
solver's per-call set-up.  The column of most negative reduced cost
enters (Dantzig's rule); among rows tied in the ratio test, the one with
the largest pivot element leaves, and entries below `_PIVOT_MIN` never
pivot.  The Hamming LPs are highly degenerate, so after `_DEGENERATE_RUN`
degenerate pivots in a row both choices follow Bland's smallest-index
rule, which cannot cycle, until a pivot makes progress.  Each pivot is
one rank-1 update of the whole tableau.

The answer is certified from the returned vectors, not from the tableau:
q and mu are clipped at 0 and renormalized, and the gap
max_y (mu A)_y - min_x (A q)_x bounds how far min_x (A q)_x lies below
q*.  A gap above `_REBUILD_GAP` means rounding has drifted the tableau;
it is then recomputed once from the final basis by one linear solve, and
pivoting resumes before the certificate is measured again.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError

_PIVOT_EPS = 1e-11
# Smaller column entries are taken for rounding residue of zeros: on
# 100-point games, pivoting on one (seen at 6e-11 to 6e-9) wrecks the tableau.
_PIVOT_MIN = 1e-7
_DEGENERATE_RUN = 50
_REBUILD_GAP = 1e-13


class GameSolution(NamedTuple):
    value: float  # q* = sup_Q inf_x Q(B(x))
    q: np.ndarray  # optimal output distribution Q*
    mu: np.ndarray  # optimal input distribution (minimax certificate)
    gap: float  # max_y (mu A)_y - min_x (A q)_x, >= 0, ~0 at optimality


def _pivot_to_optimum(T: np.ndarray, basis: np.ndarray) -> None:
    """Pivot the tableau T (constraint rows, then the reduced-cost row;
    the last column is the right-hand side) in place until no reduced
    cost is negative."""
    degenerate = 0
    while True:
        reduced = T[-1, :-1]
        bland = degenerate >= _DEGENERATE_RUN
        # Bland: the first negative reduced cost (argmax of a boolean array).
        j = int(np.argmax(reduced < -_PIVOT_EPS) if bland else reduced.argmin())
        if reduced[j] >= -_PIVOT_EPS:
            return
        col = T[:-1, j]
        rows = (col > _PIVOT_MIN).nonzero()[0]
        if rows.size == 0:
            raise ValidationError("every row of the ball matrix needs a 1")
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _PIVOT_EPS * (1.0 + best)]
        i = int(ties[basis[ties].argmin()] if bland else ties[col[ties].argmax()])
        degenerate = degenerate + 1 if best <= _PIVOT_EPS else 0
        pivot_row = T[i] / T[i, j]
        T -= T[:, j, None] * pivot_row
        T[i] = pivot_row
        basis[i] = j


def covering_game(ball_matrix: np.ndarray) -> GameSolution:
    """Solve q* = sup_Q inf_x sum_y ball_matrix[x, y] Q(y) for a 0/1
    matrix whose every row has at least one 1."""
    A = np.asarray(ball_matrix, dtype=float)
    n_in, n_out = A.shape
    # Constraint rows [A' I 1]; the last row holds the reduced costs
    # c_B B^-1 [A' I 1] - c of the objective c = (1, 0, 0), at first -c.
    T = np.zeros((n_out + 1, n_in + n_out + 1))
    T[:-1, :n_in] = A.T
    T[:-1, n_in:] = np.eye(n_out, n_out + 1)
    T[:-1, -1], T[-1, :n_in] = 1.0, -1.0
    start = T.copy()
    basis = np.arange(n_in, n_in + n_out)
    for rebuilt in (False, True):
        _pivot_to_optimum(T, basis)
        v = np.zeros(n_in + n_out)
        v[basis] = T[:-1, -1]
        mu, q = np.maximum(v[:n_in], 0.0), np.maximum(T[-1, n_in:-1], 0.0)
        mu, q = mu / mu.sum(), q / q.sum()
        primal_value = float((A @ q).min())
        gap = float((mu @ A).max()) - primal_value
        if gap <= _REBUILD_GAP or rebuilt:
            break
        T[:-1] = np.linalg.solve(start[:-1, basis], start[:-1])
        T[-1] = start[-1] - start[-1, basis] @ T[:-1]
    return GameSolution(primal_value, q, mu, gap)
