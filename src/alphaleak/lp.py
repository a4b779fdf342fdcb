"""Dense primal simplex for the maximin mass-covering game, solved on the
coarsest equitable partition of the ball matrix, and for the feasibility
of A x = b, x >= 0; games whose balls are intervals are solved by greedy
piercing instead, and most small games by a greedy packing.

The hard-distortion PUT reduces to the matrix game

    q* = sup_Q inf_x Q(B(x)),        A[x, y] = 1(y in B(x)).

**Quotient.**  Colour refinement (1-dimensional Weisfeiler-Leman) on the
bipartite ball graph splits the inputs into classes R_i and the outputs
into classes C_j such that every x in R_i has the same count
N[i, j] = |B(x) ∩ C_j| and every y in C_j is reached by the same number of
inputs of R_i.  On such an equitable partition the LP may be solved on the
quotient and lifted back exactly (Grohe, Kersting, Mladenov & Selman,
"Dimension reduction via colour refinement", ESA 2014; orbit reduction,
as in the uniform-over-ball and type-class mechanisms, is a special case):
a Q uniform on each C_j gives (A Q)_x = sum_j N[i, j] Q(C_j) / |C_j|, the
same for all x in R_i.  Averaging any Q over its classes makes (A Q)_x the
mean of A Q over the class of x, which leaves min_x (A Q)_x no smaller, so
the quotient game has value q* too.  The LP is solved with integer counts
and per-element masses w_j = Q(y), y in C_j,

    max 1'v  s.t.  N'v <= |C|, v >= 0,

whose optimum is 1/q*; the constraint duals are the masses w, and the
lift is Q(y) = w_j / sum_j |C_j| w_j and mu(x) = v_i / (|R_i| 1'v).  With
every class a single point (N = A, |C| = 1) this is the standard
positive-value transform of the game; q* > 0 because every ball is
nonempty, and the slack basis is feasible, so no phase 1 is needed.

Refinement hashes each vertex's multiset of neighbour colours as a sum of
fixed random uint64 weights (wrapping arithmetic), one pass over the
nonzeros per round; path-like games (type distance) need about n/2
rounds.  A hash collision can only merge classes, so the partition it
ends with is checked for equitability exactly, from the class counts of
every vertex, and the full matrix is solved when the check fails or no
class has two members.  Games with fewer than `_REFINE_MIN` inputs or
outputs skip refinement.  Measured on random 0/1 games (one BLAS thread,
2-vCPU machine), refining costs 190-215 us at 4 x 4 and 8 x 8 against
70-110 us for the whole full-matrix solve, and 210 us at 16 x 16 against
260 us.

**Perfect privacy.**  When some output lies in every ball (an all-ones
column), q* = 1: Q uniform on those outputs gives every row mass 1, and
mu uniform on the inputs caps every column at 1.  That pair is returned,
with its certificate measured as below, before any refinement or
tableau.  The column test reads the 0/1 matrix as given: on a bool
1024 x 1024 mask it takes 54-69 us, against 550-590 us on the float copy
(one thread, 2-vCPU Xeon).

**Intervals.**  When every row of the ball matrix is one run of
consecutive columns (an interval matrix: type-distance specs, and any
spec on points of a line given in sorted order), the matrix is totally
unimodular (Hoffman & Kruskal 1956), and for intervals the least number
tau of points hitting every ball equals the most pairwise disjoint balls
(Gallai), so q* = 1/tau.  Greedy piercing finds both: walk the balls in
order of right end and, whenever a ball starts past the last point
picked, pick its right end.  Q uniform on the tau points gives every ball
mass >= 1/tau; mu uniform on the tau balls that triggered a pick, which
are pairwise disjoint, gives every output mass <= 1/tau, and each of
those balls holds exactly one point.  So the certificate measured below
has gap exactly 0.  The test reads the nonzeros once, in the given column
order, and shares them with refinement when it fails; recognising the
property under an unknown column order (PQ trees, Booth & Lueker 1976)
is not attempted.  Type (1023, 1) takes ~2 ms this way (one BLAS thread,
2-vCPU machine).  Below `_REFINE_MIN` it cost more than it saved (on
random 2-8-point games, 24 us on each miss, 40 us saved on the 1 in 5
hits), so small games take the packing pass instead.

**Packing.**  Small games pack their balls greedily, smallest first, and
take the lowest output of each of the k disjoint balls kept.  When those
outputs hit every ball, Q uniform on them gives every ball mass >= 1/k
and mu uniform on the k balls caps every output at 1/k: q* = 1/k, with
gap exactly 0 (Lovasz, Discrete Math. 1975).  Else (the balls
{i, i + 1 mod 5}, q* = 2/5) the tableau runs.  Balls are Python-int
bitmasks, exact at any width.  Of the 5326 `covering` reference specs
with no shared output 70% are answered, at ~7 us a hit or a miss,
against ~57 us for the tableau (one BLAS thread, 2-vCPU machine).

**Tableau.**  Most instances have under ten classes, so a dense tableau
beats a sparse solver's per-call set-up.  The column of most negative
reduced cost enters (Dantzig's rule); among rows tied in the ratio test,
the one with the largest pivot element leaves, and entries below
`_PIVOT_MIN` never pivot.  The Hamming LPs are highly degenerate, so
after `_DEGENERATE_RUN` degenerate pivots in a row both choices follow
Bland's smallest-index rule, which cannot cycle, until a pivot makes
progress.  Each pivot is one rank-1 update of the whole tableau.

**Certificate.**  The answer is certified from the lifted vectors on the
full matrix, not from the tableau or the quotient, so the reduction needs
no trust: v and w are clipped at 0, lifted, renormalized, and the gap
max_y (mu A)_y - min_x (A q)_x bounds how far min_x (A q)_x lies below q*.
A gap above `_REBUILD_GAP` means rounding has drifted the tableau; it is
then recomputed once from the final basis by one linear solve, and
pivoting resumes before the certificate is measured again.

**Feasibility.**  `feasible_point` decides A x = b, x >= 0 for b >= 0 on
the same tableau, pivot loop and rebuild rule: it is phase 1 in the slack
basis, max (1'A) x s.t. A x <= b, x >= 0, whose optimum reaches 1'b
exactly when the system is feasible.  Its certificate is the residual
||A x - b||_inf of the clipped x on the row-scaled system.
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
_REFINE_MIN = 16  # fewer inputs or outputs than this: solve the full matrix


class GameSolution(NamedTuple):
    value: float  # q* = sup_Q inf_x Q(B(x))
    q: np.ndarray  # optimal output distribution Q*
    mu: np.ndarray  # optimal input distribution (minimax certificate)
    gap: float  # max_y (mu A)_y - min_x (A q)_x: >= 0 up to rounding, ~0 at optimality


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
            raise ValidationError("unbounded LP: no constraint limits the entering column")
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _PIVOT_EPS * (1.0 + best)]
        i = int(ties[basis[ties].argmin()] if bland else ties[col[ties].argmax()])
        degenerate = degenerate + 1 if best <= _PIVOT_EPS else 0
        pivot_row = T[i] / T[i, j]
        T -= T[:, j, None] * pivot_row
        T[i] = pivot_row
        basis[i] = j


def _simplex(N: np.ndarray, sizes: np.ndarray | float, certify, objective: np.ndarray | float = 1.0):
    """Solve max c'v s.t. N'v <= sizes, v >= 0, with c = `objective` and
    sizes >= 0, and return `certify(v, w)` of v and the constraint duals w,
    both clipped at 0; the result's `gap` decides the rebuild."""
    n_in, n_out = N.shape
    # Constraint rows [N' I sizes]; the last row holds the reduced costs
    # c_B B^-1 [N' I sizes] - (c, 0, 0), at first -(c, 0, 0).
    T = np.zeros((n_out + 1, n_in + n_out + 1))
    T[:-1, :n_in] = N.T
    T[:-1, n_in:-1].flat[:: n_out + 1] = 1.0
    T[:-1, -1], T[-1, :n_in] = sizes, -objective
    start = T.copy()
    basis = np.arange(n_in, n_in + n_out)
    for rebuilt in (False, True):
        _pivot_to_optimum(T, basis)
        v = np.zeros(n_in + n_out)
        v[basis] = T[:-1, -1]
        solution = certify(np.maximum(v[:n_in], 0.0), np.maximum(T[-1, n_in:-1], 0.0))
        if solution.gap <= _REBUILD_GAP or rebuilt:
            break
        T[:-1] = np.linalg.solve(start[:-1, basis], start[:-1])
        T[-1] = start[-1] - start[-1, basis] @ T[:-1]
    return solution


def _interval_cover(shape: tuple[int, int], xs: np.ndarray, ys: np.ndarray) -> tuple[list, list] | None:
    """Least piercing set of a 0/1 matrix whose every row is one run of
    consecutive columns, from its nonzeros (row-major, every row nonempty).

    Returns the columns picked and the rows whose balls triggered a pick,
    as many of each; None when some row is not a run."""
    counts = np.bincount(xs, minlength=shape[0])
    ends = np.cumsum(counts)
    first, last = ys[ends - counts], ys[ends - 1]
    if (last - first + 1 != counts).any():
        return None
    order = np.argsort(last, kind="stable")
    points, balls, reach = [], [], -1
    for x, lo, hi in zip(order.tolist(), first[order].tolist(), last[order].tolist()):
        if lo > reach:
            reach = hi
            points.append(hi)
            balls.append(x)
    return points, balls


def _packing_cover(mask: np.ndarray) -> tuple[list, list] | None:
    """Greedy packing of the rows of a 0/1 matrix, smallest first: the
    lowest column of each packed row and the packed rows when those
    columns hit every row, else None."""
    packed = np.packbits(mask.astype(bool, copy=False), axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    rows = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    kept, union = [], 0
    for row in sorted(rows, key=int.bit_count):
        if not row & union:
            kept.append(row)
            union |= row
    hit = sum(row & -row for row in kept)  # their lowest columns: disjoint bits
    if not all(row & hit for row in rows):
        return None
    return [(row & -row).bit_length() - 1 for row in kept], [rows.index(row) for row in kept]


def _equitable_partition(
    shape: tuple[int, int], xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Colour refinement of the bipartite graph of a 0/1 matrix of the
    given shape, from its nonzeros (xs, ys) in row-major order.

    Returns the class of every row and every column and the count matrix
    N[i, j] = |{y in C_j : A[x, y] = 1}| of any x in R_i, after checking
    exactly that every row and every column agrees with its class; None
    when that check fails or every class is a single point.
    """
    n_in, n_out = shape
    xs_by_col = xs[np.argsort(ys, kind="stable")]
    own, nbr = np.random.default_rng(0).integers(
        0, np.iinfo(np.uint64).max, size=(2, max(n_in, n_out)), dtype=np.uint64, endpoint=True
    )

    def recolourer(degrees):
        # New colour: the own colour and the neighbours' colours, hashed
        # as own[colour] + sum of nbr[neighbour colour] (wrapping uint64).
        nonempty = degrees > 0
        starts = (np.cumsum(degrees) - degrees)[nonempty]

        def recolour(colour, neighbours):
            key = own[colour]
            key[nonempty] += np.add.reduceat(nbr[neighbours], starts)
            return np.unique(key, return_inverse=True)[1]

        return recolour

    recolour_rows = recolourer(np.bincount(xs, minlength=n_in))
    recolour_cols = recolourer(np.bincount(ys, minlength=n_out))
    rows, cols = np.zeros(n_in, np.intp), np.zeros(n_out, np.intp)
    counts = (1, 1)
    while True:
        rows = recolour_rows(rows, cols[ys])
        cols = recolour_cols(cols, rows[xs_by_col])
        new = (int(rows.max()) + 1, int(cols.max()) + 1)
        if new == counts:
            break
        counts = new
    a, b = counts
    if (a, b) == (n_in, n_out):
        return None
    row_counts = np.bincount(xs * b + cols[ys], minlength=n_in * b).reshape(n_in, b)
    col_counts = np.bincount(ys * a + rows[xs], minlength=n_out * a).reshape(n_out, a)
    row_rep, col_rep = np.empty(a, np.intp), np.empty(b, np.intp)
    row_rep[rows], col_rep[cols] = np.arange(n_in), np.arange(n_out)
    N = row_counts[row_rep]
    if (row_counts != N[rows]).any() or (col_counts != col_counts[col_rep][cols]).any():
        return None
    return rows, cols, N.astype(float)


def covering_game(ball_matrix: np.ndarray) -> GameSolution:
    """Solve q* = sup_Q inf_x sum_y ball_matrix[x, y] Q(y) for a 0/1
    matrix whose every row has at least one 1.

    When some columns are all ones, q* = 1 and the answer is Q uniform on
    them and mu uniform on the rows, with no LP.  From `_REFINE_MIN`
    inputs and outputs on, a matrix whose every row is one run of
    consecutive columns is solved by greedy piercing: Q uniform on the
    points picked, mu uniform on the balls that picked them, q* = 1/tau;
    below it, a greedy packing of k disjoint rows whose lowest columns hit
    every row does the same with q* = 1/k.  Else the LP is solved on the
    coarsest equitable partition (skipped below `_REFINE_MIN` inputs or
    outputs), lifted uniformly.  Every gap is measured on the full matrix.
    """
    mask = np.asarray(ball_matrix)  # 0/1 input as given: no float pass
    shared = mask.all(axis=0)
    A = np.asarray(ball_matrix, dtype=float)

    def certified(mu, q):
        primal_value = float((A @ q).min())
        return GameSolution(primal_value, q, mu, float((mu @ A).max()) - primal_value)

    if shared.any():
        return certified(np.full(A.shape[0], 1.0 / A.shape[0]), shared / np.count_nonzero(shared))
    small = min(A.shape) < _REFINE_MIN
    # row-major like np.nonzero, which takes 2-9x longer on these masks
    nonzeros = None if small else (A.shape, *np.divmod(np.flatnonzero(mask), A.shape[1]))
    cover = _packing_cover(mask) if small else _interval_cover(*nonzeros)
    if cover is not None:
        points, balls = cover
        q, mu = np.zeros(A.shape[1]), np.zeros(A.shape[0])
        q[points], mu[balls] = 1.0 / len(points), 1.0 / len(balls)
        return certified(mu, q)
    classes = None if small else _equitable_partition(*nonzeros)
    if classes is None:
        N, sizes, lift = A, 1.0, lambda v, w: (v, w)
    else:
        rows, cols, N = classes
        sizes, row_sizes = np.bincount(cols).astype(float), np.bincount(rows)
        lift = lambda v, w: ((v / row_sizes)[rows], w[cols])

    def certify(v, w):
        mu, q = lift(v, w)
        return certified(mu / mu.sum(), q / q.sum())

    return _simplex(N, sizes, certify)


class FeasiblePoint(NamedTuple):
    x: np.ndarray  # x >= 0
    gap: float  # ||A x - b||_inf on the row-scaled system


def feasible_point(A: np.ndarray, b: np.ndarray) -> FeasiblePoint:
    """Phase 1 for A x = b, x >= 0 with b >= 0: max (1'A) x s.t. A x <= b,
    x >= 0, from the slack basis.  The system is feasible exactly when the
    optimum reaches 1'b, i.e. the returned `gap` is 0 up to rounding.

    Rows are first scaled to unit max |entry| (all-zero rows by 1), so
    `_PIVOT_MIN` means the same on every row."""
    scale = np.abs(A).max(axis=1)
    scale[scale == 0.0] = 1.0
    A, b = A / scale[:, None], b / scale
    return _simplex(A.T, b, lambda x, _: FeasiblePoint(x, float(np.abs(A @ x - b).max())), A.sum(axis=0))
