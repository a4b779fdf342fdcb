"""Hard-distortion privacy-utility tradeoffs.

The utility constraint d(X, Y) <= D with probability one confines each
input's output to its distortion ball B_D(x) = {y : d(x, y) <= D}.  Under
any maximal f-leakage the optimal tradeoff reduces to the maximin mass

    q* = sup_Q inf_x Q(B_D(x)),

solved exactly as a linear program (`lp.covering_game`), with the optimal
mechanism distributing Q* restricted to each ball:

    P*(y | x) = 1(d(x, y) <= D) Q*(y) / Q*(B_D(x)).

The LP runs on the coarsest equitable partition of the ball matrix, so
symmetric specs shrink to a few classes: a Hamming spec of 16 datasets or
more collapses to one input and one output class, and Q* comes back
uniform (the uniform-over-ball mechanism), while a type-distance spec
halves under its reflection.  The duality gap is measured on the full
ball matrix.  The hard solves build that matrix once from
`DistortionSpec.ball_mask` and use it for the LP and the mechanism;
`q_star` and `optimal_mechanism` also take per-input index tuples.

For maximal alpha-leakage with alpha > 1 the value is -log q*, so the
optimal mechanism and tradeoff do not depend on alpha.  Distribution-aware
variants (f-leakage, alpha = 1) instead minimize a convex expectation over
the output simplex; the average-Hamming binary program and the
sensitive-attribute lower bound complete the module.

Ball membership uses the inclusive comparison d <= D on the caller's
values with no epsilon: the combinatorics of the dataset constructions
depend on exact membership.

Only the tightness check of `sensitive_lower_bound` needs scipy (HiGHS
`linprog`); it imports it on first use, so importing `put` loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, IncompatibleGeneratorError, ValidationError
from .leakage import _minimize_on_simplex, _relative_certificate, binary_maximal_alpha_leakage
from .lp import covering_game
from .measures import FGenerator, kl_generator
from .prob import Alphabet, Channel, Dist, Joint, as_order


@dataclass(frozen=True, eq=False)
class DistortionSpec:
    """Distortion matrix d(x, y) with a hard bound D.

    Construction validates that every input has a nonempty ball; a spec
    with an empty ball admits no mechanism at all, and the error names the
    offending input.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    d: np.ndarray
    bound: float

    def __init__(self, input_alphabet, output_alphabet, d, bound):
        d = np.asarray(d, dtype=float)
        if d.shape != (len(input_alphabet), len(output_alphabet)):
            raise ValidationError(
                f"distortion shape {d.shape} incompatible with alphabets "
                f"({len(input_alphabet)}, {len(output_alphabet)})"
            )
        if not np.all(np.isfinite(d)) or np.any(d < 0):
            raise ValidationError("distortion values must be finite and nonnegative")
        bound = float(bound)
        if not math.isfinite(bound):
            raise ValidationError("distortion bound must be finite")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "input_alphabet", input_alphabet)
        object.__setattr__(self, "output_alphabet", output_alphabet)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "bound", bound)
        empty = np.flatnonzero((d <= bound).sum(axis=1) == 0)
        if empty.size:
            raise ValidationError(
                f"input {input_alphabet.labels[empty[0]]!r} has an empty distortion ball "
                f"(no output within {bound})"
            )

    @property
    def ball_mask(self) -> np.ndarray:
        return self.d <= self.bound

    @staticmethod
    def from_json(obj: dict) -> "DistortionSpec":
        return DistortionSpec(Alphabet(obj["input"]), Alphabet(obj["output"]), obj["d"], obj["D"])

    def to_json(self) -> dict:
        return {
            "input": list(self.input_alphabet.labels),
            "output": list(self.output_alphabet.labels),
            "d": [[float(v) for v in row] for row in self.d],
            "D": self.bound,
        }


def distortion_balls(spec: DistortionSpec) -> list[tuple[int, ...]]:
    """Per-input feasible output index sets, membership exact on d <= D."""
    return [tuple(np.flatnonzero(row)) for row in spec.ball_mask]


def _ball_matrix(balls: Sequence[Sequence[int]], n_outputs: int) -> np.ndarray:
    A = np.zeros((len(balls), n_outputs))
    for x, ball in enumerate(balls):
        if len(ball) == 0:
            raise ValidationError(f"input index {x} has an empty ball")
        idx = np.asarray(ball, dtype=int)
        if idx.min() < 0 or idx.max() >= n_outputs:
            raise ValidationError(f"ball of input index {x} references an invalid output")
        A[x, idx] = 1.0
    return A


class QStarSolution(NamedTuple):
    q: float
    primal: np.ndarray  # optimal Q* over outputs
    dual: np.ndarray  # minimax certificate distribution over inputs
    gap: float


def q_star(balls: Sequence[Sequence[int]], n_outputs: int, tol: float = 1e-10) -> QStarSolution:
    """Solve q* = sup_Q inf_x Q(B(x)) by the dense simplex.

    The dual distribution mu certifies optimality: its game value
    max_y sum_x mu(x) 1(y in B(x)) upper-bounds q*, and `gap` is the
    difference of the two game values.  A gap above `tol` raises.
    """
    return _certified_game(_ball_matrix(balls, n_outputs), tol)


def _certified_game(A: np.ndarray, tol: float = 1e-10) -> QStarSolution:
    """`q_star` on the 0/1 ball matrix (or ball mask) A[x, y] = 1(y in B(x))."""
    game = covering_game(A)
    if game.gap > tol:
        raise ConvergenceError(
            f"LP duality gap {game.gap:.3e} above tolerance {tol:.3e}", residual=game.gap
        )
    return QStarSolution(game.value, game.q, game.mu, game.gap)


def optimal_mechanism(
    target: Dist, balls: Sequence[Sequence[int]], input_alphabet: Alphabet | None = None
) -> Channel:
    """Mechanism distributing `target` restricted to each input's ball.

    Row x is target / target(B(x)) inside the ball and exactly zero
    outside, so the hard-distortion constraint holds with probability one.
    """
    if input_alphabet is None:
        input_alphabet = Alphabet.of_size(len(balls))
    return _restricted_mechanism(target, _ball_matrix(balls, len(target)), input_alphabet)


def _restricted_mechanism(target: Dist, A: np.ndarray, input_alphabet: Alphabet) -> Channel:
    """`optimal_mechanism` on the 0/1 ball matrix A[x, y] = 1(y in B(x))."""
    masses = A @ target.p
    zero = np.flatnonzero(masses <= 0.0)
    if zero.size:
        raise ValidationError(
            f"target distribution puts no mass on the ball of input "
            f"{input_alphabet.labels[zero[0]]!r}"
        )
    rows = A * target.p[None, :] / masses[:, None]
    return Channel(input_alphabet, target.alphabet, rows)


@dataclass(frozen=True, eq=False)
class PutSolution:
    """Optimal mechanism with its certificates for a hard-distortion PUT."""

    mechanism: Channel
    q_star: float
    target_output: Dist
    value: float  # leakage, nats
    dual_certificate: Dist | None
    duality_gap: float

    def to_json(self) -> dict:
        return {
            "q_star": self.q_star,
            "value_nats": self.value,
            "value_bits": self.value / math.log(2.0),
            "Q_star": [float(v) for v in self.target_output.p],
            "mechanism": [[float(v) for v in row] for row in self.mechanism.rows],
            "duality_gap": self.duality_gap,
        }


def _require_compatible(gen: FGenerator) -> None:
    if math.isinf(gen.f_at_zero):
        raise IncompatibleGeneratorError(
            f"generator {gen.label!r} has f(0) = +inf: a hard distortion constraint forces "
            "zero mechanism entries, which this leakage measure cannot support"
        )


def _hard_put(spec: DistortionSpec, tol: float, value_of_q) -> tuple[float, PutSolution]:
    """Solve q* on the spec's ball matrix, built once for both the LP and
    the ball-restricted mechanism, and value it by `value_of_q(q*)`."""
    A = spec.ball_mask.astype(float)
    sol = _certified_game(A, tol)
    target = Dist(spec.output_alphabet, sol.primal)
    solution = PutSolution(
        mechanism=_restricted_mechanism(target, A, spec.input_alphabet),
        q_star=sol.q,
        target_output=target,
        value=value_of_q(sol.q),
        dual_certificate=Dist(spec.input_alphabet, sol.dual),
        duality_gap=sol.gap,
    )
    return solution.value, solution


def put_max_f_leakage(
    spec: DistortionSpec, gen: FGenerator, tol: float = 1e-10
) -> tuple[float, PutSolution]:
    """Minimal maximal f-leakage under the hard-distortion constraint:
    q* f(1/q*) + (1 - q*) f(0), with the ball-restricted mechanism built
    on the q* maximizer."""
    _require_compatible(gen)
    return _hard_put(spec, tol, lambda q: float(q * gen.f(1.0 / q) + (1.0 - q) * gen.f_at_zero))


def _solve_aware(prior: Dist, spec: DistortionSpec, A, gen: FGenerator, tol, max_iter=50_000):
    """Minimize the aware-PUT objective F = f(0) + sum_x P_X(x) phi(m_x),
    phi(m) = m (f(1/m) - f(0)), of the ball masses m = A Q, with A the
    spec's 0/1 ball matrix (inputs of zero probability contribute nothing).
    Returns F, Q and the Frank-Wolfe gap certifying them."""
    if prior.alphabet != spec.input_alphabet:
        raise ValidationError("prior alphabet does not match the distortion input alphabet")
    live = prior.p > 0
    px, f0 = prior.p[live], gen.f_at_zero

    def value(masses):
        with np.errstate(over="ignore"):
            return float(f0 + px @ (masses * (gen.f(1.0 / masses) - f0)))

    def derivatives(masses):
        inv = 1.0 / masses
        return px * (gen.f(inv) - inv * gen.fprime(inv) - f0), px * gen.fsecond(inv) * inv**3

    q, val, gap, _ = _minimize_on_simplex(
        A[live], value, derivatives, _relative_certificate(tol), max_iter,
        "output-distribution descent did not reach tolerance: Frank-Wolfe gap",
    )
    return val, q, gap


def put_f_leakage(
    prior: Dist,
    spec: DistortionSpec,
    gen: FGenerator,
    tol: float = 1e-10,
    max_iter: int = 50_000,
) -> tuple[float, Dist]:
    """Distribution-aware PUT: minimize over output distributions Q the
    expectation f(0) + E[ Q(B_D(X)) (f(1/Q(B_D(X))) - f(0)) ].

    The objective F is convex in Q (a perspective composition) and is
    minimized by `leakage._minimize_on_simplex` (f'' in closed form for KL
    and Hellinger, by central differences for custom generators).  The
    returned Q is certified by its Frank-Wolfe gap
    <grad F(Q), Q> - min_y dF/dQ(y), an upper bound on value - optimum:

        value - optimum <= gap <= tol * max(1, |value|).

    When that certificate is not reached within `max_iter` iterations, or
    no step decreases F any more, ConvergenceError is raised with the gap
    reached as `residual` and the iterations taken as `iterations`.
    """
    _require_compatible(gen)
    val, q, _ = _solve_aware(prior, spec, spec.ball_mask.astype(float), gen, tol, max_iter)
    return val, Dist(spec.output_alphabet, q)


def put_max_alpha_leakage(
    spec: DistortionSpec,
    order,
    prior_for_one: Dist | None = None,
    tol: float = 1e-10,
) -> tuple[float, PutSolution]:
    """Minimal maximal alpha-leakage under hard distortion.

    For every alpha > 1 (including inf) the value is -log q* and the
    mechanism is the ball-restricted q* maximizer, independent of alpha.
    At alpha = 1 the program is the KL special case of `put_f_leakage`
    and needs the input distribution; the returned solution then carries
    the Frank-Wolfe gap measured at the returned output distribution in
    place of an LP duality gap.
    """
    order = as_order(order).require_at_least_one("put_max_alpha_leakage")
    if order.is_one:
        if prior_for_one is None:
            raise ValidationError("the alpha = 1 tradeoff needs an input distribution")
        A = spec.ball_mask.astype(float)
        value, q, gap = _solve_aware(prior_for_one, spec, A, kl_generator(), tol)
        masses = A @ q
        # Q serves the inputs of positive probability only; an input of zero
        # probability whose ball Q leaves empty releases uniformly on its ball.
        rows = np.where(masses[:, None] > 0.0, A * q, A)
        return value, PutSolution(
            mechanism=Channel(
                spec.input_alphabet, spec.output_alphabet, rows / rows.sum(axis=1, keepdims=True)
            ),
            q_star=float(masses[prior_for_one.p > 0].min()),
            target_output=Dist(spec.output_alphabet, q),
            value=value,
            dual_certificate=None,
            duality_gap=gap,
        )
    return _hard_put(spec, tol, lambda q: -math.log(q))


# --------------------------------------------------------------------------
# Sensitive-attribute lower bound


@dataclass(frozen=True, eq=False)
class SensitiveJoint:
    """Joint law of (sensitive S, observable X) plus the distortion spec
    constraining the release of X."""

    joint: Joint  # rows = S, cols = X
    spec: DistortionSpec  # on X x Y

    def __post_init__(self):
        if self.joint.col_alphabet != self.spec.input_alphabet:
            raise ValidationError(
                "the joint's observable alphabet must match the distortion input alphabet"
            )


def _feasible_sensitive_sets(sj: SensitiveJoint) -> np.ndarray:
    """Boolean matrix [s, y]: is s consistent with some feasible input of y."""
    reach = sj.spec.ball_mask.astype(float)  # [x, y]
    positive = (sj.joint.m > 0).astype(float)  # [s, x]
    return positive @ reach > 0


def sensitive_lower_bound(sj: SensitiveJoint, order) -> tuple[float, bool]:
    """Lower bound on the minimal alpha-leakage about S when a mechanism
    releases X within its distortion ball.

    The bound evaluates, for each (s, x), the largest total sensitive mass
    consistent with any feasible output of x; smaller consistent sets mean
    more exposure.  The boolean reports whether a mechanism meeting the
    two equalization conditions for tightness exists: a linear feasibility
    program over mechanisms supported on the per-input argmax outputs is
    solved, and True is returned only on feasibility (False asserts
    nothing about non-tightness).
    """
    order = as_order(order).require_at_least_one("sensitive_lower_bound")
    ps = sj.joint.m.sum(axis=1)  # P_S
    psx = sj.joint.m  # [s, x]
    ball = sj.spec.ball_mask  # [x, y]
    s_feasible = _feasible_sensitive_sets(sj).astype(float)  # [s, y]
    px = psx.sum(axis=0)
    # Inputs of zero probability contribute nothing but their per-input
    # maxima can be 0/0; mask them out of every branch.
    live_x = px > 0

    weights = ps if order.is_one or order.is_inf else ps**order.value
    n_y = weights @ s_feasible  # N(y) = sum_{s in S_D(y)} P(s), of P(s)^alpha for finite alpha
    m_x = np.array([n_y[ball[x]].max() for x in range(ball.shape[0])])
    m_safe = np.where(live_x, m_x, 1.0)
    if order.is_one:
        bound = float(-(px[live_x] @ np.log(m_safe[live_x])))
    elif order.is_inf:
        total = float(((ps[:, None] * psx) / m_safe[None, :]).sum())
        bound = math.log(total) - math.log(ps.max())
    else:
        a = order.value
        px_given_s = np.where(ps[:, None] > 0, psx / np.where(ps > 0, ps, 1.0)[:, None], 0.0)
        norm = float(weights.sum()) ** (1.0 / a)
        total = float((weights[:, None] * px_given_s * m_safe[None, :] ** ((1.0 - a) / a)).sum())
        bound = a / (a - 1.0) * math.log(total / norm)

    return bound, _tightness_feasible(sj)


def _tightness_feasible(sj: SensitiveJoint) -> bool:
    """Search for a mechanism meeting the equalization conditions.

    Condition (i) confines each (s, x) row to the outputs of B_D(x) whose
    consistent sensitive mass attains the per-input maximum; condition
    (ii) couples the rows through the induced output law.  Both are linear
    in the mechanism entries (the conditions do not involve alpha), so
    feasibility of the resulting system, with the output law eliminated by
    substitution, decides the check.
    """
    ps = sj.joint.m.sum(axis=1)
    psx = sj.joint.m
    ball = sj.spec.ball_mask
    s_feasible = _feasible_sensitive_sets(sj)
    n_y = ps @ s_feasible.astype(float)
    n_s, n_x = psx.shape
    n_out = ball.shape[1]

    # Argmax output sets per input (condition (i) support restriction).
    best: list[np.ndarray] = []
    for x in range(n_x):
        idx = np.flatnonzero(ball[x])
        top = n_y[idx].max()
        best.append(idx[n_y[idx] >= top - 1e-12 * max(1.0, top)])

    pairs = [(s, x) for s in range(n_s) for x in range(n_x) if psx[s, x] > 0]
    var_index: dict[tuple[int, int, int], int] = {}
    for s, x in pairs:
        for y in best[x]:
            var_index[(s, x, int(y))] = len(var_index)
    n_var = len(var_index)

    rows_eq: list[np.ndarray] = []
    rhs_eq: list[float] = []
    for s, x in pairs:  # row-stochasticity on the support
        row = np.zeros(n_var)
        for y in best[x]:
            row[var_index[(s, x, int(y))]] = 1.0
        rows_eq.append(row)
        rhs_eq.append(1.0)

    used_outputs = sorted({int(y) for x in range(n_x) for y in best[x]})
    for y in used_outputs:  # output-law coupling (condition (ii))
        marginal = np.zeros(n_var)
        for (s2, x2, y2), j in var_index.items():
            if y2 == y:
                marginal[j] = psx[s2, x2]
        for s in np.flatnonzero(s_feasible[:, y]):
            if ps[s] == 0:
                continue
            row = -marginal / n_y[y]
            for x in np.flatnonzero(ball[:, y]):
                j = var_index.get((s, x, y))
                if j is not None:
                    row[j] += psx[s, x] / ps[s]
            rows_eq.append(row)
            rhs_eq.append(0.0)

    if n_var == 0:
        return False
    from scipy.optimize import linprog  # on use: a top-level import loads scipy at every start-up

    res = linprog(
        c=np.zeros(n_var),
        A_eq=np.vstack(rows_eq),
        b_eq=np.array(rhs_eq),
        bounds=[(0.0, None)] * n_var,
        method="highs",
    )
    return bool(res.status == 0)


# --------------------------------------------------------------------------
# Average-Hamming binary tradeoff


class AvgHammingSolution(NamedTuple):
    rho1: float
    rho2: float
    value: float
    guess_prob: float


def _map_success(p: float, r1: float, r2: float) -> float:
    joint = np.array([[(1 - p) * (1 - r1), (1 - p) * r1], [p * r2, p * (1 - r2)]])
    return float(joint.max(axis=0).sum())


def avg_hamming_binary_put(
    p: float,
    D: float,
    alpha: float,
    grid: int = 401,
    refine_iters: int = 60,
) -> AvgHammingSolution:
    """Minimize the binary maximal alpha-leakage over crossover pairs
    (rho1, rho2) subject to the average Hamming distortion
    (1-p) rho1 + p rho2 <= D, for an input Bernoulli(p).

    Two-stage solve: a dense grid over the feasible triangle, then
    coordinate descent from the grid argmin with steps shrinking from the
    grid pitch.  The feasible region stays strictly inside the closed
    form's degenerate locus because D < min(p, 1-p).  Also reports the
    MAP success probability sum_y max_x P_XY(x, y) of the solution.
    """
    p, D, alpha = float(p), float(D), float(alpha)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0, 1), got {p}")
    if not 0.0 < D < 1.0 - max(p, 1.0 - p):
        raise ValidationError(f"D must lie in (0, {1.0 - max(p, 1.0 - p)}), got {D}")
    if not alpha > 1.0:
        raise ValidationError(f"alpha must exceed 1, got {alpha}")
    if grid < 2 or refine_iters < 0:
        raise ValidationError("grid must be >= 2 and refine_iters >= 0")

    r1_max = min(1.0, D / (1.0 - p))
    r2_max = min(1.0, D / p)
    r1 = np.linspace(0.0, r1_max, grid)
    r2 = np.linspace(0.0, r2_max, grid)
    R1, R2 = np.meshgrid(r1, r2, indexing="ij")
    feasible = (1.0 - p) * R1 + p * R2 <= D + 1e-12
    values = np.full_like(R1, np.inf)
    values[feasible] = binary_maximal_alpha_leakage(R1[feasible], R2[feasible], alpha)
    flat = int(np.argmin(values))
    best1, best2 = float(R1.ravel()[flat]), float(R2.ravel()[flat])
    best_val = float(values.ravel()[flat])

    def clamp(c1, c2):
        c1 = min(max(c1, 0.0), r1_max)
        c2 = min(max(c2, 0.0), r2_max)
        if (1.0 - p) * c1 + p * c2 > D:
            return None
        return c1, c2

    step1, step2 = r1_max / (grid - 1), r2_max / (grid - 1)
    for _ in range(refine_iters):
        moved = False
        for d1, d2 in ((step1, 0.0), (-step1, 0.0), (0.0, step2), (0.0, -step2)):
            cand = clamp(best1 + d1, best2 + d2)
            if cand is None:
                continue
            cand_val = binary_maximal_alpha_leakage(cand[0], cand[1], alpha)
            if cand_val < best_val:
                best1, best2, best_val = cand[0], cand[1], cand_val
                moved = True
        if not moved:
            step1 *= 0.5
            step2 *= 0.5
    return AvgHammingSolution(best1, best2, best_val, _map_success(p, best1, best2))
