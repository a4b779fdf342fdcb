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
uniform (the uniform-over-ball mechanism), type-distance specs are interval
games, solved by greedy piercing, and most small specs by greedy packing
(see `lp`).  The duality gap is measured on the full ball matrix.

**Perfect privacy.**  When some output lies in every ball, q* = 1: a
constant mechanism on such an output leaks nothing, and any Q supported
on those outputs is optimal (for maximal leakage, zero leakage means X
and Y independent).  `lp.covering_game` then returns Q uniform on them
without an LP.  The distribution-aware objective is smallest there too:
phi(m) = m f(1/m) + (1 - m) f(0) (`FGenerator.phi`) is convex with
phi'(1) = f(1) - f(0) - f'(1) <= 0 (f is convex), so on masses m <= 1 it
is least at m = 1, and a Q giving every live ball mass 1 attains the
minimum phi(1) = f(1).  The aware descent starts from Q uniform on the
outputs in every live ball, where its Frank-Wolfe gap is 0 up to
rounding, so it takes no iteration.

For maximal alpha-leakage with alpha > 1 the value is -log q*, so the
optimal mechanism and tradeoff do not depend on alpha.  Distribution-aware
variants (f-leakage, alpha = 1) instead minimize a convex expectation over
the output simplex.  The sensitive-attribute lower bound and the
average-Hamming binary program complete the module; the latter is solved
by a line search on its distortion boundary and, like the others, returns
a certified gap.

Ball membership uses the inclusive comparison d <= D on the caller's
values with no epsilon: the combinatorics of the dataset constructions
depend on exact membership.  Q*, mu and the mechanisms are built
nonnegative and divided by their sums, so they skip `prob`'s checks
(`_trusted`); a NaN from the LP gives a NaN gap, which `q_star` rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ValidationError
from .leakage import _minimize_on_simplex, _relative_certificate, binary_maximal_alpha_leakage
from .lp import GameSolution, covering_game, feasible_point
from .measures import FGenerator, _at_least_zero, _log_rows, kl_generator
from .prob import Alphabet, Channel, Dist, Joint, _nonnegative_array, _order, _tilted_log_mean


@dataclass(frozen=True, eq=False)
class DistortionSpec:
    """Distortion matrix d(x, y) with a hard bound D.

    Construction stores the read-only ball mask and checks that every
    ball is nonempty; a spec with an empty ball admits no mechanism at
    all, and the error names the offending input.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    d: np.ndarray
    bound: float

    def __init__(self, input_alphabet, output_alphabet, d, bound):
        d = _nonnegative_array(d, "distortion", input_alphabet, output_alphabet)
        try:
            bound = float(bound)
        except (TypeError, ValueError):
            raise ValidationError(f"distortion bound must be a number, got {bound!r}") from None
        if not math.isfinite(bound):
            raise ValidationError("distortion bound must be finite")
        object.__setattr__(self, "input_alphabet", input_alphabet)
        object.__setattr__(self, "output_alphabet", output_alphabet)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "_ball_mask", d <= bound)
        self._ball_mask.flags.writeable = False
        empty = np.flatnonzero(~self._ball_mask.any(axis=1))
        if empty.size:
            raise ValidationError(
                f"input {input_alphabet.labels[empty[0]]!r} has an empty distortion ball "
                f"(no output within {bound})"
            )

    @property
    def ball_mask(self) -> np.ndarray:
        return self._ball_mask


def q_star(spec: DistortionSpec, tol: float = 1e-10) -> GameSolution:
    """Solve q* = sup_Q inf_x Q(B_D(x)) on the spec's ball mask: the
    `lp.covering_game` solution, with q* as `value`, Q* as `q` and the
    minimax certificate over inputs as `mu`.  A duality `gap` that is not
    at most `tol` (NaN included) raises ConvergenceError."""
    game = covering_game(spec.ball_mask)
    if not game.gap <= tol:
        raise ConvergenceError(
            f"LP duality gap {game.gap:.3e} above tolerance {tol:.3e}", residual=game.gap
        )
    return game


def optimal_mechanism(target: Dist, spec: DistortionSpec) -> Channel:
    """Mechanism distributing `target`, a law on the spec's outputs,
    restricted to each input's ball: row x is target / target(B_D(x))
    inside the ball and exactly zero outside, so the hard-distortion
    constraint holds with probability one."""
    if target.alphabet != spec.output_alphabet:
        raise ValidationError("target distribution is not on the distortion output alphabet")
    A = spec.ball_mask
    masses = A @ target.p
    if not masses.min() > 0.0:
        x = int(np.argmin(masses > 0.0))
        raise ValidationError(
            f"target distribution puts no mass on the ball of input {spec.input_alphabet.labels[x]!r}"
        )
    rows = A * target.p
    rows /= masses[:, None]
    return Channel._trusted(spec.input_alphabet, spec.output_alphabet, rows)


@dataclass(frozen=True, eq=False)
class PutSolution:
    """Optimal mechanism with its certificates for a hard-distortion PUT."""

    mechanism: Channel
    q_star: float
    target_output: Dist
    value: float  # leakage, nats
    dual_certificate: Dist | None
    duality_gap: float


def put_max_f_leakage(spec: DistortionSpec, gen: FGenerator, tol: float = 1e-10) -> tuple[float, PutSolution]:
    """Minimal maximal f-leakage under the hard-distortion constraint:
    phi(q*) (`FGenerator.phi`; +0.0 where rounding leaves it at or below 0),
    with the ball-restricted mechanism built on the q* maximizer."""
    game = q_star(spec, tol)
    target = Dist._trusted(spec.output_alphabet, game.q)
    value = _at_least_zero(float(gen.phi(game.value)[0]))
    return value, PutSolution(
        mechanism=optimal_mechanism(target, spec),
        q_star=game.value,
        target_output=target,
        value=value,
        dual_certificate=Dist._trusted(spec.input_alphabet, game.mu),
        duality_gap=game.gap,
    )


def _solve_aware(prior: Dist, spec: DistortionSpec, mask, gen: FGenerator, tol, max_iter=50_000):
    """Minimize the aware-PUT objective F = sum_x P_X(x) phi(m_x)
    (`FGenerator.phi`) of the ball masses m = A Q, with A the spec's ball
    mask `mask` (inputs of zero probability contribute nothing).  The
    descent starts from Q uniform on the outputs in every live ball, if
    there are any (see the module docstring), else from the uniform Q.
    Returns F (+0.0 where rounding leaves it at or below 0), Q and the
    Frank-Wolfe gap certifying them."""
    if prior.alphabet != spec.input_alphabet:
        raise ValidationError("prior alphabet does not match the distortion input alphabet")
    live = prior.p > 0
    px, balls = prior.p[live], mask[live]
    shared = balls.all(axis=0)

    def evaluate(masses):
        phi, dphi, d2phi = gen.phi(masses)
        return float(px @ phi), px * dphi, px * d2phi

    q, _, val, gap, _ = _minimize_on_simplex(
        balls.astype(float), evaluate, _relative_certificate(tol), max_iter,
        "output-distribution descent did not reach tolerance: Frank-Wolfe gap",
        start=shared / np.count_nonzero(shared) if shared.any() else None,
    )
    return _at_least_zero(val), q, gap


def put_f_leakage(
    prior: Dist,
    spec: DistortionSpec,
    gen: FGenerator,
    tol: float = 1e-10,
    max_iter: int = 50_000,
) -> tuple[float, Dist]:
    """Distribution-aware PUT: minimize over output distributions Q the
    expectation F = E[ phi(Q(B_D(X))) ] (`FGenerator.phi`).

    F is convex in Q (a perspective composition) and is minimized by
    `leakage._minimize_on_simplex` (phi'' in closed form for KL and
    Hellinger, by central differences of f for custom generators).  The
    returned Q is certified by its Frank-Wolfe gap
    <grad F(Q), Q> - min_y dF/dQ(y), an upper bound on value - optimum:

        value - optimum <= gap <= tol * max(1, |value|).

    When that certificate is not reached within `max_iter` iterations, or
    no step decreases F any more, ConvergenceError is raised with the gap
    reached as `residual` and the iterations taken as `iterations`.
    """
    val, q, _ = _solve_aware(prior, spec, spec.ball_mask, gen, tol, max_iter)
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
    if _order(order, "put_max_alpha_leakage") == 1.0:
        if prior_for_one is None:
            raise ValidationError("the alpha = 1 tradeoff needs an input distribution")
        mask = spec.ball_mask
        value, q, gap = _solve_aware(prior_for_one, spec, mask, kl_generator(), tol)
        A = mask.astype(float)
        masses = A @ q
        # Q serves the inputs of positive probability only; an input of zero
        # probability whose ball Q leaves empty releases uniformly on its ball.
        rows = np.where(masses[:, None] > 0.0, A * q, A)
        rows /= rows.sum(axis=1, keepdims=True)
        return value, PutSolution(
            mechanism=Channel._trusted(spec.input_alphabet, spec.output_alphabet, rows),
            q_star=float(masses[prior_for_one.p > 0].min()),
            target_output=Dist(spec.output_alphabet, q),
            value=value,
            dual_certificate=None,
            duality_gap=gap,
        )
    return put_max_f_leakage(spec, kl_generator(), tol)  # KL's phi(q*) is -log q*


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


def sensitive_lower_bound(sj: SensitiveJoint, order) -> tuple[float, bool]:
    """Lower bound on the minimal alpha-leakage about S when a mechanism
    releases X within its distortion ball.

    The bound is (alpha/(alpha-1)) log(sum_{s,x} P(s)^alpha P(x|s)
    m_x^((1-alpha)/alpha) / ||P_S||_alpha), m_x the largest sum of P(s)^alpha
    over the values of S consistent with one output of x's ball: smaller
    consistent sets mean more exposure.  It is one tilted log-mean
    (`_tilted_log_mean`) plus H_alpha(P_S) whose powers all have bases at
    most 1, so one expression serves alpha in [1, inf], with no overflow, and
    it is clamped at 0.  The boolean reports whether a mechanism meeting the
    two equalization conditions for tightness exists: the linear feasibility
    program of `_tightness_system` is solved by `lp.feasible_point`, and True
    is returned only for a mechanism x >= 0 that meets it to 1e-9 on the
    row-scaled system (False asserts nothing about non-tightness).
    """
    a = _order(order, "sensitive_lower_bound")
    psx = sj.joint.m  # [s, x]
    ps = psx.sum(axis=1)  # P_S
    ball = sj.spec.ball_mask  # [x, y]
    s_feasible = (psx > 0) @ ball  # [s, y]: is s consistent with a feasible input of y
    n_y = ps @ s_feasible  # N(y) = sum_{s in S_D(y)} P(s)

    # The bound lives on the values of S and X of positive mass and the
    # outputs of their balls, where every N(y) > 0.
    live_s, live_x = ps > 0, psx.sum(axis=0) > 0
    live_y = ball[live_x].any(axis=0)
    p_s, p_sx = ps[live_s], psx[np.ix_(live_s, live_x)]
    feas, live_ball = s_feasible[np.ix_(live_s, live_y)], ball[np.ix_(live_x, live_y)]
    # Powers of ratios to mu_y, the largest P(s) consistent with y, and to
    # mu_x, the largest over x's ball; bases outside S(y), B(x) or the
    # support of P_SX are set to 0 first, as they could exceed 1.
    p_feas = np.where(feas, p_s[:, None], 0.0)
    mu_y = p_feas.max(axis=0)
    mu_x = np.where(live_ball, mu_y, 0.0).max(axis=1)
    k_y = ((p_feas / mu_y) ** a).sum(axis=0)
    k_x = (np.where(live_ball, mu_y / mu_x[:, None], 0.0) ** a * k_y).max(axis=1)  # m_x / mu_x^a
    u = _log_rows(np.where(p_sx > 0, p_s[:, None] / mu_x, 0.0) ** a / k_x)
    bound = float(_tilted_log_mean(p_sx.ravel(), u.ravel(), 1.0 - 1.0 / a))
    bound -= float(_tilted_log_mean(p_s, np.log(p_s), a - 1.0))  # + H_alpha(P_S)
    return _at_least_zero(bound), feasible_point(*_tightness_system(psx, ps, ball, s_feasible, n_y)).gap <= 1e-9


def _tightness_system(psx, ps, ball, s_feasible, n_y) -> tuple[np.ndarray, np.ndarray]:
    """The equalization conditions as A x = b, x >= 0 over mechanisms.

    Condition (i) confines each (s, x) row to the outputs of B_D(x) whose
    consistent sensitive mass attains the per-input maximum; condition
    (ii) couples the rows through the induced output law.  Both are linear
    in the mechanism entries (the conditions do not involve alpha), so
    feasibility of the resulting system, with the output law eliminated by
    substitution, decides the check.
    """
    # Argmax output sets per input (condition (i) support restriction).
    top = np.where(ball, n_y, -np.inf).max(axis=1, keepdims=True)
    best = ball & (n_y >= top - 1e-12 * np.maximum(1.0, top))
    # One variable per entry P(y | s, x) of a live pair on its argmax set.
    s, x, y = np.argwhere((psx > 0)[:, :, None] & best[None, :, :]).T
    pair = s * psx.shape[1] + x
    stochastic = np.unique(pair)[:, None] == pair  # each row sums to one

    # Output-law coupling (condition (ii)), one row per used output y and
    # sensitive value s consistent with it.
    used = np.unique(y)
    cy, cs = np.nonzero((s_feasible[:, used] & (ps > 0)[:, None]).T)
    cy = used[cy]
    coupling = (y == cy[:, None]) * psx[s, x] * (
        (s == cs[:, None]) / ps[cs, None] - 1.0 / n_y[cy, None]
    )
    return np.vstack([stochastic, coupling]), np.r_[np.ones(len(stochastic)), np.zeros(len(coupling))]


# --------------------------------------------------------------------------
# Average-Hamming binary tradeoff


class AvgHammingSolution(NamedTuple):
    rho1: float
    rho2: float
    value: float
    guess_prob: float
    gap: float  # value - optimum <= gap, nats


_SEGMENT_POINTS = 9
_SEGMENT_ROUNDS = 40
_SEGMENT_GAP = 1e-10


def avg_hamming_binary_put(p: float, D: float, alpha: float) -> AvgHammingSolution:
    """Minimize the binary maximal alpha-leakage L(rho1, rho2) over crossover
    pairs subject to the average Hamming distortion (1-p) rho1 + p rho2 <= D,
    for an input Bernoulli(p), with a certified bound on the answer.

    An optimum lies on the segment (1-p) rho1 + p rho2 = D, parametrized by
    t from (D/(1-p), 0) at t = 0 to (0, D/p) at t = 1: while
    rho1 + rho2 < 1, raising rho1 by delta post-processes the channel,
    W' = W K with K = [[1-a, a], [b, 1-b]], b = a rho2/(1-rho2) and
    a = delta (1-rho2) / ((1-rho1)(1-rho2) - rho1 rho2), so by the
    data-processing inequality L cannot rise (likewise for rho2).  That
    argument needs the bound D < min(p, 1-p), which keeps the feasible set
    below the rank-one locus rho1 + rho2 = 1; the closed form itself is
    exact on and near the locus.

    Along the segment G(t) = exp(e L), e = (alpha-1)/alpha, is convex: it
    is sup_P sum_y ||(P(x)^(1/alpha) W(y|x))_x||_alpha, a supremum of norms
    of linear maps of W.  Each round ranks G - 1 = expm1(e L), whose
    differences keep their digits as e -> 0, on 9 equispaced points of a
    bracket holding the minimizer; with k the argmin, convexity bounds G on
    [t_(k-1), t_(k+1)], where the minimizer lies, from below by G_k - rise,
    rise = max(G_(k-1), G_(k+1)) - G_k (at an end point, G_0 - 2 G_1 + G_2),
    and the gap -log(1 - rise/G_k)/e >= value - optimum in nats.  The
    search stops at gap <= 1e-10, returning the best point (end points
    exact, so a vertex optimum has rho1 or rho2 exactly 0), or raises
    ConvergenceError after 40 rounds.  Also reports the MAP success
    probability sum_y max_x P_XY(x, y) of the solution.
    """
    p, D, alpha = float(p), float(D), _order(alpha, "avg_hamming_binary_put", finite=True)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0, 1), got {p}")
    if not 0.0 < D < 1.0 - max(p, 1.0 - p):
        raise ValidationError(f"D must lie in (0, {1.0 - max(p, 1.0 - p)}), got {D}")

    e = (alpha - 1.0) / alpha
    last = _SEGMENT_POINTS - 1
    lo, hi = 0.0, 1.0
    for _ in range(_SEGMENT_ROUNDS):
        t = np.linspace(lo, hi, _SEGMENT_POINTS)
        r1, r2 = (1.0 - t) * (D / (1.0 - p)), t * (D / p)
        values = binary_maximal_alpha_leakage(r1, r2, alpha)
        H = np.expm1(e * values)  # G - 1
        k = int(np.argmin(H))
        if 0 < k < last:
            rise = max(H[k - 1], H[k + 1]) - H[k]
        else:
            s = 1 if k == 0 else -1
            rise = H[k] - 2.0 * H[k + s] + H[k + 2 * s]
        gap = -math.log1p(-max(rise, 0.0) / (1.0 + H[k])) / e
        if gap <= _SEGMENT_GAP:
            r1k, r2k = float(r1[k]), float(r2[k])
            guess = max((1 - p) * (1 - r1k), p * r2k) + max((1 - p) * r1k, p * (1 - r2k))
            return AvgHammingSolution(r1k, r2k, float(values[k]), guess, gap)
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, last)]
    raise ConvergenceError(
        f"distortion-boundary line search did not reach tolerance: gap {gap:.3e} above "
        f"{_SEGMENT_GAP:.3e} after {_SEGMENT_ROUNDS} rounds",
        residual=gap,
        iterations=_SEGMENT_ROUNDS,
    )
