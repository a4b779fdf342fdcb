"""Tunable leakage measures and the order-alpha capacity solver.

The adversary model: a guess of X from Y is scored by the alpha-loss
(alpha/(alpha-1)) (1 - p^((alpha-1)/alpha)) of the probability p assigned
to the truth; log-loss at alpha = 1, probability of error at alpha = inf.
The induced leakage of a joint equals the Arimoto mutual information; the
leakage maximized over every function of X equals, for alpha > 1, the
order-alpha channel capacity sup_P I^S_alpha(P, W).  This module solves
it, and the reference-distribution minimization of an f-leakage, with
`_minimize_on_simplex`, shared with the distribution-aware PUT of `put`.
It minimizes F(z) = sum_i g_i((M z)_i) over the simplex through one
callback, evaluate(s) -> (F, g', g'') at s = M z, which computes once per
point the powers or generator values the three share, by Newton steps to
the minimizer of the quadratic model over the simplex, as in mix-SQP
(Kim, Carbonetto, Stephens & Anitescu, JCGS 2020), each block pivot
solving its least squares by the normal equations (an SVD only where they
are rank-deficient or ill-conditioned), Frank-Wolfe steps as the fallback,
the Frank-Wolfe gap as the stopping rule.  A capacity is certified
two-sidedly by the minimax identity C_alpha = min_Q max_x D_alpha(W_x || Q):
I^S_alpha(P) at the returned input law P is a lower bound, and
max_x D_alpha(W_x || Q_P) at its output law Q_P an upper bound.  With two
outputs, every row mixes the two of extreme W(y0|x) and D_alpha(. || Q) is
quasi-convex (van Erven & Harremoes, IEEE Trans. IT 2014), so the solve
starts at the closed-form optimum on those two rows.

Orders are plain floats, inf included (`prob._order`).  Leakage
operations require alpha >= 1 (orders below 1 have no loss interpretation
here and are rejected); the raw information measures in `measures` accept
orders in (0, 1) as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .measures import (
    FGenerator,
    arimoto_cond_entropy,
    arimoto_mi,
    sibson_mi,
    _at_least_zero,
    _hellinger_image,
)
from .prob import (
    Channel,
    Dist,
    Joint,
    _order,
    conditional_of,
    logsumexp,
)


# --------------------------------------------------------------------------
# Certified descent over the probability simplex, shared with `put`

# `_free_least_squares` accepts a solution y of the scaled normal equations
# while |y| is at most _AMPLIFY times their right side: LU leaves a residual
# of about eps |y|, so the free gradients then agree to ~1e-10 relative.
# Its SVD fallback leaves out directions of singular value below _FLAT
# times the largest (near-duplicate inputs): F is flat along them in double
# precision.
_AMPLIFY = 1e6
_FLAT = 1e-12
# Block exchanges that leave no fewer infeasible coordinates before the
# Newton subproblem turns to Lawson-Hanson steps, and the cap on its solves.
_BLOCK_TRIES = 3
_PIVOTS = 100
# Multipliers within _NOISE of the largest gradient entry are rounding.
_NOISE = 1e-13


def _relative_certificate(tol: float):
    """`certify` for `_minimize_on_simplex`: the Frank-Wolfe gap itself,
    accepted when it is at most tol * max(1, |F|)."""
    return lambda val, fw: (fw, tol * max(1.0, abs(val)))


def _free_least_squares(basis, b):
    """A minimizer y of |basis y - b|.  While basis is tall: the normal
    equations (basis^T basis) y = basis^T b, scaled to a unit diagonal (the
    Newton weights can span tens of orders of magnitude across the rows)
    and solved by LU, one Gram product and a small solve, several times
    cheaper than an SVD; one column needs no solve.  The SVD takes over
    when basis is rank-deficient by shape (at least as many columns as
    rows, or a zero column), or when the solve is singular, not finite, or
    amplifies the right side by more than _AMPLIFY (nearly dependent
    columns).  A poor direction costs Newton iterations only; the
    Frank-Wolfe gap still decides."""
    if basis.shape[1] < basis.shape[0]:
        gram = basis.T @ basis
        diag = gram.diagonal()
        if diag.all():
            scale = 1.0 / np.sqrt(diag)
            rhs = scale * (b @ basis)
            if rhs.size <= 1:  # the scaled Gram matrix of one column is [[1]]
                y = rhs
            else:
                gram *= scale
                gram *= scale[:, None]
                try:
                    y = np.linalg.solve(gram, rhs)
                except np.linalg.LinAlgError:
                    y = None
            if y is not None and y @ y <= _AMPLIFY**2 * (rhs @ rhs) < np.inf:
                return scale * y
    return np.linalg.lstsq(basis, b, rcond=_FLAT)[0]


def _simplex_qp_step(A, r, z, start):
    """Step d = w - z to the minimizer w of |A (w - z) + r|^2 over the
    simplex.  Block principal pivoting (Kim & Park, SISC 2011) from the free
    set supp(start) solves the least squares under sum(w) = 1 on the free
    set (zero-sum basis, `_free_least_squares`), then swaps at once every
    free w < 0 and every fixed coordinate whose gradient A^T (A d + r) is
    below w . grad.  Singular A can make that cycle; when the count stops
    falling, Lawson-Hanson from w = start takes over, which lowers the
    model monotonically.  Returns the last feasible step if that
    stalls or takes _PIVOTS solves, None if it is zero."""
    free = start > 0.0
    cur = start.copy()
    fewest, tries, lawson = z.size + 1, _BLOCK_TRIES, False
    noise = _NOISE * np.abs(A.T @ r).max()
    for _ in range(_PIVOTS):
        idx = np.flatnonzero(free)
        ref = idx[np.argmax(z[idx])]
        others = idx[idx != ref]
        d = np.where(free, 0.0, -z)
        d[ref] = z[~free].sum()
        res = A @ d + r
        basis = A[:, others]
        basis -= A[:, ref, None]
        y = _free_least_squares(basis, -res)
        d[others] = y
        d[ref] -= y.sum()
        res += basis @ y
        w = z + d
        neg = free & (w < 0.0)
        if lawson and neg.any():
            ratios = cur[neg] / (cur[neg] - w[neg])
            t = ratios.min()
            if t == 0.0:  # only the coordinate just freed would leave again
                break
            cur += t * (w - cur)
            out = np.flatnonzero(neg)[ratios <= t]
            cur[out] = 0.0
            free[out] = False
            continue
        grad = A.T @ res
        low = ~free & (grad < w @ grad - noise)
        bad = neg | low
        if not bad.any():
            return d
        if lawson:
            cur = w
            free[np.argmin(np.where(low, grad, np.inf))] = True
            continue
        if bad.sum() < fewest:
            fewest, tries = bad.sum(), _BLOCK_TRIES
        elif tries:
            tries -= 1
        else:
            free, lawson = start > 0.0, True
            continue
        free ^= bad
    return None if np.array_equal(cur, z) else cur - z


def _minimize_on_simplex(M, evaluate, certify, max_iter: int, failure: str, start=None):
    """Minimize the convex F(z) = sum_i g_i((M z)_i) over distributions z,
    from `start` (default, and in place of a start outside the domain: the
    uniform point); a start the certificate accepts is returned after 0
    iterations.  `evaluate(s)` returns (F, g'(s), g''(s)) at s = M z > 0;
    the gradient is M^T g'(M z), and a point where F, it or g'' overflows
    is outside the domain.  The Frank-Wolfe gap <grad F(z), z> - min grad F
    bounds F(z) - min F without knowledge of the optimal support (Jaggi,
    ICML 2013); `certify(F, gap)` maps it to (gap, limit), the certificate
    in the caller's units and the bound that accepts it.  Each iteration
    steps to the minimizer w over the simplex of the model
    |c^(1/2) M (w - z) + g'/c^(1/2)|^2, c = g'' (`_simplex_qp_step`, from
    where the last step ended), or else, and wherever some c <= 0 leaves
    no such model, towards the coordinate of least gradient.  Steps may
    empty coordinates exactly.

    Returns (z, M z, F(z), gap, iterations) once gap <= limit.  When that
    is not reached within `max_iter` iterations, or no step lowers F any
    more, or the uniform start too is outside the domain (gap inf), raises
    ConvergenceError with the gap reached as `residual` and the iterations
    taken as `iterations`; its message starts with `failure`.
    """

    def at(z):
        """F(z) and, inside the domain, (M z, grad, g', g'', Frank-Wolfe gap)."""
        s = M @ z
        # x.item(x.argmin()) is x.min() without the wrapper that slows small solves
        if not s.item(s.argmin()) > 0.0:
            return math.inf, None
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val, dg, curv = evaluate(s)
            grad = M.T @ dg
            # z >= 0 sums to 1: <grad, z> is finite iff grad is (0 * inf is NaN)
            mean = float(z @ grad)
        if not (math.isfinite(val) and math.isfinite(mean) and np.isfinite(curv).all()):
            return val, None
        # Nonnegative in exact arithmetic; rounding must not make it less.
        return val, (s, grad, dg, curv, max(0.0, mean - grad.item(grad.argmin())))

    def line_search(z, val, least_fw, step, newton):
        """The whole Newton step if it lowers F by more than rounding, else
        the least F at lengths 1, 1/2, ... (both steps end on the simplex,
        emptied coordinates exactly 0); F is convex along the step, and an
        Armijo slope is too steep near a boundary where g' is unbounded.
        When no length lowers F by more than rounding, as near the optimum,
        the Newton point is taken if it halves the least Frank-Wolfe gap so
        far (not the current one, which a step lowering F may raise)."""
        best = None
        floor = val - 1e-15 * max(1.0, abs(val))
        for k, length in enumerate(0.5 ** np.arange(60)):
            cand = np.maximum(z + length * step, 0.0)
            cand /= cand.sum()
            cand_val, terms = at(cand)
            if newton and k == 0:
                if terms is not None and (cand_val < floor or terms[4] <= least_fw / 2):
                    return cand, cand_val, terms
            elif cand_val < floor and terms is not None:
                best, floor = (cand, cand_val, terms), cand_val
            elif best is not None:
                return best
        return best

    z = start
    val, terms = (math.inf, None) if z is None else at(z)
    if terms is None:  # no start, or one outside the domain
        z = np.full(M.shape[1], 1.0 / M.shape[1])
        val, terms = at(z)
    if terms is None:
        raise ConvergenceError(f"{failure} inf at the uniform start", residual=math.inf, iterations=0)
    s, grad, dg, curv, fw = terms
    gap, limit = certify(val, fw)
    least_fw = fw
    start = z
    iterations = 0
    while not gap <= limit:  # a NaN gap certifies nothing
        if iterations == max_iter:
            break
        iterations += 1
        step = None
        if curv.min() > 0.0:
            root = np.sqrt(curv)
            step = _simplex_qp_step(root[:, None] * M, dg / root, z, start)
        moved = None if step is None else line_search(z, val, least_fw, step, True)
        if moved is None:
            # The Frank-Wolfe step is a descent direction whenever gap > 0.
            step = -z
            step[np.argmin(grad)] += 1.0
            moved = line_search(z, val, least_fw, step, False)
        if moved is None:
            break
        start = z + step
        z, val, (s, grad, dg, curv, fw) = moved
        gap, limit = certify(val, fw)
        least_fw = min(least_fw, fw)
    else:
        return z, s, val, gap, iterations
    raise ConvergenceError(
        f"{failure} {gap:.3e} above {limit:.3e} after {iterations} iterations",
        residual=gap,
        iterations=iterations,
    )


@dataclass(frozen=True)
class CapacityResult:
    """Certified solution of sup over input distributions of the Sibson
    mutual information of order alpha.

    `kkt_residual` is the measured gap upper - lower in nats between the
    two bounds on the capacity: lower = I^S_alpha(P) at `optimal_input` P
    (which is `value`), upper = max_x D_alpha(W_x || Q) at `target_output`
    Q, the output law attaining I^S_alpha(P).  The capacity lies in
    [value, value + kkt_residual].  The closed-form alpha = 1 and
    alpha = inf paths carry 0.
    """

    value: float
    optimal_input: Dist
    target_output: Dist
    kkt_residual: float
    iterations: int


def alpha_loss(prob_correct: float, order) -> float:
    """Loss of assigning probability `prob_correct` to the true symbol:
    (1 - p^e)/e with e = 1 - 1/alpha, formed as -expm1(-log alpha) so that
    it keeps its digits near alpha = 1 and is exactly 1 at alpha = inf.
    Its e = 0 limit -log p is the log-loss; at e = 1 it is 1 - p.  A sure
    guess costs +0.0."""
    a = _order(order, "alpha_loss")
    p = float(prob_correct)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"probability of correct guess must be in [0, 1], got {p}")
    e = -math.expm1(-math.log(a))
    log_p = math.log(p) if p > 0.0 else -math.inf
    return 0.0 - (math.expm1(e * log_p) / e if e else log_p)


def optimal_strategy(posterior_channel: Channel, order) -> Channel:
    """Best estimation strategy against the alpha-loss.

    Rows of `posterior_channel` must be the true posteriors P(x | y); the
    optimal strategy tilts each one proportionally to its alpha-th power,
    formed as (P(x | y) / max_x P(x | y))^alpha, every power in [0, 1].
    At alpha = 1 that is the posterior itself; at alpha = inf the MAP rule,
    the maxima staying at 1 and so splitting ties uniformly.
    """
    post = posterior_channel.rows
    rows = np.power(post / post.max(axis=1, keepdims=True), _order(order, "optimal_strategy"))
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(posterior_channel.input_alphabet, posterior_channel.output_alphabet, rows)


def min_expected_alpha_loss(joint: Joint, order) -> float:
    """Minimal expected alpha-loss of guessing the row variable from the
    column variable; attained by the tilted-posterior strategy."""
    a = _order(order, "min_expected_alpha_loss")
    return alpha_loss(math.exp(-arimoto_cond_entropy(joint, a)), a)


def alpha_leakage(joint: Joint, order) -> float:
    """Leakage about the row variable from observing the column variable:
    the multiplicative gain in alpha-loss performance, which equals the
    Arimoto mutual information of order alpha."""
    return arimoto_mi(joint, _order(order, "alpha_leakage"))


def maximal_leakage(channel: Channel) -> float:
    """log of the sum over outputs of the column-wise channel maximum; the
    alpha = inf end of the maximal alpha-leakage family."""
    return _at_least_zero(float(np.log(channel.rows.max(axis=0).sum())))


def maximal_alpha_leakage(
    channel: Channel,
    order,
    prior_for_one: Dist | None = None,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> CapacityResult:
    """Maximal alpha-leakage of a channel.

    alpha > 1: the order-alpha capacity sup_P I^S_alpha(P, W), found by
    maximizing the concave S(P) = sum_y (sum_x P(x) W(y|x)^alpha)^(1/alpha)
    with `_minimize_on_simplex` until the measured gap upper - lower (see
    CapacityResult) is at most `tol` nats, in absolute terms; otherwise
    ConvergenceError is raised with that gap as `residual` and the
    iterations taken as `iterations`.  With two reachable outputs it starts
    at the optimum on the two inputs of extreme W(y0|x), which is optimal
    (see the module docstring), and mostly certifies after 0 iterations.

    alpha = 1: Shannon mutual information at `prior_for_one`, which is
    required (the alpha = 1 value depends on the actual input law, not
    just its support).  alpha = inf: closed form log sum_y max_x W(y|x).
    """
    a = _order(order, "maximal_alpha_leakage")
    in_alpha, out_alpha = channel.input_alphabet, channel.output_alphabet
    W = channel.rows

    if a == 1.0:
        if prior_for_one is None:
            raise ValidationError("maximal alpha-leakage at alpha = 1 needs an input distribution")
        value = sibson_mi(prior_for_one, channel, a)  # checks the alphabets
        q = prior_for_one.p @ W
        return CapacityResult(value, prior_for_one, Dist(out_alpha, q / q.sum()), 0.0, 0)

    if math.isinf(a):
        colmax = W.max(axis=0)
        return CapacityResult(
            maximal_leakage(channel),
            Dist.uniform(in_alpha),
            Dist(out_alpha, colmax / colmax.sum()),
            0.0,
            0,
        )

    # Outputs no input can reach contribute nothing and are dropped.  With
    # t = M P, M = ((W / colmax)^a)^T, the Sibson sum is
    # S(P) = sum_y colmax_y t_y^(1/a) and I^S_a(P) = a/(a-1) log S(P); the
    # solver minimizes the convex F = -S.
    colmax = W.max(axis=0)
    if min(colmax.tolist()) == 0.0:  # W >= 0
        reachable = colmax > 0.0
        W, colmax = W[:, reachable], colmax[reachable]
    M = np.power(W / colmax, a).T

    def evaluate(t):
        root = t ** (1.0 / a)
        value = -float(colmax @ root)
        root *= colmax
        root /= t
        return value, root * (-1.0 / a), root / t * ((a - 1.0) / (a * a))

    def certify(val, fw_gap):
        # max_x D_a(W_x || Q_P) - I^S_a(P) = log(min grad F / <grad F, P>) / (a-1),
        # and <grad F, P> = F / a.
        return math.log1p(-a * fw_gap / val) / (a - 1.0), tol

    start = None
    if M.shape[0] == 2:
        # The optimum on the inputs i, j of extreme W(y0|x), read from W since
        # M underflows at large a: S is stationary along t = M[:, j] + x d
        # where t_0 / t_1 = k; none if i = j, or k is 0 or overflows.
        col = W[:, 0].tolist()
        i, j = col.index(max(col)), col.index(min(col))
        (m0, m1), (c0, c1) = M.tolist(), colmax.tolist()
        try:
            k = math.exp(a / (1.0 - a) * math.log(c1 * (m1[j] - m1[i]) / (c0 * (m0[i] - m0[j]))))
            x = (k * m1[j] - m0[j]) / (m0[i] - m0[j] - k * (m1[i] - m1[j]))
        except (ArithmeticError, ValueError):
            x = math.nan
        if 0.0 < x < 1.0:
            start = np.zeros(M.shape[1])
            start[i], start[j] = x, 1.0 - x

    p, t, val, gap, iterations = _minimize_on_simplex(
        M, evaluate, certify, max_iter,
        "input-distribution ascent did not reach tolerance: capacity gap (upper - lower)",
        start=start,
    )
    # The Sibson centre at the solver's last t = M P (the log form costs ~10x).
    q = centre = colmax * t ** (1.0 / a)
    if len(centre) < len(out_alpha):
        q = np.zeros(len(out_alpha))
        q[reachable] = centre
    # Both laws come normalized from the solver: no re-validation.
    return CapacityResult(
        _at_least_zero(a / (a - 1.0) * math.log(-val)),
        Dist._trusted(in_alpha, p),
        Dist._trusted(out_alpha, q / q.sum()),
        gap,
        iterations,
    )


def _log_divided_difference(x, y, d: float):
    """Elementwise scaled log g = (1/d) log((x^a - y^a)/(x - y)), a = 1 + d:
    log hi + log1p(r)/d with u = log(lo/hi) <= 0 and r = e^u expm1(d u)/expm1(u)
    (r = d where x = y, 0 where lo = 0), as expm1(a u) = expm1(u) + e^u expm1(d u),
    so no term of order 1/d is left to cancel as d -> 0.  A pair of zeros
    reads as (tiny, 0), its limit along the edge of the square."""
    hi = np.maximum(np.maximum(x, y), np.finfo(float).smallest_subnormal)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.log(np.minimum(x, y) / hi)
        r = np.where(u == 0.0, d, np.exp(u) * np.expm1(d * u) / np.expm1(u))
    return np.log(hi) + np.log1p(r) / d


def binary_maximal_alpha_leakage(rho1, rho2, alpha: float):
    """Closed-form maximal alpha-leakage of the 2x2 channel with crossover
    probabilities (rho1, rho2), for alpha > 1.  Elementwise on arrays of
    crossover pairs; a float for scalar ones.

    The closed form (1/(alpha-1)) log|x_m^alpha - y_m^alpha| +
    log sum_i |x_i^alpha - y_i^alpha|^(1/(1-alpha)) is built from three
    pairs, x_m = (1-rho1)(1-rho2), y_m = rho1 rho2, (x_1, y_1) =
    (1-rho2, rho1) and (x_2, y_2) = (1-rho1, rho2), each differing by
    delta = 1 - rho1 - rho2.  Each power difference is delta times the
    divided difference and the delta factors cancel: the value is the one
    log-sum-exp g_m + log(e^(-g_1) + e^(-g_2)) of the scaled logs g
    (`_log_divided_difference`).  It keeps its accuracy as alpha -> 1 and
    up to and on the rank-one locus delta = 0, where it is 0; a value that
    rounds below 0 there is +0.0.  It never calls the capacity solver.
    """
    alpha = _order(alpha, "binary closed form", finite=True)
    r1, r2 = np.broadcast_arrays(np.asarray(rho1, dtype=float), np.asarray(rho2, dtype=float))
    if not (np.all((0.0 <= r1) & (r1 <= 1.0)) and np.all((0.0 <= r2) & (r2 <= 1.0))):
        raise ValidationError("crossover probabilities must lie in [0, 1]")
    g_m = _log_divided_difference((1.0 - r1) * (1.0 - r2), r1 * r2, alpha - 1.0)
    g_b = _log_divided_difference(np.stack([1.0 - r2, 1.0 - r1]), np.stack([r1, r2]), alpha - 1.0)
    value = g_m + logsumexp(-g_b, axis=0)
    # rounding near the locus can leave the value a few ulps below 0 (or -0.0)
    value = np.where(value <= 0.0, 0.0, value)
    return float(value) if value.ndim == 0 else value


# --------------------------------------------------------------------------
# f-leakage


def _min_fdiv_over_reference(
    px: np.ndarray, W: np.ndarray, gen: FGenerator, tol: float, max_iter: int
) -> tuple[float, np.ndarray, float]:
    """Minimize sum_x px[x] D_f(W_x || Q) over output distributions Q with
    `_minimize_on_simplex`: M = I and g_y(q) = sum_x px[x] q f(W_xy / q).
    Returns the value, Q and the Frank-Wolfe gap, which bounds the value's
    excess over the minimum.  Outputs that no input of positive probability
    reaches get no mass: their derivative f(0) is at least that of every
    other output."""
    reach = px @ W > 0
    P, W_reach = px[:, None], W[:, reach]

    def evaluate(q):
        ratios = W_reach / q
        f = gen.f(ratios)
        safe = np.where(ratios > 0, ratios, 1.0)
        slope = f - ratios * gen.fprime(safe)
        curv = ratios * ratios * gen.fsecond(safe) / q
        return float((P * q * f).sum()), (P * slope).sum(axis=0), (P * curv).sum(axis=0)

    q_reach, _, val, gap, _ = _minimize_on_simplex(
        np.eye(int(reach.sum())), evaluate, _relative_certificate(tol), max_iter,
        "reference-distribution descent did not reach tolerance: Frank-Wolfe gap",
    )
    q = np.zeros(W.shape[1])
    q[reach] = q_reach
    return val, q, gap


def f_leakage(joint: Joint, gen: FGenerator, tol: float = 1e-10, max_iter: int = 50_000) -> tuple[float, Dist]:
    """Leakage of a joint under an f-divergence:
    inf_Q D_f(P_XY || P_X x Q), returned with the minimizing Q.

    The KL generator short-circuits to Shannon mutual information with the
    output marginal as minimizer; Hellinger of order alpha short-circuits
    through the Sibson closed form and the monotone bijection between the
    two divergences, and its minimizer is the Sibson centre
    Q(y) proportional to (sum_x P(x) W(y|x)^alpha)^(1/alpha), the output law
    that `maximal_alpha_leakage` also returns at its optimal input, formed
    as it is there: colmax_y (sum_x P(x) (W(y|x) / colmax_y)^alpha)^(1/alpha)
    with colmax_y = max_x W(y|x) over the prior's support.  Custom
    generators run `_min_fdiv_over_reference`; a value that rounding leaves
    below 0 comes back as +0.0.
    """
    prior, channel, _ = conditional_of(joint)
    out_alpha = joint.col_alphabet
    if gen.kind == "kl":
        return sibson_mi(prior, channel, 1.0), joint.col_marginal()
    if gen.kind == "hellinger":
        a, support = gen.alpha, prior.p > 0
        W = channel.rows[support]
        colmax = W.max(axis=0)  # 0 on an output no input reaches, and so is its Q
        q = colmax * (prior.p[support] @ np.power(W / np.where(colmax > 0, colmax, 1.0), a)) ** (1.0 / a)
        return _hellinger_image(sibson_mi(prior, channel, a), a), Dist(out_alpha, q / q.sum())
    value, q, _ = _min_fdiv_over_reference(prior.p, channel.rows, gen, tol, max_iter)
    return _at_least_zero(value), Dist(out_alpha, q)


def maximal_f_leakage(
    channel: Channel, gen: FGenerator, tol: float = 1e-9, max_iter: int = 50_000
) -> float:
    """Maximal f-leakage sup_P inf_Q D_f(W P || P x Q) of a channel.

    Hellinger of order alpha is exact: it is the image of the maximal
    alpha-leakage under z -> (exp((alpha-1) z) - 1)/(alpha-1).  KL and
    custom generators run an ascent on the concave value function
    phi(P) = inf_Q sum_x P(x) D_f(W_x || Q), whose supergradient at P is
    the vector g of divergences at the inner minimizer Q.  For any Q the
    value lies in [P.g - inner gap, max_x g_x]: the inner Frank-Wolfe gap
    bounds P.g - phi(P) (0 for KL, whose minimizer is P W), and the value is
    inf_Q max_x D_f(W_x || Q) by Sion's minimax theorem.  The ascent stops
    once that bracket is at most tol (relative) and returns its lower end.
    """
    if gen.kind == "hellinger":
        cap = maximal_alpha_leakage(channel, gen.alpha, tol=min(tol, 1e-10), max_iter=max_iter)
        return _hellinger_image(cap.value, gen.alpha)

    W = channel.rows
    n_in = W.shape[0]
    p = np.full(n_in, 1.0 / n_in)

    def inner(p):
        if gen.kind == "kl":
            q, inner_gap = p @ W, 0.0
            q = q / q.sum()
        else:
            _, q, inner_gap = _min_fdiv_over_reference(p, W, gen, tol, max_iter)
        pos = q > 0
        return (q[pos] * gen.f(W[:, pos] / q[pos])).sum(axis=1), inner_gap

    gap = math.inf
    for _ in range(max_iter):
        g, inner_gap = inner(p)
        lower = float(p @ g) - inner_gap
        gap = float(g.max() - lower)
        if gap <= tol * max(1.0, abs(lower)):
            return _at_least_zero(lower)
        scale = max(1.0, float(np.abs(g).max()))
        p = p * np.exp((g - g.max()) / scale)
        p /= p.sum()
    raise ConvergenceError(
        "input-distribution ascent did not close the saddle gap",
        residual=gap,
        iterations=max_iter,
    )
