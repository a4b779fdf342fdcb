"""Output checks the benchmark computes itself, in numpy.

None of these calls into `alphaleak`: each check recomputes the answer,
or a certificate for it, from the operation's inputs and the returned
result.  A wrong or uncertified answer raises `CheckFailed`; a passing
check returns its accuracy anchor (a gap or an error, >= 0).
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

# Tolerances are absolute on values of order one, in nats.
CAPACITY_KKT_TOL = 1e-10  # the solver's own default `tol`
CAPACITY_GAP_TOL = 1e-8  # upper - lower of the two-sided capacity bound
CLOSED_FORM_TOL = 1e-9
LP_GAP_TOL = 1e-9  # max(mu A) - min(A q)
FW_GAP_TOL = 1e-8  # Frank-Wolfe duality gap of the aware PUT
PRINTED_TOL = 1e-9  # values the CLI prints with 12 significant digits


class CheckFailed(Exception):
    """An operation's output is wrong or carries no valid certificate."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _lse(a: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis) if axis is not None else float(out.reshape(()))


def _log(x: np.ndarray) -> np.ndarray:
    out = np.full(np.shape(x), -np.inf)
    np.log(x, out=out, where=np.asarray(x) > 0)
    return out


def _require_pmf(p: np.ndarray, what: str, atol: float = 1e-12) -> None:
    require(bool(np.all(np.isfinite(p))), f"{what} has non-finite entries")
    require(bool(np.all(p >= 0)), f"{what} has negative entries (min {p.min():.3e})")
    require(abs(float(p.sum()) - 1.0) <= atol, f"{what} sums to {p.sum()!r}")


# --------------------------------------------------------------------------
# Order-alpha capacity


def sibson_value(W: np.ndarray, p: np.ndarray, a: float) -> float:
    """I^S_a(P, W) = a/(a-1) log sum_y (sum_x P(x) W(y|x)^a)^(1/a)."""
    log_ay = _lse(_log(p)[:, None] + a * _log(W), axis=0)
    return a / (a - 1.0) * _lse(log_ay[np.isfinite(log_ay)] / a)


def sibson_output(W: np.ndarray, p: np.ndarray, a: float) -> np.ndarray:
    """The output law attaining I^S_a(P, W): Q(y) proportional to
    (sum_x P(x) W(y|x)^a)^(1/a)."""
    log_q = _lse(_log(p)[:, None] + a * _log(W), axis=0) / a
    q = np.exp(log_q - _lse(log_q[np.isfinite(log_q)]))
    return q / q.sum()


def renyi_radius(W: np.ndarray, q: np.ndarray, a: float) -> float:
    """max_x D_a(W_x || Q), an upper bound on the order-a capacity for
    every output law Q (the minimax identity C_a = min_Q max_x D_a)."""
    terms = np.where(W > 0, a * _log(W) + (1.0 - a) * _log(q)[None, :], -np.inf)
    return float(np.max(_lse(terms, axis=1)) / (a - 1.0))


def capacity_gap(W: np.ndarray, a: float, value: float, p: np.ndarray, q: np.ndarray) -> float:
    """Two-sided certificate of an order-a capacity: lower bound at the
    returned input law P, upper bound at the returned output law Q."""
    _require_pmf(p, "optimal input", atol=1e-9)
    _require_pmf(q, "target output", atol=1e-9)
    lower = sibson_value(W, p, a)
    upper = renyi_radius(W, q, a)
    slack = CLOSED_FORM_TOL * max(1.0, abs(value))
    require(lower <= value + slack, f"value {value!r} below its lower bound {lower!r}")
    require(value <= upper + slack, f"value {value!r} above its upper bound {upper!r}")
    gap = upper - lower
    require(gap <= CAPACITY_GAP_TOL * max(1.0, abs(value)), f"capacity gap {gap:.3e} too wide")
    return max(gap, 0.0)


def binary_capacity(r1: float, r2: float, a: float) -> float:
    """Closed-form maximal a-leakage of [[1-r1, r1], [r2, 1-r2]] for
    r1 + r2 < 1 and a > 1."""
    u = ((1 - r1) * (1 - r2)) ** a - (r1 * r2) ** a
    b1 = (1 - r2) ** a - r1**a
    b2 = (1 - r1) ** a - r2**a
    return math.log(u) / (a - 1) + math.log(b1 ** (1 / (1 - a)) + b2 ** (1 / (1 - a)))


def check_capacity(W: np.ndarray, a: float, result) -> float:
    """Certified `CapacityResult` for finite a > 1; returns the gap."""
    require(
        result.kkt_residual <= CAPACITY_KKT_TOL,
        f"uncertified: kkt_residual {result.kkt_residual:.3e} > {CAPACITY_KKT_TOL:g}",
    )
    gap = capacity_gap(W, a, result.value, result.optimal_input.p, result.target_output.p)
    if W.shape == (2, 2) and W[0, 1] + W[1, 0] < 1.0:
        check_close(result.value, binary_capacity(W[0, 1], W[1, 0], a), "binary closed form")
    return gap


def check_close(value: float, expected: float, what: str, tol: float = CLOSED_FORM_TOL) -> float:
    err = abs(float(value) - float(expected))
    require(err <= tol * max(1.0, abs(expected)), f"{what}: {value!r} != {expected!r}")
    return err


def qary_symmetric(q: int, eps: float) -> np.ndarray:
    W = np.full((q, q), eps / (q - 1))
    np.fill_diagonal(W, 1.0 - eps)
    return W


def qary_shannon_capacity(q: int, eps: float) -> float:
    """log q - H(eps) - eps log(q - 1): the maximal KL-leakage of the
    q-ary symmetric channel."""
    return math.log(q) + (1 - eps) * math.log(1 - eps) + eps * math.log(eps / (q - 1))


# --------------------------------------------------------------------------
# Hard-distortion PUT


def check_mechanism(rows: np.ndarray, mask: np.ndarray) -> None:
    """Rows sum to one and every entry outside its ball is exactly 0."""
    require(rows.shape == mask.shape, f"mechanism shape {rows.shape} != {mask.shape}")
    require(bool(np.all(rows >= 0)), "mechanism has negative entries")
    require(bool(np.all(rows[~mask] == 0.0)), "mechanism puts mass outside a distortion ball")
    err = float(np.abs(rows.sum(axis=1) - 1.0).max())
    require(err <= 1e-12, f"mechanism row sums off by {err:.3e}")


def lp_gap(mask: np.ndarray, q: np.ndarray, mu: np.ndarray | None) -> tuple[float, float]:
    """(min_x (A q)_x, max(mu A) - min(A q)) from the returned certificates."""
    A = mask.astype(float)
    _require_pmf(q, "Q*")
    primal = float((A @ q).min())
    if mu is None:
        return primal, 0.0
    _require_pmf(mu, "dual certificate")
    dual = float((mu @ A).max())
    gap = dual - primal
    require(gap >= -LP_GAP_TOL, f"dual value {dual!r} below primal value {primal!r}")
    require(gap <= LP_GAP_TOL, f"LP certificate gap {gap:.3e} too wide")
    return primal, max(gap, 0.0)


def f_value(kind: str, alpha: float | None, t):
    """Generator f(t) for 'kl' (t log t) and 'hellinger' ((t^a - 1)/(a - 1))."""
    t = np.asarray(t, dtype=float)
    if kind == "kl":
        return np.where(t > 0, t * _log(t), 0.0)
    return (np.power(t, alpha) - 1.0) / (alpha - 1.0)


def f_prime(kind: str, alpha: float | None, t):
    t = np.asarray(t, dtype=float)
    if kind == "kl":
        return np.log(t) + 1.0
    return alpha * np.power(t, alpha - 1.0) / (alpha - 1.0)


def f_zero(kind: str, alpha: float | None) -> float:
    return 0.0 if kind == "kl" else -1.0 / (alpha - 1.0)


def check_hard_put(
    mask: np.ndarray,
    solution,
    kind: str,
    alpha: float | None = None,
    expected_q: float | None = None,
) -> float:
    """`PutSolution` of put_max_alpha_leakage (kind 'alpha', alpha > 1) or
    put_max_f_leakage (kind 'kl' / 'hellinger'); returns the LP gap."""
    q = solution.target_output.p
    mu = None if solution.dual_certificate is None else solution.dual_certificate.p
    primal, gap = lp_gap(mask, q, mu)
    check_close(solution.q_star, primal, "q* against min(A Q*)")
    if kind == "alpha":
        expected_value = -math.log(primal)
    else:
        expected_value = float(primal * f_value(kind, alpha, 1.0 / primal) + (1 - primal) * f_zero(kind, alpha))
    check_close(solution.value, expected_value, "value against q*")
    if expected_q is not None:
        check_close(primal, expected_q, "q* against its closed form")
    check_mechanism(solution.mechanism.rows, mask)
    return gap


def aware_objective(mask: np.ndarray, prior: np.ndarray, q: np.ndarray, kind: str, alpha) -> float:
    A = mask.astype(float)
    m = A @ q
    f0 = f_zero(kind, alpha)
    return float(f0 + prior @ (m * (f_value(kind, alpha, 1.0 / m) - f0)))


def fw_gap(mask: np.ndarray, prior: np.ndarray, q: np.ndarray, kind: str, alpha) -> float:
    """Frank-Wolfe gap <grad, Q> - min_y grad_y of the convex aware-PUT
    objective; it bounds the suboptimality of Q from above."""
    A = mask.astype(float)
    m = A @ q
    require(bool(np.all(m[prior > 0] > 0)), "Q* leaves a ball of a likely input empty")
    inv = 1.0 / np.where(m > 0, m, 1.0)
    phi_prime = f_value(kind, alpha, inv) - inv * f_prime(kind, alpha, inv) - f_zero(kind, alpha)
    grad = A.T @ (prior * phi_prime)
    return float(q @ grad - grad.min())


def check_aware_put(mask: np.ndarray, prior: np.ndarray, value: float, q: np.ndarray, kind: str, alpha=None) -> float:
    """Result (value, Q) of put_f_leakage; returns the Frank-Wolfe gap."""
    _require_pmf(q, "Q")
    check_close(value, aware_objective(mask, prior, q, kind, alpha), "value against the objective at Q")
    gap = fw_gap(mask, prior, q, kind, alpha)
    require(gap <= FW_GAP_TOL * max(1.0, abs(value)), f"Frank-Wolfe gap {gap:.3e} too wide")
    return max(gap, 0.0)


# --------------------------------------------------------------------------
# Dataset closed forms


def type_cover_count(n: int, m: int) -> int:
    return -(-(n + 1) // (2 * m + 1))


def hamming_ball(n: int, m: int, q: int) -> int:
    return sum(comb(n, i) * (q - 1) ** i for i in range(m + 1))


def hamming_distances(n: int, q: int) -> np.ndarray:
    """Mismatch counts between all q-ary length-n words, lexicographic.
    Accumulated one position at a time in int8 to stay small next to the
    spec being checked."""
    words = np.array(np.unravel_index(np.arange(q**n), (q,) * n))
    d = np.zeros((q**n, q**n), dtype=np.int8)
    for digit in words:
        d += digit[:, None] != digit[None, :]
    return d


def check_spec(spec, d_expected: np.ndarray, bound: int) -> None:
    require(spec.d.shape == d_expected.shape, f"spec shape {spec.d.shape} != {d_expected.shape}")
    require(bool(np.array_equal(spec.d, d_expected)), "spec distortion values differ")
    require(spec.bound == bound, f"spec bound {spec.bound} != {bound}")


# --------------------------------------------------------------------------
# Information measures (for the CLI's measures and strategy outputs)


def renyi_entropy(p: np.ndarray, a: float) -> float:
    p = p[p > 0]
    if a == 1.0:
        return float(-(p * np.log(p)).sum())
    return float(_lse(a * np.log(p)) / (1.0 - a))


def arimoto_cond_entropy(joint: np.ndarray, a: float) -> float:
    """H_a(X | Y) for a joint with X on rows."""
    if a == 1.0:
        py = joint.sum(axis=0)
        nz = joint > 0
        return float(-(joint[nz] * np.log((joint / py[None, :])[nz])).sum())
    col_norms = _lse(a * _log(joint), axis=0) / a
    return float(a / (1.0 - a) * _lse(col_norms[np.isfinite(col_norms)]))


def tilted(posterior: np.ndarray, a: float) -> np.ndarray:
    t = np.power(posterior, a)
    return t / t.sum(axis=1, keepdims=True)
