"""Scalar information measures on finite alphabets.

Covers the Renyi family (entropy, divergence), the Sibson and Arimoto
mutual informations of order alpha, and f-divergences (KL, Hellinger of
order alpha, user-supplied convex generators).  Each order-alpha measure is
one or two tilted log-means T(w, v, d) = (1/d) log(sum w e^(d v) / sum w)
(`prob._tilted_log_mean`) with d = alpha - 1 or 1 - 1/alpha, so the
Shannon quantities at alpha = 1 and the max forms at alpha = inf are the
limits of the same formula, not separate branches, and the formula keeps
its accuracy as alpha approaches 1.

Orders are plain floats, inf included (`prob._order` reads and checks
them).  All values are computed and returned in nats; the CLI's --base
converts at the output only, so there is a single internal unit convention.

Conventions for zero probabilities follow the finite-sum semantics of the
defining expressions: 0^alpha = 0 and zero-weight terms are dropped before
any log transform.  Divergences return +inf when the support condition
fails (for orders > 1, some p(x) > 0 where q(x) = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .errors import IncompatibleGeneratorError, ValidationError
from .prob import Channel, Dist, Joint, _order, _tilted_log_mean, xlogy

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _at_least_zero(value: float) -> float:
    """A nonnegative quantity that rounding left at or below 0, -0.0
    included, as +0.0; NaN passes (`max(0.0, value)` would turn it into 0)."""
    return 0.0 if value <= 0.0 else value


def _require_same_alphabet(p: Dist, q: Dist) -> None:
    if p.alphabet != q.alphabet:
        raise ValidationError("distributions live on different alphabets")


def renyi_entropy(dist: Dist, order) -> float:
    """Renyi entropy of the given order, in nats: -T(P, log P, alpha - 1)
    (`_tilted_log_mean`), which is (1/(1-alpha)) log sum p^alpha, Shannon
    entropy at alpha = 1 and min-entropy -log max p at alpha = inf.  A point
    mass gives +0.0."""
    p = dist.p
    return 0.0 - float(_tilted_log_mean(p, _log_rows(p), _order(order) - 1.0))


def renyi_divergence(p: Dist, q: Dist, order) -> float:
    """Renyi divergence D_alpha(p || q) = T(p, log p - log q, alpha - 1) in
    nats (`_tilted_log_mean`); +inf on support violation at alpha >= 1,
    where some log p - log q is +inf."""
    a = _order(order)
    _require_same_alphabet(p, q)
    sup = p.p > 0
    pv, qv = p.p[sup], q.p[sup]
    return float(_tilted_log_mean(pv, np.log(pv) - _log_rows(qv), a - 1.0))


def _log_rows(W: np.ndarray) -> np.ndarray:
    """Elementwise log of the nonnegative W, -inf where W = 0."""
    out = np.full_like(W, -np.inf)
    np.log(W, out=out, where=W > 0)
    return out


def _mean_over_outputs(m: np.ndarray, num: np.ndarray, a: float) -> float:
    """T(P_Y, r, 1 - 1/a) with r_y = T(m(., y), log(num(., y) / P_Y(y)), a - 1)
    over x (`_tilted_log_mean`), P_Y the column sums of the joint mass m."""
    py = m.sum(axis=0)
    r = _tilted_log_mean(m, _log_rows(num / np.where(py > 0, py, 1.0)), a - 1.0)
    return float(_tilted_log_mean(py, r, 1.0 - 1.0 / a))


def sibson_mi(prior: Dist, channel: Channel, order) -> float:
    """Sibson mutual information of order alpha between the channel input
    (distributed as `prior`) and its output.

    It is T(P_Y, r, 1 - 1/alpha) with r_y = T(P(x) W(y|x),
    log(W(y|x) / P_Y(y)), alpha - 1) over x (`_mean_over_outputs`): for
    finite alpha != 1 the closed form
    (alpha/(alpha-1)) log sum_y (sum_x P(x) W(y|x)^alpha)^(1/alpha),
    which equals inf_Q D_alpha(P_XY || P_X x Q); Shannon mutual information
    at alpha = 1; log sum_y max_x W(y|x), the max restricted to the prior's
    support, at alpha = inf.
    """
    if channel.input_alphabet != prior.alphabet:
        raise ValidationError("channel input alphabet does not match prior alphabet")
    W = channel.rows
    return _at_least_zero(_mean_over_outputs(prior.p[:, None] * W, W, _order(order)))


def arimoto_cond_entropy(joint: Joint, order) -> float:
    """Arimoto conditional entropy of the row variable given the column
    variable: (alpha/(1-alpha)) log sum_y ||P_XY(., y)||_alpha.

    It is -T(P_Y, r, 1 - 1/alpha) with r_y = T(P_XY(., y), log P(x|y),
    alpha - 1) over x (`_mean_over_outputs`), the Shannon conditional entropy
    at alpha = 1.  At alpha = inf this evaluates to -log sum_y max_x P(x, y),
    so that exp(-H) is the MAP probability of correctly guessing the row
    variable.
    """
    # rounding can leave a deterministic joint (H = 0) a few ulps below 0
    return _at_least_zero(-_mean_over_outputs(joint.m, joint.m, _order(order)))


def arimoto_mi(joint: Joint, order) -> float:
    """Arimoto mutual information: H_alpha(X) - H^A_alpha(X|Y)."""
    return _at_least_zero(renyi_entropy(joint.row_marginal(), order) - arimoto_cond_entropy(joint, order))


# --------------------------------------------------------------------------
# f-divergences


_CONVEXITY_PROBES = 10_000
_CONVEXITY_SEED = 20240817


def _elementwise(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """`fn` of float arrays, applied to the array of t; a float for scalar t."""

    def apply(t):
        out = fn(np.asarray(t, dtype=float))
        return out if out.ndim else float(out)

    return apply


@dataclass(frozen=True)
class FGenerator:
    """Convex generator f with f(1) = 0 defining an f-divergence.

    `f` (also at t = 0), `fprime` and `fsecond` are f, f' and f'' on t > 0,
    elementwise, supplied by the constructor.  Equality ignores them: KL
    generators are equal, Hellinger ones by alpha, custom ones by `fn` and
    constants.

    `f_at_zero` is f(0) and `slope_at_inf` is lim_{t->inf} f(t)/t: the q = 0
    terms of the divergence (and f(0) a custom `phi`) need them, and no
    evaluator gives them, so custom generators must state them explicitly.
    """

    kind: str  # "kl" | "hellinger" | "custom"
    alpha: float | None
    f_at_zero: float
    slope_at_inf: float
    label: str
    f: Callable = field(compare=False, repr=False)
    fprime: Callable = field(compare=False, repr=False)
    fsecond: Callable = field(compare=False, repr=False)
    _fn: Callable[[float], float] | None = None

    def phi(self, m):
        """(phi, phi', phi'') elementwise at ball masses m in (0, 1], where
        phi(m) = m f(1/m) + (1 - m) f(0) values a ball in both hard-distortion
        PUTs.  KL's phi is v = -log m, Hellinger's expm1((alpha - 1) v)/(alpha - 1)
        (no f(0) to cancel), both with phi' = -m^(-alpha), phi'' = alpha m^(-alpha-1)
        (alpha = 1 for KL); a custom generator's comes from f, f' and f''."""
        if self.kind == "custom":
            if math.isinf(self.f_at_zero):
                raise IncompatibleGeneratorError(f"generator {self.label!r} has f(0) = +inf: it cannot support the "
                                                 "zero mechanism entries a hard distortion constraint forces")
            t, f0 = 1.0 / m, self.f_at_zero
            f = self.f(t)
            return f0 + m * (f - f0), f - t * self.fprime(t) - f0, self.fsecond(t) * t**3
        a = 1.0 if self.alpha is None else self.alpha
        with np.errstate(over="ignore"):  # +inf past the largest float
            v, power = -np.log(m), np.power(m, -a)
            return (np.expm1((a - 1.0) * v) / (a - 1.0) if a > 1.0 else v), -power, a * power / m


@cache
def kl_generator() -> FGenerator:
    """f(t) = t log t, whose f-divergence is Kullback-Leibler; built once."""
    return FGenerator(
        "kl", None, 0.0, math.inf, "kl",
        f=_elementwise(lambda t: xlogy(t, t)),
        fprime=_elementwise(lambda t: np.log(t) + 1.0),
        fsecond=_elementwise(lambda t: 1.0 / t),
    )


def hellinger_generator(alpha: float) -> FGenerator:
    """f_alpha(t) = (t^alpha - 1)/(alpha - 1), the Hellinger divergence of
    order alpha > 1."""
    a = _order(alpha, "Hellinger generator", finite=True)
    return FGenerator(
        "hellinger", a, -1.0 / (a - 1.0), math.inf, f"hellinger({a:g})",
        f=_elementwise(lambda t: (np.power(t, a) - 1.0) / (a - 1.0)),
        fprime=_elementwise(lambda t: a * np.power(t, a - 1.0) / (a - 1.0)),
        fsecond=_elementwise(lambda t: a * np.power(t, a - 2.0)),
    )


def custom_generator(
    fn: Callable[[float], float],
    f_at_zero: float,
    slope_at_inf: float,
    label: str = "custom",
) -> FGenerator:
    """Wrap a user-supplied convex f with f(1) = 0.

    Convexity is not machine-checkable from an evaluator; construction runs
    10^4 seeded random chord probes on [0, 1e4] and rejects any violation
    beyond 1e-9 (relative to the chord scale).  f' and f'' are central
    differences of `fn`.
    """
    if abs(fn(1.0)) > 1e-12:
        raise ValidationError(f"generator must satisfy f(1) = 0, got f(1) = {fn(1.0)!r}")
    rng = np.random.default_rng(_CONVEXITY_SEED)
    t1 = np.concatenate([rng.uniform(0.0, 2.0, _CONVEXITY_PROBES // 2),
                         np.exp(rng.uniform(np.log(1e-4), np.log(1e4), _CONVEXITY_PROBES // 2))])
    t2 = np.concatenate([rng.uniform(0.0, 2.0, _CONVEXITY_PROBES // 2),
                         np.exp(rng.uniform(np.log(1e-4), np.log(1e4), _CONVEXITY_PROBES // 2))])
    lam = rng.uniform(0.0, 1.0, _CONVEXITY_PROBES)
    fv = np.vectorize(fn, otypes=[float])
    chord = lam * fv(t1) + (1.0 - lam) * fv(t2)
    mid = fv(lam * t1 + (1.0 - lam) * t2)
    scale = np.maximum(1.0, np.abs(chord))
    if np.any(mid - chord > 1e-9 * scale):
        raise ValidationError("custom generator failed random convexity probes")
    f_at_zero = float(f_at_zero)

    def f(t):
        # `fn` is called off t = 0 only: it need not be defined there.
        t = np.asarray(t)
        out = np.full(t.shape, f_at_zero)
        out[t != 0.0] = fv(t[t != 0.0])
        return out

    def fprime(t):
        # eps^(1/3) balances the O(h^2) truncation error of the central
        # difference against the O(eps / h) rounding error.
        h = _CBRT_EPS * np.maximum(np.abs(t), 1e-6)
        return (f(t + h) - f(np.maximum(t - h, 0.0))) / (h + np.minimum(t, h))

    def fsecond(t):
        h = 1e-4 * t
        return (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)

    return FGenerator(
        "custom", None, f_at_zero, float(slope_at_inf), label,
        _elementwise(f), _elementwise(fprime), _elementwise(fsecond), fn,
    )


def _hellinger_image(v: float, alpha: float) -> float:
    """v -> expm1((alpha - 1) v)/(alpha - 1), which takes a Renyi divergence
    of order alpha to the Hellinger divergence of that order, and Sibson
    leakages to Hellinger f-leakages alike; +inf past the largest float."""
    d = alpha - 1.0
    with np.errstate(over="ignore"):
        return float(np.expm1(d * v) / d)


def f_divergence(p: Dist, q: Dist, gen: FGenerator) -> float:
    """D_f(p || q) = sum_{q(y)>0} q(y) f(p(y)/q(y)) + p(q = 0) * lim f(t)/t;
    Hellinger as the image of D_alpha(p || q): q f(p/q) overflows where q is tiny."""
    if gen.kind == "hellinger":
        return _hellinger_image(renyi_divergence(p, q, gen.alpha), gen.alpha)
    _require_same_alphabet(p, q)
    pv, qv = p.p, q.p
    pos = qv > 0
    val = float((qv[pos] * gen.f(pv[pos] / qv[pos])).sum())
    escaped = float(pv[~pos].sum())
    if escaped > 0.0:
        val = val + escaped * gen.slope_at_inf if math.isfinite(gen.slope_at_inf) else math.inf
    return val
