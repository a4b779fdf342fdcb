"""Scalar information measures on finite alphabets.

Covers the Renyi family (entropy, divergence), the Sibson and Arimoto
mutual informations of order alpha with their alpha = 1 and alpha = inf
extensions, f-divergences (KL, Hellinger of order alpha, user-supplied
convex generators), the k_alpha certificate divergence, and the alpha-norm
center of a family of distributions.

All values are computed and returned in nats; `LogBase` converts at the
API boundary only, so there is a single internal unit convention.

Conventions for zero probabilities follow the finite-sum semantics of the
defining expressions: 0^alpha = 0 and zero-weight terms are dropped before
any log transform.  Divergences return +inf when the support condition
fails (for orders > 1, some p(x) > 0 where q(x) = 0).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .prob import Channel, Dist, Joint, as_order, log_alpha_norm, logsumexp, xlogy

_LN2 = math.log(2.0)
_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


class LogBase(enum.Enum):
    """Output unit for logarithmic quantities; internals are always nats."""

    NATS = "nats"
    BITS = "bits"

    @staticmethod
    def parse(text: str) -> "LogBase":
        try:
            return LogBase(text.strip().lower())
        except ValueError:
            raise ValidationError(f"unknown log base {text!r} (use 'nats' or 'bits')") from None

    def from_nats(self, value: float) -> float:
        return value / _LN2 if self is LogBase.BITS else value


def _require_same_alphabet(p: Dist, q: Dist) -> None:
    if p.alphabet != q.alphabet:
        raise ValidationError("distributions live on different alphabets")


def shannon_entropy(p: np.ndarray) -> float:
    return float(-xlogy(p, p).sum())


def renyi_entropy(dist: Dist, order) -> float:
    """Renyi entropy of the given order, in nats.

    (1/(1-alpha)) log sum p^alpha for finite alpha != 1; Shannon entropy at
    alpha = 1; min-entropy -log max p at alpha = inf.
    """
    order = as_order(order)
    p = dist.p
    if order.is_one:
        return shannon_entropy(p)
    if order.is_inf:
        return float(-np.log(p.max()))
    a = order.value
    return a / (1.0 - a) * log_alpha_norm(p, order)


def renyi_divergence(p: Dist, q: Dist, order) -> float:
    """Renyi divergence D_alpha(p || q) in nats; +inf on support violation."""
    order = as_order(order)
    _require_same_alphabet(p, q)
    pv, qv = p.p, q.p
    sup = pv > 0
    if order.value >= 1.0 and np.any(sup & (qv == 0)):
        return math.inf
    if order.is_one:
        return float((pv[sup] * (np.log(pv[sup]) - np.log(qv[sup]))).sum())
    if order.is_inf:
        return float(np.log(np.max(pv[sup] / qv[sup])))
    a = order.value
    both = sup & (qv > 0)
    if not np.any(both):
        return math.inf
    log_terms = a * np.log(pv[both]) + (1.0 - a) * np.log(qv[both])
    return float(logsumexp(log_terms) / (a - 1.0))


def _log_rows(W: np.ndarray) -> np.ndarray:
    """Elementwise log of the nonnegative W, -inf where W = 0."""
    out = np.full_like(W, -np.inf)
    np.log(W, out=out, where=W > 0)
    return out


def _log_col_norms(M: np.ndarray, a: float) -> np.ndarray:
    """log ||M[:, y]||_a of every column of the nonnegative M, for finite
    a > 0; -inf for an all-zero column."""
    return logsumexp(a * _log_rows(M), axis=0) / a


def _shannon_mi_from_joint(m: np.ndarray) -> float:
    """I(X; Y) = H(X) + H(Y) - H(X, Y) of the joint pmf m."""
    return shannon_entropy(m.sum(axis=1)) + shannon_entropy(m.sum(axis=0)) - shannon_entropy(m.ravel())


def _log_sibson_sums(px: np.ndarray, W: np.ndarray, a: float) -> np.ndarray:
    """log A(y) = logsumexp_x (log P(x) + a log W(y|x)) over the support of
    P, Sibson's sums of finite order a."""
    support = px > 0
    return logsumexp(np.log(px[support])[:, None] + a * _log_rows(W[support]), axis=0)


def sibson_mi(prior: Dist, channel: Channel, order) -> float:
    """Sibson mutual information of order alpha between the channel input
    (distributed as `prior`) and its output.

    For finite alpha != 1 this is the closed form
    (alpha/(alpha-1)) log sum_y (sum_x P(x) W(y|x)^alpha)^(1/alpha),
    which equals inf_Q D_alpha(P_XY || P_X x Q).  alpha = 1 gives Shannon
    mutual information and alpha = inf gives log sum_y max_x W(y|x) with
    the max restricted to the prior's support.
    """
    order = as_order(order)
    if channel.input_alphabet != prior.alphabet:
        raise ValidationError("channel input alphabet does not match prior alphabet")
    W = channel.rows
    px = prior.p
    if order.is_one:
        return _shannon_mi_from_joint(px[:, None] * W)
    if order.is_inf:
        return float(np.log(W[px > 0].max(axis=0).sum()))
    a = order.value
    return float(a / (a - 1.0) * logsumexp(_log_sibson_sums(px, W, a) / a))


def arimoto_cond_entropy(joint: Joint, order) -> float:
    """Arimoto conditional entropy of the row variable given the column
    variable: (alpha/(1-alpha)) log sum_y ||P_XY(., y)||_alpha.

    At alpha = inf this evaluates to -log sum_y max_x P(x, y), so that
    exp(-H) is the MAP probability of correctly guessing the row variable.
    """
    order = as_order(order)
    m = joint.m
    if order.is_one:
        h = shannon_entropy(m.ravel()) - shannon_entropy(m.sum(axis=0))
    elif order.is_inf:
        h = -np.log(m.max(axis=0).sum())
    else:
        a = order.value
        # an all-zero column adds exp(-inf) = 0
        h = a / (1.0 - a) * logsumexp(_log_col_norms(m, a))
    # rounding can leave a deterministic joint (H = 0) a few ulps below 0
    return max(0.0, float(h))


def arimoto_mi(joint: Joint, order) -> float:
    """Arimoto mutual information: H_alpha(X) - H^A_alpha(X|Y)."""
    return renyi_entropy(joint.row_marginal(), order) - arimoto_cond_entropy(joint, order)


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

    `f_at_zero` is f(0) and `slope_at_inf` is lim_{t->inf} f(t)/t; both
    enter the hard-distortion PUT formulas and the q = 0 boundary terms of
    the divergence itself, and cannot be recovered from an evaluator, so
    custom generators must state them explicitly.
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


def kl_generator() -> FGenerator:
    """f(t) = t log t; its f-divergence is Kullback-Leibler."""
    return FGenerator(
        "kl", None, 0.0, math.inf, "kl",
        f=_elementwise(lambda t: xlogy(t, t)),
        fprime=_elementwise(lambda t: np.log(t) + 1.0),
        fsecond=_elementwise(lambda t: 1.0 / t),
    )


def hellinger_generator(alpha: float) -> FGenerator:
    """f_alpha(t) = (t^alpha - 1)/(alpha - 1), the Hellinger divergence of
    order alpha > 1."""
    a = as_order(alpha).finite_above_one("Hellinger generator")
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
    leakages to Hellinger f-leakages alike."""
    return float(np.expm1((alpha - 1.0) * v) / (alpha - 1.0))


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


def k_alpha(p: Dist, q: Dist, alpha: float) -> float:
    """The certificate divergence k_alpha(p || q) = sum_y q(y) (p(y)/q(y))^alpha,
    that is exp((alpha - 1) D_alpha(p || q)).

    Always >= 1 for alpha > 1, with equality iff p = q; returns +inf when p
    puts mass where q does not.
    """
    alpha = as_order(alpha).finite_above_one("k_alpha")
    return float(np.exp((alpha - 1.0) * renyi_divergence(p, q, alpha)))


def alpha_norm_center(components: Sequence[Dist], alpha: float) -> tuple[Dist, float]:
    """Center of a family of distributions under k_alpha.

    Returns (P_c, Z) with P_c(y) = (sum_k P_k(y)^alpha)^(1/alpha) / Z and Z
    the normalizer; P_c uniquely minimizes sum_k k_alpha(P_k || .) and the
    attained minimum equals Z^alpha.
    """
    alpha = as_order(alpha).finite_above_one("alpha_norm_center")
    if not components:
        raise ValidationError("alpha_norm_center requires a nonempty family")
    alphabet = components[0].alphabet
    for comp in components[1:]:
        if comp.alphabet != alphabet:
            raise ValidationError("components live on different alphabets")
    stack = np.stack([c.p for c in components])  # K x n
    col_lognorms = _log_col_norms(stack, alpha)
    log_z = logsumexp(col_lognorms)  # an all-zero column adds exp(-inf) = 0
    pc = np.exp(col_lognorms - log_z)
    pc = pc / pc.sum()
    return Dist(alphabet, pc), float(np.exp(log_z))
