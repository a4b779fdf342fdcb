"""Finite-alphabet probability objects and log-domain primitives (logsumexp, xlogy, tilted log-means).

Everything downstream (information measures, leakage solvers, PUT programs)
works on the three value types defined here: `Dist` (a pmf), `Channel` (a
row-stochastic conditional), and `Joint` (a joint pmf over a product
alphabet).  All types are immutable after construction and every operation
is a pure function, so concurrent use needs no locking.

Construction checks every array in one place, `_nonnegative_array`: it
must hold numbers, have its alphabets' sizes as its shape, and be finite
and nonnegative.  The simplex / row-stochastic constraints then hold to an
absolute tolerance of 1e-12.  `Dist._trusted` and `Channel._trusted`
instead keep a solver's fresh float array as it is, read-only, unchecked:
only for arrays of the right shape, finite, nonnegative and divided by
their own (row) sums by construction.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

CONSTRUCT_ATOL = 1e-12


def _nonnegative_array(values, name: str, *alphabets: Alphabet) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float, order="C")
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not an array of numbers") from None
    shape = tuple(map(len, alphabets))
    if arr.shape != shape:
        raise ValidationError(f"{name} shape {arr.shape} incompatible with alphabets {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ValidationError(f"{name} contains negative entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbol labels; order fixes the index mapping."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        # A string would give one label per character, a mapping its keys.
        if isinstance(labels, str):
            raise ValidationError(f"alphabet must be a list of labels, not the string {labels!r}")
        if isinstance(labels, Mapping) or not isinstance(labels, Iterable):
            raise ValidationError(f"alphabet must be a list of labels, not {type(labels).__name__}")
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValidationError("alphabet must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValidationError("alphabet labels must be pairwise distinct")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_size(n: int, prefix: str = "") -> "Alphabet":
        return Alphabet(f"{prefix}{i}" for i in range(n))


def _product_labels(parts: Sequence[Alphabet]) -> Alphabet:
    # Lexicographic in component label order; concatenate when every label is
    # a single character (fixed-width, so unambiguous), otherwise join on "|".
    flat = all(len(lab) == 1 for a in parts for lab in a.labels)
    sep = "" if flat else "|"
    return Alphabet(sep.join(combo) for combo in itertools.product(*(a.labels for a in parts)))


def _order(value, context: str | None = None, finite: bool = False) -> float:
    """The order alpha as the float it was given, inf included, from a
    number or a numeric string: every measure here is continuous through
    alpha = 1, so an order near 1 is not read as 1.  Without `context`
    every alpha > 0 passes; with it, alpha >= 1, or 1 < alpha < inf when
    `finite`, else ValidationError naming `context`."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ValidationError(f"alpha {value!r} is not a number") from None
    value = float(value)
    if math.isnan(value) or value <= 0:
        raise ValidationError(f"alpha must be positive, got {value}")
    if context is None:
        return value
    if finite and not 1.0 < value < math.inf:
        raise ValidationError(f"{context} requires finite alpha > 1, got {value}")
    if value < 1.0:
        raise ValidationError(f"{context} requires alpha >= 1, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability mass function over a labeled finite alphabet."""

    alphabet: Alphabet
    p: np.ndarray = field(repr=False)

    def __init__(self, alphabet: Alphabet, p):
        arr = _nonnegative_array(p, "mass", alphabet)
        if abs(arr.sum() - 1.0) > CONSTRUCT_ATOL:
            raise ValidationError(f"mass sums to {arr.sum()!r}, not 1 within {CONSTRUCT_ATOL}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "p", arr)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, p: np.ndarray) -> "Dist":
        p.flags.writeable = False
        self = object.__new__(cls)
        self.__dict__.update(alphabet=alphabet, p=p)
        return self

    @staticmethod
    def uniform(alphabet: Alphabet) -> "Dist":
        n = len(alphabet)
        return Dist(alphabet, np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic conditional distribution P(output | input)."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    rows: np.ndarray = field(repr=False)

    def __init__(self, input_alphabet: Alphabet, output_alphabet: Alphabet, rows):
        arr = _nonnegative_array(rows, "rows", input_alphabet, output_alphabet)
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > CONSTRUCT_ATOL)
        if bad.size:
            raise ValidationError(
                f"row for input {input_alphabet.labels[bad[0]]!r} sums to {sums[bad[0]]!r}"
            )
        object.__setattr__(self, "input_alphabet", input_alphabet)
        object.__setattr__(self, "output_alphabet", output_alphabet)
        object.__setattr__(self, "rows", arr)

    @classmethod
    def _trusted(cls, input_alphabet: Alphabet, output_alphabet: Alphabet, rows: np.ndarray) -> "Channel":
        rows.flags.writeable = False
        self = object.__new__(cls)
        self.__dict__.update(input_alphabet=input_alphabet, output_alphabet=output_alphabet, rows=rows)
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    @staticmethod
    def identity(alphabet: Alphabet) -> "Channel":
        return Channel(alphabet, alphabet, np.eye(len(alphabet)))


@dataclass(frozen=True, eq=False)
class Joint:
    """Joint pmf over a product alphabet; marginals are always recomputed
    from the mass matrix rather than stored."""

    row_alphabet: Alphabet
    col_alphabet: Alphabet
    m: np.ndarray = field(repr=False)

    def __init__(self, row_alphabet: Alphabet, col_alphabet: Alphabet, m):
        arr = _nonnegative_array(m, "mass", row_alphabet, col_alphabet)
        if abs(arr.sum() - 1.0) > CONSTRUCT_ATOL:
            raise ValidationError(f"total mass {arr.sum()!r} is not 1 within {CONSTRUCT_ATOL}")
        object.__setattr__(self, "row_alphabet", row_alphabet)
        object.__setattr__(self, "col_alphabet", col_alphabet)
        object.__setattr__(self, "m", arr)

    def row_marginal(self) -> Dist:
        return Dist(self.row_alphabet, self.m.sum(axis=1) / self.m.sum())

    def col_marginal(self) -> Dist:
        return Dist(self.col_alphabet, self.m.sum(axis=0) / self.m.sum())

    def swapped(self) -> "Joint":
        return Joint(self.col_alphabet, self.row_alphabet, self.m.T)


BINARY = Alphabet(("0", "1"))


def binary_channel(rho1: float, rho2: float) -> Channel:
    """2x2 channel with crossover probabilities (rho1, rho2); rho1 = rho2
    gives the binary symmetric channel."""
    if not (0.0 <= rho1 <= 1.0 and 0.0 <= rho2 <= 1.0):
        raise ValidationError("crossover probabilities must lie in [0, 1]")
    return Channel(BINARY, BINARY, [[1.0 - rho1, rho1], [rho2, 1.0 - rho2]])


def make_joint(prior: Dist, channel: Channel) -> Joint:
    """Compose a prior with a channel: mass[x][y] = prior[x] * channel[x][y]."""
    if channel.input_alphabet != prior.alphabet:
        raise ValidationError("channel input alphabet does not match prior alphabet")
    return Joint(prior.alphabet, channel.output_alphabet, prior.p[:, None] * channel.rows)


class Factorization(NamedTuple):
    marginal: Dist
    conditional: Channel
    zero_mass_inputs: tuple[str, ...]


def conditional_of(joint: Joint) -> Factorization:
    """Factor a joint into its row marginal and the conditional of columns
    given rows.

    Rows with zero marginal mass have an undefined conditional; those rows
    are set to uniform and the offending labels are reported in
    ``zero_mass_inputs`` so callers can tell reconstruction apart from
    convention.
    """
    marg = joint.m.sum(axis=1)
    n_out = len(joint.col_alphabet)
    rows = np.empty_like(joint.m)
    zero = marg <= 0.0
    rows[~zero] = joint.m[~zero] / marg[~zero, None]
    rows[zero] = 1.0 / n_out
    flagged = tuple(lab for lab, z in zip(joint.row_alphabet.labels, zero) if z)
    # Renormalize rows defensively: the division is exact up to float error.
    rows = rows / rows.sum(axis=1, keepdims=True)
    return Factorization(
        Dist(joint.row_alphabet, marg / marg.sum()),
        Channel(joint.row_alphabet, joint.col_alphabet, rows),
        flagged,
    )


def cascade(first: Channel, second: Channel) -> Channel:
    """Feed the output of `first` into `second` (matrix product)."""
    if first.output_alphabet != second.input_alphabet:
        raise ValidationError("cascade: output alphabet of first != input alphabet of second")
    rows = first.rows @ second.rows
    rows = rows / rows.sum(axis=1, keepdims=True)
    return Channel(first.input_alphabet, second.output_alphabet, rows)


def product_channel(components: Sequence[Channel]) -> Channel:
    """Memoryless parallel composition: the Kronecker product of the
    component matrices over product alphabets (lexicographic label order)."""
    if not components:
        raise ValidationError("product_channel requires at least one component")
    rows = components[0].rows
    for comp in components[1:]:
        rows = np.kron(rows, comp.rows)
    in_alpha = _product_labels([c.input_alphabet for c in components])
    out_alpha = _product_labels([c.output_alphabet for c in components])
    rows = rows / rows.sum(axis=1, keepdims=True)
    return Channel(in_alpha, out_alpha, rows)


def logsumexp(a, axis=None):
    """log sum exp(a) over `axis` (all entries when None, else that axis is
    removed), shifted by the finite maximum so that no term overflows; all
    -inf gives -inf and any +inf gives +inf, as `scipy.special.logsumexp`."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis))
    return out + np.squeeze(top, axis=axis)


def _tilted_log_mean(w, v, d):
    """T(w, v, d) = (1/d) log(sum w e^(d v) / sum w) over axis 0: the mean
    of v under the weights w >= 0 at d = 0, the max of v where w > 0 at
    d = inf.  Entries of weight 0 drop out, whatever v holds there; a
    column of no weight gives NaN (-inf at d = inf).  In a column where
    every |d v| <= 1 it is log1p(sum w expm1(d v) / sum w) / d, so neither
    the O(d) log-sum nor the slack of sum w - 1 is divided by a small d;
    in the others the logsumexp form."""
    live = w > 0
    if not live.all():
        v = np.where(live, v, -np.inf if math.isinf(d) else 0.0)
    if math.isinf(d):
        return v.max(axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        total = w.sum(axis=0)
        if d == 0.0:
            return (w * v).sum(axis=0) / total
        x = d * v
        near = np.abs(x).max(axis=0) <= 1.0
        out = np.log1p((w * np.expm1(x)).sum(axis=0) / total) if near.any() else 0.0
        if not near.all():
            out = np.where(near, out, logsumexp(np.log(w) + x, axis=0) - np.log(total))
        return out / d


def xlogy(x, y):
    """x * log(y), 0 where x == 0 and -inf (warning as `np.log(0)`) where
    x > 0 = y.  Bare ufuncs: the KL generator calls it on every f(t)."""
    return x * np.log(np.where(x == 0, 1.0, y))

