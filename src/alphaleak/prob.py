"""Finite-alphabet probability objects and log-domain primitives (logsumexp, xlogy, alpha-norms).

Everything downstream (information measures, leakage solvers, PUT programs)
works on the three value types defined here: `Dist` (a pmf), `Channel` (a
row-stochastic conditional), and `Joint` (a joint pmf over a product
alphabet).  All types are immutable after construction and every operation
is a pure function, so concurrent use needs no locking.

Construction validates the simplex / row-stochastic constraints to an
absolute tolerance of 1e-12; derived-quantity assertions elsewhere use the
looser 1e-9 so accumulated float error is not mistaken for bad input.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

CONSTRUCT_ATOL = 1e-12
DERIVED_ATOL = 1e-9

# |alpha - 1| below this routes to the alpha = 1 (continuous-extension)
# branch; the finite-alpha formulas are numerically indeterminate there.
ALPHA_ONE_SNAP = 1e-9


def _nonnegative_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ValidationError(f"{name} contains negative entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _json_fields(obj, **parsers) -> list:
    """The entries of the JSON object `obj` named in `parsers`, each parsed
    by its parser; ValidationError names a missing key or a bad entry."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
    values = []
    for key, parse in parsers.items():
        if key not in obj:
            raise ValidationError(f"JSON object has no {key!r} key")
        try:
            values.append(parse(obj[key]))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad {key!r} entry: {exc}") from None
    return values


_floats = functools.partial(np.asarray, dtype=float)


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbol labels; order fixes the index mapping."""

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValidationError("alphabet must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValidationError("alphabet labels must be pairwise distinct")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"label {label!r} not in alphabet") from None

    @staticmethod
    def of_size(n: int, prefix: str = "") -> "Alphabet":
        return Alphabet(f"{prefix}{i}" for i in range(n))


def _product_labels(parts: Sequence[Alphabet]) -> Alphabet:
    # Lexicographic in component label order; concatenate when every label is
    # a single character (fixed-width, so unambiguous), otherwise join on "|".
    flat = all(len(lab) == 1 for a in parts for lab in a.labels)
    sep = "" if flat else "|"
    return Alphabet(sep.join(combo) for combo in itertools.product(*(a.labels for a in parts)))


@dataclass(frozen=True)
class AlphaOrder:
    """Order parameter alpha in (0, inf]; alpha = 1 and inf are the
    continuous extensions and get dedicated code paths everywhere."""

    value: float

    def __init__(self, value):
        if isinstance(value, AlphaOrder):
            value = value.value
        value = float(value)
        if math.isnan(value) or value <= 0:
            raise ValidationError(f"alpha must be positive, got {value}")
        if abs(value - 1.0) < ALPHA_ONE_SNAP:
            value = 1.0
        object.__setattr__(self, "value", value)

    @property
    def is_one(self) -> bool:
        return self.value == 1.0

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def is_finite_gt_one(self) -> bool:
        return not self.is_one and not self.is_inf

    def require_at_least_one(self, context: str) -> "AlphaOrder":
        if self.value < 1.0:
            raise ValidationError(f"{context} requires alpha >= 1, got {self.value}")
        return self

    def __repr__(self):
        return f"AlphaOrder({'inf' if self.is_inf else self.value})"


def as_order(order) -> AlphaOrder:
    """Coerce a float, the string 'inf', or an AlphaOrder to AlphaOrder."""
    if isinstance(order, AlphaOrder):
        return order
    if isinstance(order, str):
        return AlphaOrder(math.inf if order.strip().lower() in ("inf", "infinity") else float(order))
    return AlphaOrder(order)


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability mass function over a labeled finite alphabet."""

    alphabet: Alphabet
    p: np.ndarray = field(repr=False)

    def __init__(self, alphabet: Alphabet, p):
        arr = _nonnegative_array(p, "mass", ndim=1)
        if len(arr) != len(alphabet):
            raise ValidationError(f"mass length {len(arr)} != alphabet size {len(alphabet)}")
        if abs(arr.sum() - 1.0) > CONSTRUCT_ATOL:
            raise ValidationError(f"mass sums to {arr.sum()!r}, not 1 within {CONSTRUCT_ATOL}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "p", arr)

    def __len__(self) -> int:
        return len(self.p)

    def __getitem__(self, label: str) -> float:
        return float(self.p[self.alphabet.index(label)])

    @staticmethod
    def uniform(alphabet: Alphabet) -> "Dist":
        n = len(alphabet)
        return Dist(alphabet, np.full(n, 1.0 / n))

    @staticmethod
    def from_json(obj: dict) -> "Dist":
        return Dist(*_json_fields(obj, alphabet=Alphabet, mass=_floats))

    def to_json(self) -> dict:
        return {"alphabet": list(self.alphabet.labels), "mass": [float(v) for v in self.p]}

    def allclose(self, other: "Dist", atol: float = DERIVED_ATOL) -> bool:
        return self.alphabet == other.alphabet and bool(np.allclose(self.p, other.p, atol=atol, rtol=0))


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic conditional distribution P(output | input)."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    rows: np.ndarray = field(repr=False)

    def __init__(self, input_alphabet: Alphabet, output_alphabet: Alphabet, rows):
        arr = _nonnegative_array(rows, "rows", ndim=2)
        if arr.shape != (len(input_alphabet), len(output_alphabet)):
            raise ValidationError(
                f"rows shape {arr.shape} incompatible with alphabets "
                f"({len(input_alphabet)}, {len(output_alphabet)})"
            )
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > CONSTRUCT_ATOL)
        if bad.size:
            raise ValidationError(
                f"row for input {input_alphabet.labels[bad[0]]!r} sums to {sums[bad[0]]!r}"
            )
        object.__setattr__(self, "input_alphabet", input_alphabet)
        object.__setattr__(self, "output_alphabet", output_alphabet)
        object.__setattr__(self, "rows", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    def row(self, label: str) -> np.ndarray:
        return self.rows[self.input_alphabet.index(label)]

    @staticmethod
    def identity(alphabet: Alphabet) -> "Channel":
        return Channel(alphabet, alphabet, np.eye(len(alphabet)))

    @staticmethod
    def from_json(obj: dict) -> "Channel":
        return Channel(*_json_fields(obj, input=Alphabet, output=Alphabet, rows=_floats))

    def to_json(self) -> dict:
        return {
            "input": list(self.input_alphabet.labels),
            "output": list(self.output_alphabet.labels),
            "rows": [[float(v) for v in row] for row in self.rows],
        }


@dataclass(frozen=True, eq=False)
class Joint:
    """Joint pmf over a product alphabet; marginals are always recomputed
    from the mass matrix rather than stored."""

    row_alphabet: Alphabet
    col_alphabet: Alphabet
    m: np.ndarray = field(repr=False)

    def __init__(self, row_alphabet: Alphabet, col_alphabet: Alphabet, m):
        arr = _nonnegative_array(m, "mass", ndim=2)
        if arr.shape != (len(row_alphabet), len(col_alphabet)):
            raise ValidationError(
                f"mass shape {arr.shape} incompatible with alphabets "
                f"({len(row_alphabet)}, {len(col_alphabet)})"
            )
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

    @staticmethod
    def from_json(obj: dict) -> "Joint":
        return Joint(*_json_fields(obj, rows=Alphabet, cols=Alphabet, mass=_floats))

    def to_json(self) -> dict:
        return {
            "rows": list(self.row_alphabet.labels),
            "cols": list(self.col_alphabet.labels),
            "mass": [[float(v) for v in row] for row in self.m],
        }


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


def xlogy(x, y):
    """x * log(y), 0 where x == 0 and -inf (warning as `np.log(0)`) where
    x > 0 = y.  Bare ufuncs: the KL generator calls it on every f(t)."""
    return x * np.log(np.where(x == 0, 1.0, y))


def log_alpha_norm(values, order) -> float:
    """log of the alpha-norm (sum v_i^alpha)^(1/alpha) of a nonnegative vector.

    Computed in the log domain with max-factoring so it survives alpha up
    to ~1e3 where the linear-domain power sum would under/overflow.  Zero
    entries are dropped before the log transform (0^alpha = 0); an all-zero
    vector maps to -inf.  order = 1 gives log of the plain sum and
    order = inf gives log of the max.
    """
    order = as_order(order)
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValidationError("log_alpha_norm expects a vector")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValidationError("log_alpha_norm requires finite nonnegative entries")
    pos = v[v > 0]
    if pos.size == 0:
        return -math.inf
    if order.is_inf:
        return float(np.log(pos.max()))
    logs = np.log(pos)
    if order.is_one:
        return float(logsumexp(logs))
    a = order.value
    return float(logsumexp(a * logs) / a)
