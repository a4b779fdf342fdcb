"""Closed-form dataset tradeoffs: type-distance and Hamming hard distortion.

Binary length-n datasets split into n + 1 type classes T(i) (datasets with
exactly i ones).  Under the type-distance distortion |type(x) - type(y)|
<= m/n, the optimal tradeoff for every order above one is log of the
number of balls needed to cover the type line, ceil((n+1)/(2m+1)), and an
optimal mechanism collapses each input type class onto one representative
dataset of a selected output class.  Under Hamming distortion the optimal
value is the log-ratio of the space size to the Hamming ball size, attained
by the mechanism uniform over each ball (`hamming_put`).

All combinatorics are exact integers; floats appear only in the final
logarithms.  Cross-checks re-derive each closed form through the generic
maximin solver (`put.q_star`) on an explicitly materialized distortion
spec.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ValidationError
from .prob import Alphabet
from .put import DistortionSpec, q_star

ENUMERATION_LIMIT = 1024  # largest q**n materialized as an explicit spec


def _check_nm(n: int, m: int) -> None:
    if n < 1 or m < 0 or m > n:
        raise ValidationError(f"need n >= 1 and 0 <= m <= n, got (n, m) = ({n}, {m})")


@dataclass(frozen=True)
class TypeIndexSet:
    """Arithmetic progression of output type indices with gap 2m + 1.

    The balls {i : |i - j| <= m} around the members partition [0, n], so
    every input type has exactly one reachable member.
    """

    n: int
    m: int
    offset: int
    members: tuple[int, ...]

    def member_for(self, i: int) -> int:
        if not 0 <= i <= self.n:
            raise ValidationError(f"type index {i} outside [0, {self.n}]")
        gap = 2 * self.m + 1
        k = min(max((i - self.offset + self.m) // gap, 0), len(self.members) - 1)
        j = self.members[k]
        if abs(i - j) > self.m:
            raise AssertionError(f"partition property violated at type {i}")
        return j


def type_index_set(n: int, m: int) -> TypeIndexSet:
    _check_nm(n, m)
    gap = 2 * m + 1
    count = -(-(n + 1) // gap)
    # The first member sits at m unless the last ball would then pass n,
    # that is unless ceil((n+1)/(2m+1)) > (n+m+1)/(2m+1); the members are
    # then shifted down to end at n.
    offset = m if count * gap <= n + m + 1 else n - (count - 1) * gap
    members = tuple(offset + gap * k for k in range(count))
    return TypeIndexSet(n=n, m=m, offset=offset, members=members)


def representative_dataset(n: int, ones: int) -> str:
    """Lexicographically smallest binary dataset in type class T(ones).

    Any member of the class is equally optimal as the mechanism's output;
    the smallest one is picked to make results reproducible.
    """
    if not 0 <= ones <= n:
        raise ValidationError(f"type class index {ones} outside [0, {n}]")
    return "0" * (n - ones) + "1" * ones


@dataclass(frozen=True)
class TypePutResult:
    value: float  # nats
    index_set: TypeIndexSet
    type_map: dict[int, int]  # input type -> output type


def type_distance_put(n: int, m: int) -> TypePutResult:
    """Optimal tradeoff log ceil((n+1)/(2m+1)) for binary datasets under
    type distance at most m/n, with the covering index set and the induced
    type-to-type mechanism descriptor."""
    idx = type_index_set(n, m)
    value = math.log(len(idx.members))
    type_map = {i: idx.member_for(i) for i in range(n + 1)}
    return TypePutResult(value=value, index_set=idx, type_map=type_map)


def build_type_distance_spec(n: int, m: int) -> DistortionSpec:
    """Collapsed (n+1)-type distortion spec: d(i, j) = |i - j| with bound m.

    Exact integer distortion values keep ball membership free of float
    comparisons; the collapse is lossless because all datasets in a type
    class share the same feasible output set.
    """
    _check_nm(n, m)
    types = Alphabet(str(i) for i in range(n + 1))
    i = np.arange(n + 1)
    return DistortionSpec(types, types, np.abs(i[:, None] - i[None]), m)


def type_distance_crosscheck(n: int, m: int, tol: float = 1e-9) -> bool:
    """Re-derive the type-distance value through `q_star` on the explicit
    spec.  Its type balls are intervals, so `q_star` solves it by greedy
    piercing rather than the LP: the check compares the number of points
    the greedy picks with the ceil((n+1)/(2m+1)) formula, two independent
    derivations."""
    if n + 1 > ENUMERATION_LIMIT:
        raise ValidationError(f"crosscheck is limited to n + 1 <= {ENUMERATION_LIMIT} types")
    game = q_star(build_type_distance_spec(n, m))
    return abs(-math.log(game.value) - type_distance_put(n, m).value) < tol


def hamming_ball_size(n: int, m: int, q: int) -> int:
    """Exact size of a radius-m Hamming ball in an alphabet of size q:
    sum_{i=0}^{m} C(n, i) (q-1)^i."""
    _check_nm(n, m)
    if q < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {q}")
    return sum(comb(n, i) * (q - 1) ** i for i in range(m + 1))


@dataclass(frozen=True)
class HammingPutResult:
    value: float  # nats
    ball_size: int


def hamming_put(n: int, m: int, q: int) -> HammingPutResult:
    """Optimal tradeoff log(q^n / ball_size) under Hamming distortion at
    most m/n, achieved by the mechanism uniform over each ball: 1/ball_size
    on every output within distance m of the input.  For q^n within
    `ENUMERATION_LIMIT` it is
    `optimal_mechanism(Dist.uniform(spec.output_alphabet), spec)` with
    `spec = build_hamming_spec(n, m, q)`.  It is log Q + log1p(R / (Q ball_size))
    for q^n = Q ball_size + R, exactly +0.0 where the ball is the whole space."""
    ball = hamming_ball_size(n, m, q)
    quotient, remainder = divmod(q**n, ball)
    value = math.log(quotient) + math.log1p(remainder / (quotient * ball))
    return HammingPutResult(value=value, ball_size=ball)


def enumerate_datasets(n: int, q: int) -> list[str]:
    """All q-ary length-n datasets in lexicographic order."""
    if q < 2 or q > 10:
        raise ValidationError(f"enumeration supports alphabet sizes 2..10, got {q}")
    if q**n > ENUMERATION_LIMIT:
        raise ValidationError(f"q^n = {q**n} exceeds the enumeration limit {ENUMERATION_LIMIT}")
    digits = "0123456789"[:q]
    return ["".join(t) for t in itertools.product(digits, repeat=n)]


def build_hamming_spec(n: int, m: int, q: int) -> DistortionSpec:
    """Explicit q^n x q^n spec with integer mismatch counts and bound m."""
    _check_nm(n, m)
    datasets = enumerate_datasets(n, q)
    alpha = Alphabet(datasets)
    digits = np.frombuffer("".join(datasets).encode(), dtype=np.uint8).reshape(-1, n)
    # count one position at a time, so no N x N x n comparison array is built
    d = np.zeros((len(datasets),) * 2, dtype=np.min_scalar_type(n))
    for column in digits.T:
        d += column[:, None] != column[None]
    return DistortionSpec(alpha, alpha, d, m)


def hamming_crosscheck(n: int, m: int, q: int, tol: float = 1e-9) -> bool:
    """Re-derive the Hamming value through the maximin LP on the explicit
    spec; for binary alphabets additionally confirm that Hamming balls
    nest inside type balls, so the Hamming value dominates the
    type-distance value."""
    game = q_star(build_hamming_spec(n, m, q))
    closed = hamming_put(n, m, q).value
    ok = abs(-math.log(game.value) - closed) < tol
    if q == 2:
        ok = ok and closed >= type_distance_put(n, m).value - tol
    return ok
