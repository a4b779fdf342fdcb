import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from alphaleak import Dist, ValidationError, lp, optimal_mechanism, q_star, type_index_set
from alphaleak.datasets import (
    ENUMERATION_LIMIT,
    build_hamming_spec,
    build_type_distance_spec,
    enumerate_datasets,
    hamming_ball_size,
    hamming_crosscheck,
    hamming_put,
    representative_dataset,
    type_distance_crosscheck,
)


def test_type_index_set_covers_every_type_with_the_fewest_balls():
    # For every (n, m) with n <= 300: ceil((n+1)/(2m+1)) members, and every
    # type lies within m of the member `member_for` assigns to it.
    for n in range(1, 301):
        types = np.arange(n + 1)
        for m in range(n + 1):
            index_set = type_index_set(n, m)
            assert len(index_set.members) == -(-(n + 1) // (2 * m + 1))
            assigned = np.fromiter(map(index_set.member_for, range(n + 1)), int, n + 1)
            assert np.abs(assigned - types).max() <= m


def test_spec_distances_match_pairwise_counts():
    # the vectorized builders against a direct pairwise count
    for n, q in ((1, 2), (3, 3), (4, 2), (2, 10)):
        words = enumerate_datasets(n, q)
        d = [[sum(a != b for a, b in zip(x, y)) for y in words] for x in words]
        assert np.array_equal(build_hamming_spec(n, 1, q).d, d)
    for n in (1, 2, 9):
        d = [[abs(i - j) for j in range(n + 1)] for i in range(n + 1)]
        assert np.array_equal(build_type_distance_spec(n, 1).d, d)


def test_hamming_distances_at_the_enumeration_limit():
    # the broadcast comparison cube over the digit array is the reference
    for n, q in ((10, 2), (5, 4)):
        digits = np.array([[int(c) for c in word] for word in enumerate_datasets(n, q)])
        cube = (digits[:, None] != digits[None]).sum(-1)
        d = build_hamming_spec(n, 1, q).d
        assert d.dtype == np.float64 and np.array_equal(d, cube)


def test_hamming_spec_build_peak_memory():
    # 1024 datasets: d is 8.4 MB of float64 and the ball mask 1 MB; an
    # (N, N, n) comparison array with its int64 sum would take the peak past 20 MB
    tracemalloc.start()
    try:
        build_hamming_spec(10, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_hamming_put_against_60_digit_arithmetic():
    # n <= 40, q <= 10, every m: log(q^n / ball_size) to 4.4e-16 relative,
    # never below +0.0, and exactly +0.0 where the ball is the whole space
    with mpmath.workdps(60):
        for n in range(1, 41):
            for q in range(2, 11):
                for m in range(n + 1):
                    value = hamming_put(n, m, q).value
                    assert math.copysign(1.0, value) == 1.0, (n, m, q)
                    if m == n:
                        assert value == 0.0, (n, q)
                        continue
                    want = n * mpmath.log(q) - mpmath.log(hamming_ball_size(n, m, q))
                    assert abs(value - want) <= 4.4e-16 * want, (n, m, q)


def test_hamming_crosscheck_up_to_256_points():
    specs = [(n, m, q) for q in range(2, 11) for n in range(1, 9) if q**n <= 256 for m in range(min(n, 2) + 1)]
    assert len(specs) == 84
    for n, m, q in specs:
        assert hamming_crosscheck(n, m, q), (n, m, q)


def test_type_distance_crosscheck_grid():
    for n in (1, 2, 3, 5, 8, 13, 25, 50, 80, 120, 160, 200):
        for m in sorted({0, 1, 2, 3, n // 8, n // 4, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            assert type_distance_crosscheck(n, m), (n, m)


def test_type_distance_crosscheck_up_to_the_enumeration_limit():
    # n + 1 = 1024 types: an interval game, solved by greedy piercing
    for n in (500, 1023):
        for m in (0, 1, 10, n // 3, n):
            assert type_distance_crosscheck(n, m), (n, m)
    with pytest.raises(ValidationError):
        type_distance_crosscheck(ENUMERATION_LIMIT, 1)


def test_type_distance_q_star_needs_no_tableau(monkeypatch):
    # Type balls are runs of consecutive types: greedy piercing puts Q* on
    # as many outputs as the index set has members, each with mass 1/count.
    def refuse(*args):
        raise AssertionError("refinement or the tableau ran on a type-distance spec")

    monkeypatch.setattr(lp, "_simplex", refuse)
    monkeypatch.setattr(lp, "_equitable_partition", refuse)
    for n in (500, 1023):
        for m in (0, 1, 5, 40, n // 3, n // 2 + 1):
            count = len(type_index_set(n, m).members)
            game = q_star(build_type_distance_spec(n, m))
            if game.value < 1.0:
                assert game.gap == 0.0 and game.value == 1.0 / count
                assert np.count_nonzero(game.q) == count
            else:
                assert count == 1


def test_uniform_ball_mechanism_is_uniform_on_each_ball():
    # the uniform law restricted to each ball puts 1/|ball| inside the
    # Hamming ball and exactly 0 outside; its rows sum to 1
    for n, m, q in ((3, 1, 2), (2, 1, 3)):
        ball_size = hamming_put(n, m, q).ball_size
        spec = build_hamming_spec(n, m, q)
        rows = optimal_mechanism(Dist.uniform(spec.output_alphabet), spec).rows
        words = enumerate_datasets(n, q)
        for x, row in zip(words, rows, strict=True):
            inside = np.array([sum(a != b for a, b in zip(x, y)) <= m for y in words])
            assert np.abs(row[inside] - 1.0 / ball_size).max() <= 1e-16
            assert np.all(row[~inside] == 0.0)
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.array_equal(rows > 0, spec.ball_mask)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: type_index_set(0, 0), r"need n >= 1 and 0 <= m <= n, got \(n, m\) = \(0, 0\)"),
        (lambda: type_index_set(3, 4), r"got \(n, m\) = \(3, 4\)"),
        (lambda: type_index_set(3, -1), r"got \(n, m\) = \(3, -1\)"),
        (lambda: type_index_set(4, 1).member_for(5), r"type index 5 outside \[0, 4\]"),
        (lambda: type_index_set(4, 1).member_for(-1), r"type index -1 outside \[0, 4\]"),
        (lambda: representative_dataset(4, 5), r"type class index 5 outside \[0, 4\]"),
        (lambda: hamming_ball_size(3, 1, 1), "alphabet size must be >= 2, got 1"),
        (lambda: enumerate_datasets(2, 11), r"alphabet sizes 2..10, got 11"),
        (lambda: enumerate_datasets(11, 2), rf"q\^n = 2048 exceeds the enumeration limit {ENUMERATION_LIMIT}"),
    ],
    ids=["n-zero", "m-above-n", "m-negative", "member-above-n", "member-negative", "representative",
         "ball-q-1", "enumerate-q-11", "enumerate-past-limit"],
)
def test_range_checks(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
