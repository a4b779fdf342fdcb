"""The covering LP on the coarsest equitable partition of the ball matrix."""

import numpy as np
import pytest
from scipy.optimize import linprog

from alphaleak import lp
from alphaleak.datasets import build_hamming_spec, build_type_distance_spec
from util import covering_random_spec


def highs_value(A: np.ndarray) -> float:
    n_in, n_out = A.shape
    res = linprog(
        c=np.r_[np.zeros(n_out), -1.0],
        A_ub=np.hstack([-A, np.ones((n_in, 1))]),
        b_ub=np.zeros(n_in),
        A_eq=np.r_[np.ones(n_out), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * n_out + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def random_01(rng, n_in, n_out) -> np.ndarray:
    A = (rng.random((n_in, n_out)) < rng.uniform(0.1, 0.6)).astype(float)
    A[np.arange(n_in), rng.integers(0, n_out, n_in)] = 1.0
    return A


def circulant(rng, n) -> np.ndarray:
    first = rng.random(n) < rng.uniform(0.1, 0.5)
    first[rng.integers(n)] = True
    return np.array([np.roll(first, k) for k in range(n)], dtype=float)


def planted_games(rng):
    """Games with planted symmetry, each with its rows and columns shuffled."""
    for k in range(60):
        kind = k % 4
        if kind == 0:
            A = circulant(rng, int(rng.integers(16, 60)))
        elif kind == 1:
            small = random_01(rng, int(rng.integers(3, 7)), int(rng.integers(3, 7)))
            A = np.kron(small, circulant(rng, int(rng.integers(6, 11))))
        elif kind == 2:
            small = random_01(rng, int(rng.integers(3, 6)), int(rng.integers(2, 5)))
            A = np.kron(np.kron(small, np.ones((2, 3))), random_01(rng, 3, 3))
        else:  # every row and column of a random game, some of them repeated
            base = random_01(rng, int(rng.integers(5, 30)), int(rng.integers(5, 30)))
            rows = np.r_[np.arange(base.shape[0]), rng.integers(0, base.shape[0], 20)]
            cols = np.r_[np.arange(base.shape[1]), rng.integers(0, base.shape[1], 20)]
            A = base[rows][:, cols]
        yield kind, A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]


def assert_equitable(A: np.ndarray, rows: np.ndarray, cols: np.ndarray, N: np.ndarray) -> None:
    # every input of class i has N[i, j] outputs of class j in its ball,
    # and every output of class j lies in the balls of the same number of
    # inputs of each class
    for x in range(A.shape[0]):
        counts = [A[x, cols == j].sum() for j in range(N.shape[1])]
        assert counts == list(N[rows[x]])
    for j in range(N.shape[1]):
        members = np.flatnonzero(cols == j)
        per_class = [[A[rows == i, y].sum() for i in range(N.shape[0])] for y in members]
        assert all(c == per_class[0] for c in per_class)


def test_planted_symmetry_is_found_and_solved_exactly():
    rng = np.random.default_rng(71)
    for kind, A in planted_games(rng):
        classes = lp._equitable_partition(A.shape, *np.nonzero(A))
        assert classes is not None  # every game above has a nontrivial symmetry
        assert_equitable(A, *classes)
        if kind == 0:  # regular on both sides: one class each
            assert classes[2].shape == (1, 1)
        sol = lp.covering_game(A)
        assert sol.value == pytest.approx(highs_value(A), abs=1e-9)
        # the certificate, recomputed here on the full matrix
        assert (sol.mu @ A).max() - (A @ sol.q).min() <= 1e-10
        assert sol.gap <= 1e-10
        assert sol.q.min() >= 0.0 and sol.mu.min() >= 0.0


def test_failed_equitability_check_falls_back_to_the_full_matrix(monkeypatch):
    # With every hash weight equal, refinement only tells degrees apart,
    # which on a random game leaves a partition that is not equitable; the
    # exact check must reject it and the full matrix must be solved.
    A = random_01(np.random.default_rng(73), 20, 20)

    class EqualWeights(np.random.Generator):
        def integers(self, *args, size, dtype, **kwargs):
            return np.ones(size, dtype)

    monkeypatch.setattr(lp.np.random, "default_rng", lambda seed: EqualWeights(np.random.PCG64(seed)))
    assert lp._equitable_partition(A.shape, *np.nonzero(A)) is None
    sol = lp.covering_game(A)
    assert sol.value == pytest.approx(highs_value(A), abs=1e-9)
    assert sol.gap <= 1e-10


def test_small_games_skip_refinement(monkeypatch):
    def refuse(*args):
        raise AssertionError("refinement or the interval test ran on a game below the size limit")

    monkeypatch.setattr(lp, "_equitable_partition", refuse)
    monkeypatch.setattr(lp, "_interval_cover", refuse)
    rng = np.random.default_rng(72)
    for k in range(50):
        shape = rng.integers(2, lp._REFINE_MIN), rng.integers(2, 40)
        sol = lp.covering_game(random_01(rng, *(shape if k % 2 else shape[::-1])))
        assert sol.gap <= 1e-10


def test_full_tableau_on_a_degenerate_hamming_game(monkeypatch):
    # The quotient of a Hamming game is 1 x 1; the full tableau still has to
    # get through its thousands of tied, degenerate pivots.
    monkeypatch.setattr(lp, "_equitable_partition", lambda *args: None)
    sol = lp.covering_game(build_hamming_spec(5, 1, 3).ball_mask)
    assert sol.value == pytest.approx(11 / 243, rel=0, abs=1e-12)
    assert sol.gap <= 1e-12


class TestFeasiblePoint:
    def test_zero_row_is_scaled_by_one(self):
        # a zero row with b = 0 holds for every x; dividing it by its zero
        # scale would put NaN in the tableau, on which pivoting never ends
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1e-6, -2e-6, 0.0]])
        point = lp.feasible_point(A, np.array([1.0, 0.0, 0.0]))
        assert point.gap <= 1e-15 and point.x.min() >= 0.0
        assert np.abs(A @ point.x - [1.0, 0.0, 0.0]).max() <= 1e-15

    def test_infeasible_system(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold; a zero row with b > 0 neither
        point = lp.feasible_point(np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([1.0, 4.0]))
        assert point.gap > 0.1
        point = lp.feasible_point(np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
        assert point.gap == pytest.approx(1.0)

    def test_agrees_with_highs_on_random_systems(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(2, 9, 2))
            A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
            b = np.abs(rng.normal(size=m)) * (rng.random(m) < 0.6)
            point = lp.feasible_point(A, b)
            highs = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=(0.0, None), method="highs")
            assert (point.gap <= 1e-9) == (highs.status == 0)
            if point.gap <= 1e-9:
                found += 1
                assert point.x.min() >= 0.0 and np.abs(A @ point.x - b).max() <= 1e-8
        assert 20 < found < 200


def _full_lp(A: np.ndarray) -> lp.GameSolution:
    """The full-matrix LP solved directly on the tableau, certified as
    `covering_game` certifies it."""

    def certify(v, w):
        mu, q = v / v.sum(), w / w.sum()
        value = float((A @ q).min())
        return lp.GameSolution(value, q, mu, float((mu @ A).max()) - value)

    return lp._simplex(A, 1.0, certify)


def test_shared_outputs_are_solved_without_the_tableau(monkeypatch):
    # q* = 1 exactly when some output lies in every ball.  Then no pivot
    # runs, and the answer matches the LP; else uniform mu caps every
    # column at (n_in - 1)/n_in, and the answer, from the packing pass or
    # the tableau, still matches the LP.
    entered = []
    simplex = lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: entered.append(1) or simplex(*args))
    rng = np.random.default_rng(74)
    shared_count = 0
    for k in range(2400):
        n_in, n_out = (int(v) for v in rng.integers(2, 9, size=2))
        A = random_01(rng, n_in, n_out)
        if k % 2:
            A[:, rng.integers(n_out)] = 1.0
        shared = bool(A.all(axis=0).any())
        shared_count += shared
        full = _full_lp(A)
        entered.clear()
        sol = lp.covering_game(A.astype(bool) if k % 3 else A)
        assert sol.value == pytest.approx(full.value, rel=0, abs=1e-12)
        if shared:
            assert not entered
            assert sol.gap == pytest.approx(full.gap, rel=0, abs=1e-12)
            assert sol.value == pytest.approx(1.0, rel=0, abs=1e-12)
            assert np.array_equal(sol.q > 0, A.all(axis=0))
        else:
            assert sol.gap <= 1e-12
            assert sol.value <= 1.0 - 1.0 / n_in + 1e-12
    assert 1200 <= shared_count < 2400


def test_shared_outputs_skip_refinement(monkeypatch):
    def refuse(*args):
        raise AssertionError("refinement or the tableau ran on a game with a shared output")

    monkeypatch.setattr(lp, "_equitable_partition", refuse)
    monkeypatch.setattr(lp, "_simplex", refuse)
    A = random_01(np.random.default_rng(75), lp._REFINE_MIN + 4, lp._REFINE_MIN)
    A[:, [3, 7]] = 1.0
    sol = lp.covering_game(A.astype(bool))
    assert sol.value == 1.0 and abs(sol.gap) <= 1e-15
    assert np.array_equal(sol.q, np.where(A.all(axis=0), 0.5, 0.0))
    assert np.array_equal(sol.mu, np.full(A.shape[0], 1.0 / A.shape[0]))


def assert_packing_certificate(A: np.ndarray, sol: lp.GameSolution, cover) -> None:
    # q* = 1/k, Q uniform on k points, mu uniform on k pairwise-disjoint
    # balls, each holding one of the points: the gap is exactly 0.
    points, balls = cover
    k = len(points)
    assert sol.gap == 0.0 and sol.value == 1.0 / k
    assert np.count_nonzero(sol.q) == k and set(sol.q[sol.q > 0]) == {1.0 / k}
    assert np.count_nonzero(sol.mu) == k and np.array_equal(np.flatnonzero(sol.mu), np.sort(balls))
    assert ((sol.mu > 0).astype(int) @ A.astype(int) <= 1).all()


def test_small_games_are_answered_by_packing_when_it_certifies(monkeypatch):
    # On the benchmark's random specs every value matches the full LP.
    # When the greedy packing's points hit every ball, no pivot runs and
    # the answer carries the exact certificate; that happens on most
    # games without a shared output.
    entered, covers = [], []
    simplex, packing_cover = lp._simplex, lp._packing_cover
    monkeypatch.setattr(lp, "_simplex", lambda *args: entered.append(1) or simplex(*args))
    monkeypatch.setattr(lp, "_packing_cover", lambda mask: covers.append(packing_cover(mask)) or covers[-1])
    rng = np.random.default_rng(78)
    packed = not_shared = 0
    for k in range(3000):
        A = covering_random_spec(rng).ball_mask
        full = _full_lp(A.astype(float))
        entered.clear(), covers.clear()
        sol = lp.covering_game(A if k % 2 else A.astype(float))
        assert sol.value == pytest.approx(full.value, rel=0, abs=1e-12)
        if A.all(axis=0).any():
            assert not covers and not entered
            continue
        not_shared += 1
        assert len(covers) == 1 and bool(entered) == (covers[0] is None)
        if covers[0] is not None:
            packed += 1
            assert_packing_certificate(A, sol, covers[0])
        else:
            assert sol.gap <= 1e-12
    assert not_shared >= 1000 and packed >= 0.6 * not_shared


def test_odd_cycle_of_balls_reaches_the_tableau(monkeypatch):
    # Balls {i, i + 1 mod 5}: two disjoint balls at most, three points
    # needed, so the packing has no certificate and q* = 2/5 lies between.
    entered = []
    simplex = lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: entered.append(1) or simplex(*args))
    A = np.eye(5, dtype=bool) | np.roll(np.eye(5, dtype=bool), 1, axis=1)
    assert lp._packing_cover(A) is None
    sol = lp.covering_game(A)
    assert entered
    assert sol.value == pytest.approx(0.4, rel=0, abs=1e-12) and sol.gap <= 1e-12


def test_packing_is_exact_on_wide_games():
    # Outputs past bit 53 (float mantissa) and 63 (int64) are still told
    # apart: every packing answer is certified with gap 0, and every
    # answer, from the packing or the tableau, matches the full LP.
    rng = np.random.default_rng(79)
    packed = 0
    for _ in range(60):
        n_in, n_out = int(rng.integers(3, 16)), int(rng.integers(64, 301))
        A = rng.random((n_in, n_out)) < rng.uniform(0.005, 0.05)
        A[np.arange(n_in), rng.integers(0, n_out, n_in)] = True
        if A.all(axis=0).any():
            continue
        cover = lp._packing_cover(A)
        sol = lp.covering_game(A.astype(float))
        assert sol.value == pytest.approx(_full_lp(A.astype(float)).value, rel=0, abs=1e-12)
        if cover is not None:
            packed += 1
            assert A[cover[1], cover[0]].all() and A[:, cover[0]].any(axis=1).all()
            assert_packing_certificate(A, sol, cover)
        else:
            assert sol.gap <= 1e-12
    assert 10 <= packed < 60


def line_game(rng, n_in, n_out) -> np.ndarray:
    """Balls of radius D around points of a line, on outputs given in
    sorted order (ties included), so every row is one run of columns;
    no output lies in every ball."""
    while True:
        length = int(rng.integers(n_out, 4 * n_out))
        outputs = np.sort(rng.integers(0, length, n_out))
        radius = int(rng.integers(0, max(1, length // 4)))
        # each input sits within the radius of some output: no empty ball
        inputs = outputs[rng.integers(0, n_out, n_in)] + rng.integers(-radius, radius + 1, n_in)
        A = np.abs(inputs[:, None] - outputs[None]) <= radius
        if not A.all(axis=0).any():
            return A


def test_interval_games_are_solved_by_greedy_piercing(monkeypatch):
    # From the size limit on, a game on sorted points of a line is solved
    # by greedy piercing with no refinement and no tableau: q* = 1/tau with
    # Q uniform on the tau points and mu on tau disjoint balls, gap 0.
    # Smaller games never run the interval test.
    rng = np.random.default_rng(76)
    games = []
    for k in range(2000):
        low, high = (lp._REFINE_MIN, 41) if k % 2 else (2, lp._REFINE_MIN)
        A = line_game(rng, int(rng.integers(low, high)), int(rng.integers(low, high)))
        games.append((A.astype(float) if k % 3 else A, _full_lp(A.astype(float))))
    assert sum(min(A.shape) >= lp._REFINE_MIN for A, _ in games) == 1000

    def refuse(*args):
        raise AssertionError("refinement or the tableau ran on an interval game")

    tested = []
    interval_cover = lp._interval_cover
    monkeypatch.setattr(lp, "_interval_cover", lambda *args: tested.append(args[0]) or interval_cover(*args))
    for A, full in games:
        if min(A.shape) < lp._REFINE_MIN:
            sol = lp.covering_game(A)
            assert sol.value == pytest.approx(full.value, rel=0, abs=1e-12)
            continue
        with monkeypatch.context() as patched:
            patched.setattr(lp, "_simplex", refuse)
            patched.setattr(lp, "_equitable_partition", refuse)
            sol = lp.covering_game(A)
        tau = np.count_nonzero(sol.q)
        assert sol.value == pytest.approx(full.value, rel=0, abs=1e-12)
        assert sol.gap == 0.0 and sol.value == 1.0 / tau
        assert np.count_nonzero(sol.mu) == tau and set(sol.q) == {0.0, 1.0 / tau}
        # the tau balls of mu are pairwise disjoint
        assert ((sol.mu > 0).astype(int) @ A.astype(int) <= 1).all()
    assert len(tested) == 1000 and min(min(shape) for shape in tested) >= lp._REFINE_MIN


def test_games_that_are_not_intervals_reach_the_tableau(monkeypatch):
    entered = []
    simplex = lp._simplex
    monkeypatch.setattr(lp, "_simplex", lambda *args: entered.append(1) or simplex(*args))
    rng = np.random.default_rng(77)
    games = [
        (build_type_distance_spec(60, 2).ball_mask[:, rng.permutation(61)], 1.0 / 13),
        (build_hamming_spec(6, 1, 2).ball_mask, 7 / 64),
        (random_01(rng, 20, 24), None),
    ]
    for A, value in games:
        assert lp._interval_cover(A.shape, *np.nonzero(A)) is None
        entered.clear()
        sol = lp.covering_game(A)
        assert entered
        assert sol.value == pytest.approx(highs_value(A.astype(float)) if value is None else value, abs=1e-9)
        assert sol.gap <= 1e-10
