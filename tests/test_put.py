import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import linprog

from alphaleak import (
    Alphabet,
    Channel,
    ConvergenceError,
    Dist,
    DistortionSpec,
    IncompatibleGeneratorError,
    Joint,
    SensitiveJoint,
    ValidationError,
    alpha_leakage,
    avg_hamming_binary_put,
    hellinger_generator,
    kl_generator,
    custom_generator,
    f_divergence,
    f_leakage,
    maximal_alpha_leakage,
    maximal_f_leakage,
    optimal_mechanism,
    put_f_leakage,
    put_max_alpha_leakage,
    put_max_f_leakage,
    q_star,
    sensitive_lower_bound,
)
from alphaleak import leakage, lp, prob, put
from alphaleak.datasets import build_hamming_spec, build_type_distance_spec, hamming_ball_size
from alphaleak.lp import GameSolution, covering_game
from alphaleak.measures import FGenerator
from util import aware_put_gap, covering_random_spec, mp_binary_closed_form, random_dist

B = Alphabet(("0", "1"))


def ball_spec(A) -> DistortionSpec:
    """The spec whose balls are the rows of the 0/1 matrix A."""
    A = np.asarray(A, dtype=float)
    return DistortionSpec(Alphabet.of_size(A.shape[0]), Alphabet.of_size(A.shape[1]), 1.0 - A, 0.0)


def random_spec(rng, n_in, n_out) -> DistortionSpec:
    while True:
        d = rng.integers(0, 5, size=(n_in, n_out)).astype(float)
        bound = float(rng.integers(0, 4))
        if np.all((d <= bound).sum(axis=1) > 0):
            return DistortionSpec(Alphabet.of_size(n_in, "x"), Alphabet.of_size(n_out, "y"), d, bound)


def covering_cases(seed: int = 7, count: int = 60) -> list[tuple[DistortionSpec, Dist]]:
    """`count` random specs of the `covering` benchmark workload, each with a
    Dirichlet(1) prior on its inputs drawn after it."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        spec = covering_random_spec(rng)
        cases.append((spec, Dist(spec.input_alphabet, rng.dirichlet(np.ones(len(spec.input_alphabet))))))
    return cases


class TestDistortionSpec:
    def test_empty_ball_rejected_with_offender(self):
        d = [[0.0, 0.0], [5.0, 5.0]]
        with pytest.raises(ValidationError, match="x1"):
            DistortionSpec(Alphabet(("x0", "x1")), Alphabet(("y0", "y1")), d, 1.0)

    def test_negative_distortion_rejected(self):
        with pytest.raises(ValidationError):
            DistortionSpec(B, B, [[0.0, -1.0], [1.0, 0.0]], 1.0)

    def test_balls_full_when_bound_dominates(self):
        spec = DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], 2.0)
        assert spec.ball_mask.tolist() == [[True, True], [True, True]]

    def test_singleton_balls_for_identity_distortion(self):
        spec = DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], 0.0)
        assert spec.ball_mask.tolist() == [[True, False], [False, True]]

    def test_ternary_hamming_balls_have_five_elements(self):
        spec = build_hamming_spec(2, 1, 3)
        assert np.all(spec.ball_mask.sum(axis=1) == 5)

    def test_infinite_bound_rejected(self):
        with pytest.raises(ValidationError, match="distortion bound must be finite"):
            DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], math.inf)

    @pytest.mark.parametrize("bound", ["x", [1], None])
    def test_bound_that_is_not_a_number_rejected(self, bound):
        with pytest.raises(ValidationError, match="distortion bound must be a number"):
            DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], bound)

    def test_ball_mask_is_stored_read_only(self):
        spec = DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], 0.0)
        assert spec.ball_mask is spec.ball_mask
        with pytest.raises(ValueError):
            spec.ball_mask[0, 1] = True
        assert spec.ball_mask.tolist() == [[True, False], [False, True]]


class TestQStar:
    def test_full_balls(self):
        sol = q_star(ball_spec(np.ones((4, 3))))
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.gap <= 1e-12

    def test_binary_type_balls(self):
        spec = build_type_distance_spec(9, 2)
        sol = q_star(spec)
        assert sol.value == pytest.approx(0.5, abs=1e-12)

    def test_ternary_hamming(self):
        spec = build_hamming_spec(2, 1, 3)
        sol = q_star(spec)
        assert sol.value == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_gap_above_tolerance_raises(self):
        with pytest.raises(ConvergenceError, match="duality gap"):
            q_star(build_type_distance_spec(9, 2), tol=-1.0)

    @pytest.mark.parametrize("q", [np.full(2, np.nan), np.full(2, 0.5)], ids=["nan-q", "finite-q"])
    def test_nan_gap_raises(self, monkeypatch, q):
        # a NaN from the LP must not pass the gap check: the exact path
        # wraps Q* and mu without re-validating them
        nan_game = GameSolution(math.nan, q, np.full(2, np.nan), math.nan)
        monkeypatch.setattr(put, "covering_game", lambda A: nan_game)
        spec = ball_spec(np.eye(2))
        for solve in (
            lambda: q_star(spec),
            lambda: put_max_alpha_leakage(spec, 2.0),
            lambda: put_max_alpha_leakage(spec, math.inf),
            lambda: put_max_f_leakage(spec, kl_generator()),
        ):
            with pytest.raises(ConvergenceError, match="duality gap"):
                solve()

    def test_duality_on_random_ball_structures(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            n_in, n_out = rng.integers(2, 13), rng.integers(2, 13)
            A = np.zeros((n_in, n_out))
            for x in range(n_in):
                size = rng.integers(1, n_out + 1)
                A[x, rng.choice(n_out, size=size, replace=False)] = 1.0
            sol = q_star(ball_spec(A))
            assert sol.gap <= 1e-10
            assert 0.0 < sol.value <= 1.0 + 1e-12
            # feasibility of both certificates
            assert (A @ sol.q).min() >= sol.value - 1e-12
            assert (sol.mu @ A).max() <= sol.value + sol.gap + 1e-12

    def test_agrees_with_scipy(self):
        # 0/1 games up to 120 x 120; every third one repeats some of its
        # rows and columns, which makes the LP degenerate.  Game 105 of
        # seed 50 pivots on a rounding residue of a zero unless tiny pivot
        # elements are refused; game 41 of seed 65 needs the tableau rebuild.
        for seed, count in ((50, 106), (65, 42)):
            rng = np.random.default_rng(seed)
            for k in range(count):
                n_in, n_out = rng.integers(2, 121, size=2) if k % 2 else rng.integers(2, 10, size=2)
                A = (rng.random((n_in, n_out)) < rng.uniform(0.02, 0.7)).astype(float)
                A[np.arange(n_in), rng.integers(0, n_out, n_in)] = 1.0
                if k % 3 == 0:
                    A = np.vstack([A, A[rng.integers(0, n_in, rng.integers(1, n_in + 1))]])
                    A = np.hstack([A, A[:, rng.integers(0, n_out, rng.integers(1, n_out + 1))]])
                n_in, n_out = A.shape
                sol = q_star(ball_spec(A))
                res = linprog(
                    c=np.r_[np.zeros(n_out), -1.0],
                    A_ub=np.hstack([-A, np.ones((n_in, 1))]),
                    b_ub=np.zeros(n_in),
                    A_eq=np.r_[np.ones(n_out), 0.0][None, :],
                    b_eq=[1.0],
                    bounds=[(0, None)] * n_out + [(None, None)],
                    method="highs",
                )
                assert sol.value == pytest.approx(-res.fun, abs=1e-9)
                assert sol.gap <= 1e-10


class TestOptimalMechanism:
    def test_uniform_target_full_balls(self):
        target = Dist.uniform(Alphabet.of_size(3))
        mech = optimal_mechanism(target, ball_spec(np.ones((2, 3))))
        assert np.allclose(mech.rows, 1.0 / 3.0, atol=0)

    def test_singleton_balls_are_deterministic(self):
        target = Dist(Alphabet.of_size(2), [0.3, 0.7])
        mech = optimal_mechanism(target, ball_spec(np.eye(2)))
        assert np.array_equal(mech.rows, np.eye(2))

    def test_uniform_over_nine_ternary_strings(self):
        spec = build_hamming_spec(2, 1, 3)
        target = Dist.uniform(spec.output_alphabet)
        mech = optimal_mechanism(target, spec)
        inside = mech.rows[mech.rows > 0]
        assert np.allclose(inside, 0.2, atol=1e-15)

    def test_zero_mass_ball_rejected(self):
        target = Dist(Alphabet.of_size(2), [1.0, 0.0])
        with pytest.raises(ValidationError):
            optimal_mechanism(target, ball_spec(np.eye(2)))

    def test_target_on_another_alphabet_rejected(self):
        target = Dist.uniform(Alphabet.of_size(2, "z"))
        with pytest.raises(ValidationError, match="output alphabet"):
            optimal_mechanism(target, ball_spec(np.eye(2)))


def test_hard_put_output_passes_the_validating_constructors(monkeypatch):
    """The exact path wraps Q*, mu and the mechanism unchecked.  On 2000
    random specs each is read-only, no solve runs `prob`'s array check,
    and each array is bitwise what the validating constructors build from
    the same LP solution."""
    rng = np.random.default_rng(13)
    specs = [covering_random_spec(rng) for _ in range(2000)]
    kl = kl_generator()
    checks = []
    check = prob._nonnegative_array
    monkeypatch.setattr(prob, "_nonnegative_array", lambda *a, **k: checks.append(1) or check(*a, **k))
    solutions = [
        put_max_f_leakage(spec, kl)[1] if k % 2 else put_max_alpha_leakage(spec, 2.0)[1]
        for k, spec in enumerate(specs)
    ]
    assert checks == []
    monkeypatch.undo()

    for k, (spec, sol) in enumerate(zip(specs, solutions)):
        got = (sol.target_output.p, sol.dual_certificate.p, sol.mechanism.rows)
        assert not any(arr.flags.writeable for arr in got)
        game = covering_game(spec.ball_mask)
        target = Dist(spec.output_alphabet, game.q)
        A = spec.ball_mask
        want = (
            target.p,
            Dist(spec.input_alphabet, game.mu).p,
            Channel(spec.input_alphabet, spec.output_alphabet, A * target.p / (A @ target.p)[:, None]).rows,
        )
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        q = game.value
        assert (sol.q_star, sol.value, sol.duality_gap) == (q, -math.log(q), game.gap)


class TestPutMaxFLeakage:
    def test_full_balls_leak_nothing(self):
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        for gen in (kl_generator(), hellinger_generator(2.0)):
            value, sol = put_max_f_leakage(spec, gen)
            assert value == pytest.approx(0.0, abs=1e-12)
            assert sol.q_star == pytest.approx(1.0, abs=1e-12)
        # f(1) = -1e-13 passes the |f(1)| <= 1e-12 check; the value is +0.0, not -1e-13
        gen = custom_generator(lambda t: (t - 1) ** 2 - 1e-13, 1 - 1e-13, math.inf)
        value, _ = put_max_f_leakage(spec, gen)
        assert (value, math.copysign(1.0, value)) == (0.0, 1.0)

    def test_hellinger_two_at_half(self):
        spec = build_type_distance_spec(9, 2)  # q* = 1/2
        value, _ = put_max_f_leakage(spec, hellinger_generator(2.0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_kl_at_half(self):
        spec = build_type_distance_spec(9, 2)
        value, _ = put_max_f_leakage(spec, kl_generator())
        assert value == pytest.approx(math.log(2), abs=1e-12)

    @staticmethod
    def cyclic_spec() -> DistortionSpec:
        A = Alphabet(("a", "b", "c"))
        return DistortionSpec(A, A, [[0, 1, 2], [2, 0, 1], [1, 2, 0]], 1)  # q* = 2/3

    @pytest.mark.parametrize("a", [1 + 2e-9, 1 + 1e-7, 1.001, 1.5, 30.0])
    def test_hellinger_matches_50_digits_near_alpha_one(self, a):
        # q f(1/q) + (1 - q) f(0) adds two terms of order 1/(alpha - 1),
        # which leave 1.8e-7 (relative) at alpha = 1 + 2e-9
        value, sol = put_max_f_leakage(self.cyclic_spec(), hellinger_generator(a))
        with mpmath.workdps(50):
            q, a = mpmath.mpf(sol.q_star), mpmath.mpf(a)
            want = (q ** (1 - a) - 1) / (a - 1)
            assert abs(value - want) <= 1e-15 * want

    def test_infinite_f_at_zero_is_incompatible(self):
        spec = build_type_distance_spec(9, 2)
        reverse_kl = custom_generator(
            lambda t: -math.log(t) if t > 0 else math.inf, f_at_zero=math.inf, slope_at_inf=0.0
        )
        with pytest.raises(IncompatibleGeneratorError):
            put_max_f_leakage(spec, reverse_kl)


def test_hellinger_values_past_the_largest_float_are_inf_without_a_warning():
    W = [[0.9, 0.1], [0.2, 0.8]]
    ch = Channel(B, B, W)
    p, q = Dist(B, [0.9, 0.1]), Dist(B, [0.2, 0.8])
    joint = Joint(B, B, np.array([0.9, 0.1])[:, None] * np.array(W))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert maximal_f_leakage(ch, hellinger_generator(2000)) == math.inf
        assert f_divergence(p, q, hellinger_generator(2000)) == math.inf
        assert f_leakage(joint, hellinger_generator(1e6))[0] == math.inf
        value, _ = put_max_f_leakage(TestPutMaxFLeakage.cyclic_spec(), hellinger_generator(2000))
        assert value == math.inf


class TestPutFLeakage:
    def test_full_balls(self):
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        value, _ = put_f_leakage(Dist(B, [0.3, 0.7]), spec, kl_generator())
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_prior_on_another_alphabet(self):
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        with pytest.raises(ValidationError, match="prior alphabet does not match"):
            put_f_leakage(Dist.uniform(Alphabet(("a", "b"))), spec, kl_generator())

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_perfect_privacy_is_never_below_plus_zero(self, alpha):
        # an output in every ball: the Hellinger value is 0 in exact
        # arithmetic, and rounding must not return -0.0 or less
        rng = np.random.default_rng(73)
        for _ in range(40):
            n, m = rng.integers(2, 6, size=2)
            d = rng.integers(1, 4, size=(n, m)).astype(float)
            d[:, rng.integers(m)] = 0.0
            spec = DistortionSpec(Alphabet.of_size(n), Alphabet.of_size(m, "y"), d, 0.0)
            value, _ = put_f_leakage(random_dist(rng, n), spec, hellinger_generator(alpha))
            assert value >= 0.0 and math.copysign(1.0, value) == 1.0

    def test_singleton_balls_give_entropy(self):
        al = Alphabet.of_size(3)
        spec = DistortionSpec(al, al, 1.0 - np.eye(3), 0.0)
        prior = Dist(al, [0.5, 0.3, 0.2])
        value, q = put_f_leakage(prior, spec, kl_generator())
        entropy = -sum(p * math.log(p) for p in prior.p)
        assert value == pytest.approx(entropy, abs=1e-10)
        assert q.allclose(prior, atol=1e-6)

    def test_type_collapsed_grid_oracle(self):
        # uniform-over-type-classes prior on the (9, 2) problem; compare the
        # descent value against a dense simplex grid on the 10 outputs
        spec = build_type_distance_spec(9, 2)
        prior = Dist.uniform(spec.input_alphabet)
        value, _ = put_f_leakage(prior, spec, kl_generator())
        assert value <= math.log(2) + 1e-12
        from util import simplex_grid

        A = spec.ball_mask.astype(float)
        grid = simplex_grid(12, 10)
        masses = grid @ A.T
        masses[masses <= 0] = np.nan
        with np.errstate(invalid="ignore"):
            objective = np.nanmin(np.where(np.isnan(masses).any(axis=1), np.inf,
                                           -(np.log(np.where(np.isnan(masses), 1.0, masses))
                                             * prior.p[None, :]).sum(axis=1)))
        assert value <= objective + 1e-9
        assert objective - value <= 0.02  # grid pitch limits the oracle

    def test_never_exceeds_distribution_free_value(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            spec = random_spec(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            prior = random_dist(rng, len(spec.input_alphabet))
            prior = Dist(spec.input_alphabet, prior.p)
            gen = hellinger_generator(float(rng.uniform(1.2, 4.0)))
            aware, q = put_f_leakage(prior, spec, gen, tol=1e-9)
            free, _ = put_max_f_leakage(spec, gen)
            assert aware <= free + 1e-8
            # the returned Q carries the certificate the docstring promises
            gap = aware_put_gap(spec.ball_mask, prior.p, q.p, gen.alpha)
            assert gap <= 1e-9 * max(1.0, abs(aware))

    @pytest.mark.parametrize("a", [1 + 2e-9, 1 + 1e-7, 1.001, 2.0])
    def test_hellinger_certifies_near_alpha_one(self, a):
        # f(1/m) summed with f(0) = -1/(a - 1) cancelled: 30 of these specs
        # raised at 1 + 2e-9.  The 40-digit reference at the returned Q is
        # summed term by term; (sum P m^(1-a) - 1)/(a - 1) would add the
        # prior's rounding divided by a - 1.
        for spec, prior in covering_cases():
            value, q = put_f_leakage(prior, spec, hellinger_generator(a))
            with mpmath.workdps(40):
                a_mp = mpmath.mpf(a)
                ref = mpmath.fsum(
                    mpmath.mpf(p) * (mpmath.fsum(map(mpmath.mpf, q.p[ball])) ** (1 - a_mp) - 1) / (a_mp - 1)
                    for p, ball in zip(prior.p, spec.ball_mask)
                    if p > 0
                )
                assert abs(value - ref) <= 1e-15 * max(1, abs(ref))

    def test_uniform_start_outside_the_domain_raises_convergence_error(self):
        # every ball has mass 1/3 at the uniform start, where phi' = -3^1000
        # overflows; at alpha = 500 it does not, and the descent certifies
        spec = ball_spec([[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [1, 0, 1, 0, 0, 0]])
        prior = Dist(spec.input_alphabet, [0.2, 0.3, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, q = put_f_leakage(prior, spec, hellinger_generator(500))
            assert value == pytest.approx(1.3835465344914e85, rel=1e-12)
            assert aware_put_gap(spec.ball_mask, prior.p, q.p, 500) <= 1e-10 * value
            with pytest.raises(ConvergenceError, match="^output-distribution descent did not") as info:
                put_f_leakage(prior, spec, hellinger_generator(1000))
        assert (info.value.residual, info.value.iterations) == (math.inf, 0)

    def test_binomial_prior_on_type_specs(self):
        # the optimal ball masses span 1e-43 to 0.2 at (50, 5); the
        # least-squares step on a guessed support stopped at gap 0.237
        kl = kl_generator()
        for n, m in ((50, 5), (200, 10)):
            spec = build_type_distance_spec(n, m)
            weights = np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)
            prior = Dist(spec.input_alphabet, weights / weights.sum())
            value, q = put_f_leakage(prior, spec, kl, tol=1e-10)
            gap = aware_put_gap(spec.ball_mask, prior.p, q.p)
            assert gap <= 1e-10 * max(1.0, abs(value))
            assert value <= put_max_alpha_leakage(spec, 2.0)[0] + 1e-10

    def test_convergence_error_carries_frank_wolfe_gap(self):
        spec = build_type_distance_spec(9, 2)
        prior = Dist.uniform(spec.input_alphabet)
        with pytest.raises(ConvergenceError, match="Frank-Wolfe gap") as info:
            put_f_leakage(prior, spec, kl_generator(), max_iter=1)
        assert info.value.iterations == 1
        assert info.value.residual > 1e-10

    def test_custom_generator_matches_closed_forms(self):
        # custom generators have no closed-form f''; the Newton step then
        # uses central differences and must reach the same optimum
        spec = build_type_distance_spec(9, 2)
        prior = Dist.uniform(spec.input_alphabet)
        kl = custom_generator(lambda t: t * math.log(t) if t > 0 else 0.0, 0.0, math.inf)
        value, q = put_f_leakage(prior, spec, kl, tol=1e-9)
        assert value == pytest.approx(math.log(2), abs=1e-9)
        assert aware_put_gap(spec.ball_mask, prior.p, q.p) <= 1e-8
        hel = custom_generator(lambda t: (t**2.5 - 1.0) / 1.5, -1.0 / 1.5, math.inf)
        value, _ = put_f_leakage(prior, spec, hel, tol=1e-9)
        expected, _ = put_f_leakage(prior, spec, hellinger_generator(2.5), tol=1e-12)
        assert value == pytest.approx(expected, abs=1e-8)


class TestPutMaxAlphaLeakage:
    def test_type_instance_is_one_bit(self):
        value, sol = put_max_alpha_leakage(build_type_distance_spec(9, 2), 2.0)
        assert value == pytest.approx(math.log(2), abs=1e-15)
        assert sol.q_star == pytest.approx(0.5, abs=1e-12)

    def test_hamming_instance(self):
        value, _ = put_max_alpha_leakage(build_hamming_spec(2, 1, 3), 5.0)
        assert value == pytest.approx(math.log(9.0 / 5.0), abs=1e-12)

    def test_degenerate_hamming_lps(self):
        # vertex-transitive covering LPs: many tied ratio tests, and
        # rounding leaves duals a few ulps below zero unless they are clipped
        for n, q in ((5, 2), (4, 3), (7, 2), (8, 2)):
            _, sol = put_max_alpha_leakage(build_hamming_spec(n, 1, q), 2.0)
            assert sol.q_star == pytest.approx((1 + n * (q - 1)) / q**n, rel=0, abs=1e-12)
            assert sol.target_output.p.min() >= 0.0
            assert sol.dual_certificate.p.min() >= 0.0

    def test_hamming_lps_at_the_enumeration_limit(self):
        # 729 and 1024 datasets; the full tableau took 37 s and 144 s on the
        # 1024-point ones, the quotient of each is one class per side
        for n, m, q in ((10, 1, 2), (5, 1, 4), (6, 2, 3)):
            spec = build_hamming_spec(n, m, q)
            start = time.perf_counter()
            _, sol = put_max_alpha_leakage(spec, 2)
            assert time.perf_counter() - start < 5.0
            assert sol.q_star == pytest.approx(hamming_ball_size(n, m, q) / q**n, rel=0, abs=1e-12)
            A = spec.ball_mask.astype(float)
            gap = (sol.dual_certificate.p @ A).max() - (A @ sol.target_output.p).min()
            assert gap <= 1e-10

    def test_full_balls_zero_for_every_order(self):
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        for a in (1.5, 2.0, 10.0, math.inf):
            value, _ = put_max_alpha_leakage(spec, a)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_order_independence_and_constraint(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            spec = random_spec(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)))
            results = [put_max_alpha_leakage(spec, a) for a in (1.5, 2.0, 10.0, math.inf)]
            base_value, base_sol = results[0]
            for value, sol in results[1:]:
                assert value == pytest.approx(base_value, abs=1e-9)
                assert np.array_equal(sol.mechanism.rows, base_sol.mechanism.rows)
            # hard constraint holds exactly
            assert np.all(base_sol.mechanism.rows[~spec.ball_mask] == 0.0)

    @staticmethod
    def assert_capacity_brackets(mechanism, value, orders):
        # The paper's theorem: for every alpha > 1 the mechanism's maximal
        # alpha-leakage is -log q*, which must lie in the capacity solver's
        # certified interval [cap.value, cap.value + kkt_residual].
        for a in orders:
            cap = maximal_alpha_leakage(mechanism, a)
            assert cap.value - 1e-13 <= value <= cap.value + cap.kkt_residual + 1e-13

    def test_mechanism_capacity_attains_value(self, monkeypatch):
        entered = []
        simplex = lp._simplex
        monkeypatch.setattr(lp, "_simplex", lambda *args: entered.append(1) or simplex(*args))
        rng = np.random.default_rng(34)
        paths = {"shared": 0, "packing": 0, "tableau": 0}
        for _ in range(150):
            spec = covering_random_spec(rng)
            entered.clear()
            value, sol = put_max_alpha_leakage(spec, 2.0)
            shared = spec.ball_mask.all(axis=0).any()
            paths["shared" if shared else "tableau" if entered else "packing"] += 1
            assert value == -math.log(sol.q_star)
            self.assert_capacity_brackets(sol.mechanism, value, (1.5, 2.0, 10.0, math.inf))
        assert min(paths.values()) >= 20

    def test_alpha_above_one_is_the_kl_hard_put(self):
        # -log q* is KL's phi(q*): one value and one mechanism
        rng = np.random.default_rng(37)
        for _ in range(50):
            spec = covering_random_spec(rng)
            value, sol = put_max_alpha_leakage(spec, 2.0)
            kl_value, kl_sol = put_max_f_leakage(spec, kl_generator())
            assert value == kl_value
            assert sol.mechanism.rows.tobytes() == kl_sol.mechanism.rows.tobytes()

    def test_hamming_mechanism_capacity_attains_value(self):
        value, sol = put_max_alpha_leakage(build_hamming_spec(10, 1, 2), 2.0)
        self.assert_capacity_brackets(sol.mechanism, value, (1.5, 2.0, 10.0))

    def test_alpha_one_requires_prior(self):
        with pytest.raises(ValidationError):
            put_max_alpha_leakage(build_type_distance_spec(4, 1), 1.0)

    def test_alpha_one_below_distribution_free(self):
        spec = build_type_distance_spec(9, 2)
        from math import comb

        weights = np.array([comb(9, i) for i in range(10)], dtype=float)
        prior = Dist(spec.input_alphabet, weights / weights.sum())
        value, sol = put_max_alpha_leakage(spec, 1.0, prior_for_one=prior)
        free, _ = put_max_alpha_leakage(spec, 2.0)
        assert value <= free + 1e-10
        assert np.all(sol.mechanism.rows[~spec.ball_mask] == 0.0)
        # the stored gap is the Frank-Wolfe gap measured at the returned Q
        gap = aware_put_gap(spec.ball_mask, prior.p, sol.target_output.p)
        assert sol.duality_gap == pytest.approx(gap, rel=0, abs=1e-14)
        assert sol.duality_gap <= 1e-10

    def test_alpha_one_rows_are_the_normalized_restricted_target(self):
        # bitwise the rows A * Q (uniform on a ball Q leaves empty) divided by
        # their sums, with the Q the solution returns
        rng = np.random.default_rng(35)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            prior = Dist(spec.input_alphabet, rng.dirichlet(np.ones(len(spec.input_alphabet))))
            _, sol = put_max_alpha_leakage(spec, 1.0, prior_for_one=prior)
            A, q = spec.ball_mask.astype(float), sol.target_output.p
            rows = np.where((A @ q)[:, None] > 0.0, A * q, A)
            assert sol.mechanism.rows.tobytes() == (rows / rows.sum(axis=1, keepdims=True)).tobytes()

    def test_alpha_one_full_balls_are_never_below_plus_zero(self):
        # every output in every ball: the KL value is 0 in exact arithmetic,
        # and rounding left it at -1.1e-16 on 3 inputs and 18 outputs
        spec = DistortionSpec(Alphabet(("a", "b", "c")), Alphabet.of_size(18, "y"), np.zeros((3, 18)), 0.0)
        value, sol = put_max_alpha_leakage(spec, 1.0, Dist(spec.input_alphabet, [0.2, 0.3, 0.5]))
        assert value == sol.value == 0.0 and math.copysign(1.0, value) == 1.0
        rng = np.random.default_rng(74)
        for m in range(2, 40):
            n = int(rng.integers(2, 6))
            spec = DistortionSpec(Alphabet.of_size(n), Alphabet.of_size(m, "y"), np.zeros((n, m)), 0.0)
            value, _ = put_max_alpha_leakage(spec, 1.0, random_dist(rng, n))
            assert value >= 0.0 and math.copysign(1.0, value) == 1.0

    def test_alpha_one_builds_the_ball_matrix_once(self, monkeypatch):
        spec = build_type_distance_spec(20, 2)
        reads = []
        mask = DistortionSpec.ball_mask.fget
        monkeypatch.setattr(
            DistortionSpec, "ball_mask", property(lambda s: reads.append(1) or mask(s))
        )
        put_max_alpha_leakage(spec, 1.0, prior_for_one=Dist.uniform(spec.input_alphabet))
        assert len(reads) == 1

    def test_alpha_one_zero_probability_input(self):
        # Q may leave the ball of an input of zero probability empty; that
        # input's row is then uniform on its ball
        al = Alphabet.of_size(3)
        d = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        spec = DistortionSpec(al, al, d, 0.0)
        prior = Dist(al, [0.5, 0.5, 0.0])
        value, sol = put_max_alpha_leakage(spec, 1.0, prior_for_one=prior)
        assert value == pytest.approx(math.log(2), abs=1e-12)
        assert np.allclose(sol.mechanism.rows, np.eye(3), atol=1e-12)
        assert sol.q_star == pytest.approx(0.5, abs=1e-12)


def shifted_hellinger_two() -> FGenerator:
    """f(t) = t^2 - 1.75 t + 1.5, with f(1) = 0.75: the Hellinger(2)
    generator t^2 - 1 plus the affine 2.5 - 1.75 t.  An affine c + b t adds
    the constant c + b to phi(m) = m f(1/m) + (1 - m) f(0)
    (`FGenerator.phi`), here 0.75, so phi'(m) = -m^(-2) as for
    Hellinger(2), and `aware_put_gap` at alpha = 2 applies."""
    return FGenerator(
        "custom", None, 1.5, math.inf, "shifted-hellinger(2)",
        f=lambda t: t * t - 1.75 * t + 1.5,
        fprime=lambda t: 2.0 * t - 1.75,
        fsecond=lambda t: np.full(np.shape(t), 2.0),
    )


class TestPutTheorems:
    """The paper's hard-distortion theorems, each on certified values: no
    tolerance is wider than a returned bracket plus TIE, the rounding
    (relative) of a value of a few nats."""

    TIE = 1e-15

    def test_mechanism_maximal_f_leakage_is_the_put_value(self):
        # maximal_f_leakage returns the lower end of a bracket at most
        # tol = 1e-9 (relative) wide that holds the mechanism's value
        rng = np.random.default_rng(39)
        specs = [covering_random_spec(rng) for _ in range(60)]
        specs += [build_hamming_spec(*nmq) for nmq in ((4, 1, 3), (8, 1, 2), (5, 1, 3))]
        specs += [build_type_distance_spec(*nm) for nm in ((15, 1), (63, 2))]
        for spec in specs:
            for gen in (kl_generator(), hellinger_generator(2.0)):
                value, sol = put_max_f_leakage(spec, gen)
                lower = maximal_f_leakage(sol.mechanism, gen, tol=1e-9)
                scale = max(1.0, abs(value))
                assert lower <= value + self.TIE * scale
                assert value <= lower + (1e-9 + self.TIE) * scale

    def test_alpha_one_aware_value_is_at_most_the_free_value(self):
        # the aware value lies in [optimum, optimum + gap] and the optimum
        # is at most -log q*
        rng = np.random.default_rng(40)
        for _ in range(60):
            spec = covering_random_spec(rng)
            prior = Dist(spec.input_alphabet, rng.dirichlet(np.ones(len(spec.input_alphabet))))
            free, _ = put_max_alpha_leakage(spec, 2.0)
            aware, sol = put_max_alpha_leakage(spec, 1.0, prior_for_one=prior)
            assert aware - sol.duality_gap <= free + self.TIE * max(1.0, free)

    def test_aware_hellinger_log_value_runs_from_kl_to_minus_log_q_star(self):
        # V = log1p((alpha - 1) F)/(alpha - 1) of the aware Hellinger value F
        # is min_Q T(P, -log m, alpha - 1), the tilted mean of -log m (the KL
        # value at alpha = 1): nondecreasing in alpha, at most its maximum
        # -log q* over the live balls, and at least that plus
        # log(min P)/(alpha - 1).  Each F is certified to [F - gap, F].
        orders = (1.0, 1 + 2e-9, 1 + 1e-7, 1.001, 1.5, 2.0, 5.0, 10.0, 100.0, 300.0)
        for spec, prior in covering_cases():
            live = prior.p > 0
            top = -math.log(covering_game(spec.ball_mask[live]).value)
            brackets = []
            for a in orders:
                d = a - 1.0
                log_value = (lambda F: math.log1p(d * F) / d) if d else (lambda F: F)
                value, q = put_f_leakage(prior, spec, hellinger_generator(a) if d else kl_generator())
                gap = aware_put_gap(spec.ball_mask, prior.p, q.p, a)
                lo, V = log_value(value - gap), log_value(value)
                tie = self.TIE * max(1.0, V)
                assert lo <= top + tie
                if d:
                    assert V >= top + math.log(prior.p[live].min()) / d - tie
                brackets.append((lo, V))
            for (lo, _), (_, V) in zip(brackets, brackets[1:]):
                assert lo <= V + self.TIE * max(1.0, V)

    @pytest.mark.parametrize("n, m, q", [(4, 1, 3), (8, 1, 2), (5, 1, 3)])
    def test_alpha_one_aware_value_is_the_free_value_on_hamming(self, n, m, q):
        # a uniform prior on a vertex-transitive spec: the uniform Q is
        # optimal by symmetry, so the bound above is attained
        spec = build_hamming_spec(n, m, q)
        free, _ = put_max_alpha_leakage(spec, 2.0)
        aware, sol = put_max_alpha_leakage(spec, 1.0, prior_for_one=Dist.uniform(spec.input_alphabet))
        tie = self.TIE * max(1.0, free)
        assert free - tie <= aware <= free + sol.duality_gap + tie

    def test_avg_hamming_binary_tradeoff_is_nondecreasing_in_alpha(self):
        # v(a2) >= optimum(a2) >= optimum(a1) >= v(a1) - gap(a1)
        rng = np.random.default_rng(41)
        orders = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 50.0)
        for _ in range(40):
            p = float(rng.uniform(0.05, 0.95))
            D = float(rng.uniform(0.02, 0.98)) * min(p, 1.0 - p)
            sols = [avg_hamming_binary_put(p, D, a) for a in orders]
            for a, lo, hi in zip(orders, sols, sols[1:]):
                assert hi.value >= lo.value - lo.gap, (p, D, a)


class TestSharedOutputs:
    """Some output lies in the ball of every input of positive probability:
    zero leakage is reachable, and the aware descent starts at the optimum."""

    @pytest.mark.parametrize(
        "gen, alpha, f_one",
        [(kl_generator(), 1.0, 0.0), (hellinger_generator(2.5), 2.5, 0.0), (shifted_hellinger_two(), 2.0, 0.75)],
        ids=["kl", "hellinger", "custom-f1-nonzero"],
    )
    def test_aware_put_starts_at_the_optimum(self, monkeypatch, gen, alpha, f_one):
        def refuse(*args):
            raise AssertionError("the descent took a Newton step")

        monkeypatch.setattr(leakage, "_simplex_qp_step", refuse)
        rng = np.random.default_rng(36)
        for _ in range(200):
            n_in, n_out = (int(v) for v in rng.integers(2, 9, size=2))
            p = rng.dirichlet(np.ones(n_in))
            p[rng.random(n_in) < 0.3] = 0.0
            p[rng.integers(n_in)] += 0.5
            live = p > 0
            A = rng.random((n_in, n_out)) < 0.4
            A[np.arange(n_in), rng.integers(0, n_out, n_in)] = True
            A[live, rng.integers(n_out)] = True  # the balls of zero-probability inputs may miss it
            spec = ball_spec(A)
            prior = Dist(spec.input_alphabet, p / p.sum())
            value, q = put_f_leakage(prior, spec, gen)
            assert value == pytest.approx(f_one, rel=0, abs=1e-12)
            assert aware_put_gap(A, prior.p, q.p, alpha) <= 1e-10
            assert np.all(q.p[~A[live].all(axis=0)] == 0.0)
            if gen.kind == "kl":
                value, sol = put_max_alpha_leakage(spec, 1.0, prior_for_one=prior)
                assert value == pytest.approx(0.0, rel=0, abs=1e-12)
                assert sol.q_star == pytest.approx(1.0, rel=0, abs=1e-12)
                assert sol.duality_gap <= 1e-10

    def test_alpha_one_zero_probability_input_off_the_shared_outputs(self):
        # outputs 0 and 1 lie in both likely balls; the ball {2, 3} of the
        # input of zero probability misses them, so Q leaves it empty and
        # that input releases uniformly on its ball
        spec = ball_spec([[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 1]])
        prior = Dist(spec.input_alphabet, [0.4, 0.6, 0.0])
        value, sol = put_max_alpha_leakage(spec, 1.0, prior_for_one=prior)
        assert value == pytest.approx(0.0, rel=0, abs=1e-12)
        assert sol.q_star == 1.0 and sol.duality_gap <= 1e-10
        assert sol.target_output.p.tolist() == [0.5, 0.5, 0.0, 0.0]
        assert sol.mechanism.rows.tolist() == [[0.5, 0.5, 0.0, 0.0]] * 2 + [[0.0, 0.0, 0.5, 0.5]]


class TestSensitiveLowerBound:
    def test_identity_pair_gives_entropy(self):
        joint = Joint(B, B, [[0.4, 0.0], [0.0, 0.6]])
        spec = DistortionSpec(B, B, 1.0 - np.eye(2), 0.0)
        sj = SensitiveJoint(joint, spec)
        bound, tight = sensitive_lower_bound(sj, 1.0)
        assert bound == pytest.approx(-(0.4 * math.log(0.4) + 0.6 * math.log(0.6)), abs=1e-12)
        assert tight

    def test_independent_uniform_sensitive(self):
        joint = Joint(B, B, [[0.25, 0.25], [0.25, 0.25]])
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        sj = SensitiveJoint(joint, spec)
        for a in (1.0, 2.0, math.inf):
            bound, tight = sensitive_lower_bound(sj, a)
            assert bound == pytest.approx(0.0, abs=1e-12)
            assert tight

    def test_bound_below_sampled_mechanisms(self):
        # correlated toy: Bern(0.4)-ish pair, Hamming distortion, D = 0
        from alphaleak import alpha_leakage

        joint = Joint(B, B, [[0.3, 0.1], [0.15, 0.45]])
        spec = DistortionSpec(B, B, 1.0 - np.eye(2), 0.0)
        sj = SensitiveJoint(joint, spec)
        # D = 0 forces the identity mechanism on X, so the leakage about S
        # is exactly the leakage of the (S, X) joint itself
        for a in (1.0, 2.0, math.inf):
            bound, _ = sensitive_lower_bound(sj, a)
            assert bound <= alpha_leakage(joint, a) + 1e-6

    @staticmethod
    def random_sensitive_joint(seed: int) -> SensitiveJoint:
        """2-4 sensitive values, 2-5 inputs and outputs, ~30% zero masses,
        distortions in {0, 1, 2} at bound 1 with a zero in every row."""
        rng = np.random.default_rng(seed)
        n_s, n_x, n_y = (int(v) for v in rng.integers(2, [5, 6, 6]))
        m = rng.dirichlet(np.ones(n_s * n_x)).reshape(n_s, n_x)
        m[rng.random(m.shape) < 0.3] = 0.0
        m[0, 0] += 1e-3
        d = rng.integers(0, 3, size=(n_x, n_y)).astype(float)
        d[np.arange(n_x), rng.integers(n_y, size=n_x)] = 0.0
        xs = Alphabet.of_size(n_x, "x")
        return SensitiveJoint(
            Joint(Alphabet.of_size(n_s, "s"), xs, m / m.sum()),
            DistortionSpec(xs, Alphabet.of_size(n_y, "y"), d, 1.0),
        )

    @staticmethod
    def function_sensitive_joint(seed: int) -> SensitiveJoint:
        """S a function of X (2-3 values of S, 3-6 of X) and 0/1 distortions,
        70% ones, at bound 0 with a zero in every row: the bound is often
        positive, where a full-support joint only gives 0."""
        rng = np.random.default_rng([seed, 1])
        n_s, n_x, n_y = int(rng.integers(2, 4)), int(rng.integers(3, 7)), int(rng.integers(2, 6))
        s_of_x = np.r_[np.arange(n_s), rng.integers(n_s, size=n_x - n_s)]
        m = np.zeros((n_s, n_x))
        m[s_of_x, np.arange(n_x)] = rng.dirichlet(np.ones(n_x))
        d = (rng.random((n_x, n_y)) < 0.7).astype(float)
        d[np.arange(n_x), rng.integers(n_y, size=n_x)] = 0.0
        xs = Alphabet.of_size(n_x, "x")
        return SensitiveJoint(
            Joint(Alphabet.of_size(n_s, "s"), xs, m),
            DistortionSpec(xs, Alphabet.of_size(n_y, "y"), d, 0.0),
        )

    @staticmethod
    def mp_bound(sj: SensitiveJoint, a: float):
        """The finite-order bound in 60-digit arithmetic, straight from its
        sums: (a/(a-1)) log(sum_{s,x} P(s)^a P(x|s) m_x^((1-a)/a) / ||P_S||_a),
        m_x the largest sum of P(s)^a over the values s consistent with an
        output of x's ball; clamped at 0."""
        with mpmath.workdps(60):
            a = mpmath.mpf(a)
            psx = [[mpmath.mpf(float(v)) for v in row] for row in sj.joint.m]
            total = mpmath.fsum(v for row in psx for v in row)
            psx = [[v / total for v in row] for row in psx]
            ps = [mpmath.fsum(row) for row in psx]
            ball = sj.spec.ball_mask
            n_x, n_y = ball.shape
            feasible = [
                [any(row[x] > 0 and ball[x, y] for x in range(n_x)) for y in range(n_y)] for row in psx
            ]
            power = [p**a for p in ps]
            m_x = [
                max(mpmath.fsum(w for w, f in zip(power, feasible) if f[y]) for y in range(n_y) if ball[x, y])
                for x in range(n_x)
            ]
            inner = mpmath.fsum(
                power[s] * psx[s][x] / ps[s] * m_x[x] ** ((1 - a) / a)
                for s in range(len(ps)) for x in range(n_x) if psx[s][x] > 0
            )
            return max(0.0, float(a / (a - 1) * mpmath.log(inner / mpmath.fsum(power) ** (1 / a))))

    def test_bound_against_60_digit_arithmetic(self):
        # the finite orders to 1e-14 up to alpha = 1e12, with no warning and
        # no overflow; alpha = inf is their limit, within the O(1/alpha) of
        # the order 1e12
        for seed in range(30):
            for sj in (self.random_sensitive_joint(seed), self.function_sensitive_joint(seed)):
                for a in (1.5, 2.0, 5.0, 600.0, 1e3, 1e8, 1e12):
                    assert sensitive_lower_bound(sj, a)[0] == pytest.approx(self.mp_bound(sj, a), abs=1e-14)
                limit = sensitive_lower_bound(sj, math.inf)[0]
                assert limit == pytest.approx(self.mp_bound(sj, 1e12), abs=1e-11), seed

    @staticmethod
    def mp_limit(sj: SensitiveJoint):
        """The alpha = inf bound in 60-digit arithmetic, from the limit of the
        finite orders: log sum_{P(s) = mu_x} P(s, x) / c_x - log max P(s), with
        mu_x the largest P(s) consistent with an output of x's ball and c_x
        the most values of S at mu_x that one such output is consistent with;
        clamped at 0."""
        with mpmath.workdps(60):
            psx = [[mpmath.mpf(float(v)) for v in row] for row in sj.joint.m]
            total = mpmath.fsum(v for row in psx for v in row)
            psx = [[v / total for v in row] for row in psx]
            ps = [mpmath.fsum(row) for row in psx]
            ball = sj.spec.ball_mask
            n_x, n_y = ball.shape
            consistent = [
                [s for s, row in enumerate(psx) if any(row[x] > 0 and ball[x, y] for x in range(n_x))]
                for y in range(n_y)
            ]
            terms = []
            for x in range(n_x):
                if any(row[x] > 0 for row in psx):
                    outputs = [consistent[y] for y in range(n_y) if ball[x, y]]
                    mu = max(ps[s] for members in outputs for s in members)
                    c = max(sum(ps[s] == mu for s in members) for members in outputs)
                    terms += [row[x] / c for row, p in zip(psx, ps) if p == mu]
            return max(0.0, float(mpmath.log(mpmath.fsum(terms)) - mpmath.log(max(ps))))

    def test_limit_against_60_digit_arithmetic(self):
        # alpha = inf needs no formula of its own: the one expression of the
        # finite orders gives the limit to 1e-14
        for seed in range(30):
            for sj in (self.random_sensitive_joint(seed), self.function_sensitive_joint(seed)):
                limit = sensitive_lower_bound(sj, math.inf)[0]
                assert limit == pytest.approx(self.mp_limit(sj), abs=1e-14), seed

    def test_bound_is_nonnegative_and_below_sampled_mechanisms(self):
        # mechanisms P(y | s, x) confined to x's ball: none leaks less about S
        # than the bound, at any order; joints with S a function of X give
        # positive bounds
        rng = np.random.default_rng(11)
        orders = (1.0, 2.0, 5.0, 1e3, 1e8, math.inf)
        positive = 0
        for seed in range(40):
            for sj in (self.random_sensitive_joint(seed), self.function_sensitive_joint(seed)):
                psx, ball = sj.joint.m, sj.spec.ball_mask
                bounds = [sensitive_lower_bound(sj, a)[0] for a in orders]
                assert min(bounds) >= 0.0
                positive += bounds[-1] > 0.0
                for _ in range(10):
                    mech = rng.dirichlet(np.ones(ball.shape[1]), size=psx.shape) * ball
                    mech /= mech.sum(axis=2, keepdims=True)
                    mass = np.einsum("sx,sxy->sy", psx, mech)
                    sy = Joint(sj.joint.row_alphabet, sj.spec.output_alphabet, mass)
                    for a, bound in zip(orders, bounds):
                        assert bound <= alpha_leakage(sy, a) + 1e-12, (seed, a)
        assert positive >= 5

    def test_tight_mechanisms_attain_the_bound(self):
        # the mechanism of every "tight" answer leaks exactly the bound, at
        # alpha = inf too, where the bound is the limit of the finite orders
        tight = 0
        for seed in range(40):
            for sj in (self.random_sensitive_joint(seed), self.function_sensitive_joint(seed)):
                psx, ball = sj.joint.m, sj.spec.ball_mask
                ps, s_feasible = psx.sum(axis=1), (psx > 0) @ ball
                n_y = ps @ s_feasible
                point = lp.feasible_point(*put._tightness_system(psx, ps, ball, s_feasible, n_y))
                if point.gap > 1e-9:
                    continue
                tight += 1
                # the system's variables, in its order: P(y | s, x) on the argmax outputs of x's ball
                top = np.where(ball, n_y, -np.inf).max(axis=1, keepdims=True)
                best = ball & (n_y >= top - 1e-12 * np.maximum(1.0, top))
                s, x, y = np.argwhere((psx > 0)[:, :, None] & best[None, :, :]).T
                mass = np.zeros((len(ps), ball.shape[1]))
                np.add.at(mass, (s, y), psx[s, x] * point.x)
                sy = Joint(sj.joint.row_alphabet, sj.spec.output_alphabet, mass / mass.sum())
                for a in (1.0, 2.0, 5.0, math.inf):
                    assert alpha_leakage(sy, a) == pytest.approx(sensitive_lower_bound(sj, a)[0], abs=1e-12)
        assert tight >= 40

    def test_tightness_on_random_joints(self):
        # recorded from the loop-built feasibility program; 7 of 60 are False
        want = "TTTTTTTTFTTTTFTTTTFTTTTTTTTTTTTTTTFTTTTFTFTTTTTTTTTTTTTTFTTT"
        got = "".join("T" if sensitive_lower_bound(self.random_sensitive_joint(seed), 2.0)[1] else "F"
                      for seed in range(60))
        assert got == want

    def test_tightness_agrees_with_highs(self):
        # 340 joints outside the golden string's seeds: the tableau's answer
        # is HiGHS's, and every True comes with a verified mechanism
        trues = 0
        for seed in range(60, 400):
            sj = self.random_sensitive_joint(seed)
            psx = sj.joint.m
            ps, s_feasible = psx.sum(axis=1), (psx > 0) @ sj.spec.ball_mask
            A, b = put._tightness_system(psx, ps, sj.spec.ball_mask, s_feasible, ps @ s_feasible)
            point = lp.feasible_point(A, b)
            highs = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0.0, None), method="highs")
            assert (point.gap <= 1e-9) == (highs.status == 0), seed
            assert sensitive_lower_bound(sj, 2.0)[1] == (point.gap <= 1e-9), seed
            if point.gap <= 1e-9:
                trues += 1
                assert point.x.min() >= 0.0 and np.abs(A @ point.x - b).max() <= 1e-9, seed
        assert 250 < trues < 340

    def test_alphabet_coupling_validated(self):
        joint = Joint(B, Alphabet(("u", "v")), [[0.25, 0.25], [0.25, 0.25]])
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        with pytest.raises(ValidationError):
            SensitiveJoint(joint, spec)


class TestAvgHammingBinary:
    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            avg_hamming_binary_put(0.0, 0.2, 2.0)
        with pytest.raises(ValidationError):
            avg_hamming_binary_put(0.4, 0.5, 2.0)  # D >= 1 - max(p, 1-p)
        with pytest.raises(ValidationError):
            avg_hamming_binary_put(0.4, 0.2, 1.0)

    @staticmethod
    def random_case(rng):
        p = rng.uniform(0.05, 0.95)
        return p, rng.uniform(0.001, 0.999) * min(p, 1 - p), float(rng.choice([1.01, 1.1, 1.5, 2, 4, 20]))

    @pytest.mark.parametrize(
        "p, D, certified, old",
        [(0.7, 0.09, 0.3995430678, 0.3995442366), (0.3, 0.1, 0.3744874377, 0.374487994893)],
    )
    def test_cases_the_grid_search_missed(self, p, D, certified, old):
        # `old` is what the 401 x 401 grid with coordinate descent returned
        res = avg_hamming_binary_put(p, D, 1.5)
        assert res.value <= certified
        assert res.value + res.gap < old
        assert (1 - p) * res.rho1 + p * res.rho2 == pytest.approx(D, rel=1e-12)

    def test_gap_bounds_every_feasible_pair(self):
        # the data-processing argument: no pair of the feasible triangle, and
        # no point of the boundary segment near the answer, lies below
        # value - gap
        from alphaleak import binary_maximal_alpha_leakage

        rng = np.random.default_rng(11)
        for _ in range(40):
            p, D, a = self.random_case(rng)
            res = avg_hamming_binary_put(p, D, a)
            w = rng.dirichlet(np.ones(3), size=500)  # barycentric weights on the triangle
            r1, r2 = w[:, 1] * D / (1 - p), w[:, 2] * D / p
            t = np.clip(res.rho2 * p / D + rng.uniform(-1e-3, 1e-3, 200) * 10.0 ** -rng.integers(0, 5, 200), 0, 1)
            r1, r2 = np.r_[r1, (1 - t) * D / (1 - p)], np.r_[r2, t * D / p]
            assert binary_maximal_alpha_leakage(r1, r2, a).min() >= res.value - res.gap

    def test_gap_certified_on_every_solve(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            res = avg_hamming_binary_put(*self.random_case(rng))
            assert 0.0 <= res.gap <= 1e-10

    @pytest.mark.parametrize("a", [1 + 2e-9, 1 + 1e-7])
    def test_certified_at_orders_near_one(self, a):
        # G = exp(e L) with e = (alpha - 1)/alpha below 1e-7: the
        # differences of G itself keep too few digits to reach gap 1e-10
        p, D = 0.3, 0.1
        res = avg_hamming_binary_put(p, D, a)
        assert 0.0 <= res.gap <= 1e-10
        with mpmath.workdps(40):
            assert abs(res.value - mp_binary_closed_form(res.rho1, res.rho2, a)) <= 1e-14

            def on_segment(t):
                return mp_binary_closed_form((1 - t) * mpmath.mpf(D) / (1 - mpmath.mpf(p)), t * mpmath.mpf(D) / p, a)

            # golden-section search: L is unimodal along the segment
            lo, hi, ratio = mpmath.mpf(0), mpmath.mpf(1), (mpmath.sqrt(5) - 1) / 2
            for _ in range(100):
                left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                if on_segment(left) < on_segment(right):
                    hi = right
                else:
                    lo = left
            assert 0.0 <= res.value - on_segment((lo + hi) / 2) <= res.gap + 1e-14

    def test_vertex_optimum_is_exact(self):
        # at alpha = 2 the optimum for p = 0.3, D = 0.1 is the vertex (0, D/p)
        res = avg_hamming_binary_put(0.3, 0.1, 2.0)
        assert res.rho1 == 0.0
        assert res.rho2 == 0.1 / 0.3

    def test_round_cap_raises(self, monkeypatch):
        import alphaleak.put as put

        monkeypatch.setattr(put, "_SEGMENT_ROUNDS", 2)
        with pytest.raises(ConvergenceError) as info:
            avg_hamming_binary_put(0.3, 0.1, 1.5)
        assert info.value.iterations == 2 and info.value.residual > 1e-10

    def test_constraint_active_at_optimum(self):
        res = avg_hamming_binary_put(0.4, 0.2, 2.0)
        assert 0.6 * res.rho1 + 0.4 * res.rho2 == pytest.approx(0.2, abs=1e-3)
        assert res.guess_prob == pytest.approx(0.8, abs=1e-6)

    def test_beats_dense_grid(self):
        from alphaleak import binary_maximal_alpha_leakage

        res = avg_hamming_binary_put(0.4, 0.1, 3.0)
        rng = np.random.default_rng(35)
        for _ in range(2000):
            r1 = rng.uniform(0, min(1.0, 0.1 / 0.6))
            r2 = rng.uniform(0, min(1.0, 0.1 / 0.4))
            if 0.6 * r1 + 0.4 * r2 > 0.1:
                continue
            assert binary_maximal_alpha_leakage(r1, r2, 3.0) >= res.value - 1e-6

    @staticmethod
    def grid_reference(r1, r2, a):
        """The closed form as the grid search evaluated it before it shared
        `binary_maximal_alpha_leakage`: in logs, for r1 + r2 < 1."""
        with np.errstate(divide="ignore"):
            l1, l2, lr1, lr2 = np.log1p(-r1), np.log1p(-r2), np.log(r1), np.log(r2)

        def log_pow_diff(log_hi, log_lo):
            return a * log_hi + np.log1p(-np.exp(np.minimum(a * (log_lo - log_hi), -1e-300)))

        stack = np.stack([log_pow_diff(l2, lr1), log_pow_diff(l1, lr2)]) / (1.0 - a)
        hi = stack.max(axis=0)
        lsum = hi + np.log(np.exp(stack - hi[None]).sum(axis=0))
        return log_pow_diff(l1 + l2, lr1 + lr2) / (a - 1.0) + lsum

    @pytest.mark.parametrize("p, D", [(0.2, 0.15), (0.5, 0.3)])
    @pytest.mark.parametrize("a", [1.5, 2.0, 4.0])
    def test_closed_form_on_the_grid(self, p, D, a):
        from alphaleak import binary_maximal_alpha_leakage

        R1, R2 = np.meshgrid(np.linspace(0, D / (1 - p), 101), np.linspace(0, D / p, 101), indexing="ij")
        feasible = (1 - p) * R1 + p * R2 <= D + 1e-12
        r1, r2 = R1[feasible], R2[feasible]
        got = binary_maximal_alpha_leakage(r1, r2, a)
        np.testing.assert_allclose(got, self.grid_reference(r1, r2, a), rtol=0, atol=1e-12)
        for k in range(0, r1.size, 97):
            assert binary_maximal_alpha_leakage(float(r1[k]), float(r2[k]), a) == got[k]

    def test_monotone_in_alpha_and_distortion(self):
        values_a = [avg_hamming_binary_put(0.4, 0.2, a).value
                    for a in (1.2, 1.6, 2.0, 3.0, 4.0)]
        assert all(hi >= lo - 1e-8 for lo, hi in zip(values_a, values_a[1:]))
        values_d = [avg_hamming_binary_put(0.4, d, 2.0).value
                    for d in (0.05, 0.1, 0.2, 0.3)]
        assert all(hi <= lo + 1e-8 for lo, hi in zip(values_d, values_d[1:]))
