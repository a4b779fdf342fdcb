import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from alphaleak import (
    Alphabet,
    ConvergenceError,
    Dist,
    DistortionSpec,
    IncompatibleGeneratorError,
    Joint,
    SensitiveJoint,
    ValidationError,
    avg_hamming_binary_put,
    hellinger_generator,
    kl_generator,
    custom_generator,
    maximal_alpha_leakage,
    optimal_mechanism,
    put_f_leakage,
    put_max_alpha_leakage,
    put_max_f_leakage,
    q_star,
    sensitive_lower_bound,
)
from alphaleak.datasets import build_hamming_spec, build_type_distance_spec, hamming_ball_size
from util import aware_put_gap, random_dist

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


class TestDistortionSpec:
    def test_empty_ball_rejected_with_offender(self):
        d = [[0.0, 0.0], [5.0, 5.0]]
        with pytest.raises(ValidationError, match="x1"):
            DistortionSpec(Alphabet(("x0", "x1")), Alphabet(("y0", "y1")), d, 1.0)

    def test_negative_distortion_rejected(self):
        with pytest.raises(ValidationError):
            DistortionSpec(B, B, [[0.0, -1.0], [1.0, 0.0]], 1.0)

    def test_json_round_trip(self):
        spec = DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], 0.5)
        spec2 = DistortionSpec.from_json(spec.to_json())
        assert np.array_equal(spec.d, spec2.d) and spec.bound == spec2.bound

    def test_balls_full_when_bound_dominates(self):
        spec = DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], 2.0)
        assert spec.ball_mask.tolist() == [[True, True], [True, True]]

    def test_singleton_balls_for_identity_distortion(self):
        spec = DistortionSpec(B, B, [[0.0, 1.0], [1.0, 0.0]], 0.0)
        assert spec.ball_mask.tolist() == [[True, False], [False, True]]

    def test_ternary_hamming_balls_have_five_elements(self):
        spec = build_hamming_spec(2, 1, 3)
        assert np.all(spec.ball_mask.sum(axis=1) == 5)


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


class TestPutMaxFLeakage:
    def test_full_balls_leak_nothing(self):
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        for gen in (kl_generator(), hellinger_generator(2.0)):
            value, sol = put_max_f_leakage(spec, gen)
            assert value == pytest.approx(0.0, abs=1e-12)
            assert sol.q_star == pytest.approx(1.0, abs=1e-12)

    def test_hellinger_two_at_half(self):
        spec = build_type_distance_spec(9, 2)  # q* = 1/2
        value, _ = put_max_f_leakage(spec, hellinger_generator(2.0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_kl_at_half(self):
        spec = build_type_distance_spec(9, 2)
        value, _ = put_max_f_leakage(spec, kl_generator())
        assert value == pytest.approx(math.log(2), abs=1e-12)

    def test_infinite_f_at_zero_is_incompatible(self):
        spec = build_type_distance_spec(9, 2)
        reverse_kl = custom_generator(
            lambda t: -math.log(t) if t > 0 else math.inf, f_at_zero=math.inf, slope_at_inf=0.0
        )
        with pytest.raises(IncompatibleGeneratorError):
            put_max_f_leakage(spec, reverse_kl)


class TestPutFLeakage:
    def test_full_balls(self):
        spec = DistortionSpec(B, B, np.zeros((2, 2)), 1.0)
        value, _ = put_f_leakage(Dist(B, [0.3, 0.7]), spec, kl_generator())
        assert value == pytest.approx(0.0, abs=1e-10)

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

    def test_mechanism_capacity_attains_value(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            spec = random_spec(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            value, sol = put_max_alpha_leakage(spec, 2.0)
            for a in (2.0, 5.0, math.inf):
                cap = maximal_alpha_leakage(sol.mechanism, a)
                assert cap.value == pytest.approx(value, abs=1e-6)

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

    def test_constraint_active_at_optimum(self):
        res = avg_hamming_binary_put(0.4, 0.2, 2.0, grid=201, refine_iters=40)
        assert 0.6 * res.rho1 + 0.4 * res.rho2 == pytest.approx(0.2, abs=1e-3)
        assert res.guess_prob == pytest.approx(0.8, abs=1e-6)

    def test_beats_dense_grid(self):
        from alphaleak import binary_maximal_alpha_leakage

        res = avg_hamming_binary_put(0.4, 0.1, 3.0, grid=151, refine_iters=40)
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
        values_a = [avg_hamming_binary_put(0.4, 0.2, a, grid=121, refine_iters=30).value
                    for a in (1.2, 1.6, 2.0, 3.0, 4.0)]
        assert all(hi >= lo - 1e-8 for lo, hi in zip(values_a, values_a[1:]))
        values_d = [avg_hamming_binary_put(0.4, d, 2.0, grid=121, refine_iters=30).value
                    for d in (0.05, 0.1, 0.2, 0.3)]
        assert all(hi <= lo + 1e-8 for lo, hi in zip(values_d, values_d[1:]))
