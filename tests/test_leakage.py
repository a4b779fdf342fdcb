import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from alphaleak import (
    Alphabet,
    Channel,
    ConvergenceError,
    Dist,
    DistortionSpec,
    Joint,
    ValidationError,
    alpha_leakage,
    alpha_loss,
    arimoto_cond_entropy,
    arimoto_mi,
    binary_channel,
    binary_maximal_alpha_leakage,
    cascade,
    conditional_of,
    f_divergence,
    f_leakage,
    hellinger_generator,
    kl_generator,
    custom_generator,
    make_joint,
    maximal_alpha_leakage,
    maximal_f_leakage,
    maximal_leakage,
    min_expected_alpha_loss,
    optimal_strategy,
    product_channel,
    put_f_leakage,
    sibson_mi,
)
import alphaleak.leakage as leakage
from alphaleak.leakage import _free_least_squares, _simplex_qp_step
from util import (
    capacity_gap,
    count_linalg_calls,
    expected_alpha_loss_of,
    maximize_over_simplex,
    mp_binary_closed_form,
    random_channel,
    random_dist,
    random_joint,
    random_strategies,
    sweep_channel,
    tall_sparse_channel,
)

B = Alphabet(("0", "1"))


def record_evaluations(monkeypatch):
    """Patch `leakage._minimize_on_simplex` so that each solve appends the
    list of points s = M z at which it called `evaluate`."""
    solves = []
    solve = leakage._minimize_on_simplex

    def recorded(M, evaluate, *args, **kwargs):
        points = []
        solves.append(points)

        def counted(s):
            points.append(s.tobytes())
            return evaluate(s)

        return solve(M, counted, *args, **kwargs)

    monkeypatch.setattr(leakage, "_minimize_on_simplex", recorded)
    return solves


BSC01_JOINT = make_joint(Dist(B, [0.4, 0.6]), binary_channel(0.1, 0.1))


class TestAlphaLoss:
    def test_perfect_guess_costs_nothing(self):
        for a in (1.0, 1.5, 2.0, math.inf):
            assert alpha_loss(1.0, a) == pytest.approx(0.0, abs=1e-15)

    def test_wrong_guess_at_infinity(self):
        assert alpha_loss(0.0, math.inf) == 1.0

    def test_half_at_order_two(self):
        assert alpha_loss(0.5, 2.0) == pytest.approx(2.0 * (1.0 - math.sqrt(0.5)), abs=1e-15)

    def test_log_loss_at_one(self):
        assert alpha_loss(0.25, 1.0) == pytest.approx(math.log(4), abs=1e-15)
        assert alpha_loss(0.0, 1.0) == math.inf

    def test_decreasing_and_convex_in_p(self):
        ps = np.linspace(0.01, 1.0, 100)
        for a in (1.0, 1.3, 2.0, 5.0, math.inf):
            vals = np.array([alpha_loss(p, a) for p in ps])
            assert np.all(np.diff(vals) < 1e-15)
            assert np.all(np.diff(vals, 2) >= -1e-12)

    @pytest.mark.parametrize("a", [1.0 + 2e-9, 1.0 + 1e-7])
    def test_near_order_one_matches_the_series(self, a):
        # (1/e) (1 - p^e) = -L - e L^2/2 - e^2 L^3/6 - ..., L = log p,
        # e = (a-1)/a; the next term is below 1e-20 here
        p, e = 0.3, (a - 1.0) / a
        L = math.log(p)
        assert alpha_loss(p, a) == pytest.approx(-L - e * L**2 / 2 - e**2 * L**3 / 6, abs=1e-15)
        assert alpha_loss(0.0, a) == a / (a - 1.0)

    def test_domain_checks(self):
        with pytest.raises(ValidationError):
            alpha_loss(1.5, 2.0)
        with pytest.raises(ValidationError):
            alpha_loss(0.5, 0.5)


class TestOptimalStrategy:
    def test_identity_at_order_one(self):
        post = Channel(B, Alphabet.of_size(3), [[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        out = optimal_strategy(post, 1.0)
        assert np.allclose(out.rows, post.rows, atol=0)

    def test_map_at_infinity(self):
        post = Channel(B, B, [[0.6, 0.4], [0.5, 0.5]])
        out = optimal_strategy(post, math.inf)
        assert np.allclose(out.rows[0], [1.0, 0.0], atol=0)
        assert np.allclose(out.rows[1], [0.5, 0.5], atol=0)  # tie split equally

    def test_binomial_tilt_beats_random_strategies(self):
        # posterior = Binomial(20, 0.5); the squared-tilted row must beat
        # a large sample of random strategies under the order-2 loss
        n = 21
        binom = np.array([math.comb(20, k) * 0.5**20 for k in range(20 + 1)])
        y_alpha = Alphabet(("y",))
        joint = Joint(Alphabet.of_size(n), y_alpha, binom[:, None])
        post = Channel(y_alpha, joint.row_alphabet, binom[None, :])
        tilted = optimal_strategy(post, 2.0)
        assert np.allclose(tilted.rows[0], binom**2 / (binom**2).sum(), atol=1e-14)
        rng = np.random.default_rng(20)
        batch = random_strategies(rng, 100_000, 1, n)
        losses = expected_alpha_loss_of(joint.m, batch, 2.0)
        best = expected_alpha_loss_of(joint.m, tilted.rows[None, :, :], 2.0)[0]
        assert best <= losses.min() + 1e-12
        assert best == pytest.approx(min_expected_alpha_loss(joint, 2.0), abs=1e-12)

    def test_requires_order_at_least_one(self):
        with pytest.raises(ValidationError):
            optimal_strategy(Channel.identity(B), 0.9)

    @staticmethod
    def tilted_row(row, a):
        """One row of the strategy, tilted on its own."""
        out = np.power(row / row.max(), a)
        return out / out.sum()

    def test_matches_the_row_by_row_tilt_bitwise(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n, m = rng.integers(1, 7, size=2)
            rows = rng.dirichlet(np.ones(m), size=n) * (rng.random((n, m)) > 0.3)
            rows[rows.sum(axis=1) == 0.0, 0] = 1.0
            if rng.random() < 0.3:  # ties for the MAP rule
                rows = np.round(rows / rows.sum(axis=1, keepdims=True), 1)
            rows /= rows.sum(axis=1, keepdims=True)
            post = Channel(Alphabet.of_size(n, "y"), Alphabet.of_size(m, "x"), rows)
            for a in (1.0, 1.5, 2.0, 10.0, math.inf):
                expected = np.stack([self.tilted_row(r, a) for r in post.rows])
                assert np.array_equal(optimal_strategy(post, a).rows, expected)

    @pytest.mark.parametrize("a", [2.0, 10.0, 50.0])
    def test_matches_the_tilt_in_60_digits(self, a):
        # x^a / sum x^a of each float row, exactly; entries below 2^-1000
        # may lose their digits to subnormal underflow, not their value
        rng = np.random.default_rng(43)
        worst = 0.0
        with mpmath.workdps(60):
            for _ in range(300):
                n, m = (int(v) for v in rng.integers(1, 6, size=2))
                rows = rng.dirichlet(np.full(m, 0.5), size=n)
                post = Channel(Alphabet.of_size(n, "y"), Alphabet.of_size(m, "x"), rows)
                for row, got in zip(post.rows, optimal_strategy(post, a).rows):
                    powers = [mpmath.mpf(float(v)) ** a for v in row]
                    total = mpmath.fsum(powers)
                    for power, value in zip(powers, got):
                        want = power / total
                        err = abs(mpmath.mpf(float(value)) - want)
                        if want > mpmath.ldexp(1, -1000):
                            worst = max(worst, float(err / want))
                        else:
                            assert err < 1e-300
        assert worst <= 1e-14


class TestMinExpectedAlphaLoss:
    def test_deterministic_costs_nothing(self):
        joint = make_joint(Dist.uniform(B), Channel.identity(B))
        for a in (1.0, 1.7, 3.0, math.inf):
            assert min_expected_alpha_loss(joint, a) == pytest.approx(0.0, abs=1e-12)
        # X = Y under random laws: H^A_alpha(X|Y) = 0 exactly, and rounding
        # must not read it as a few ulps below, nor pass alpha_loss a
        # probability above 1
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            alphabet = Alphabet.of_size(n, "x")
            joint = Joint(alphabet, alphabet, np.diag(rng.dirichlet(np.ones(n))))
            for a in (1.0, 1.5, 2.0, 5.0, math.inf):
                assert arimoto_cond_entropy(joint, a) >= 0.0
                assert min_expected_alpha_loss(joint, a) >= 0.0

    def test_blind_binary_map(self):
        indep = Joint(B, B, [[0.25, 0.25], [0.25, 0.25]])
        assert min_expected_alpha_loss(indep, math.inf) == pytest.approx(0.5, abs=1e-15)

    def test_column_maxima_example(self):
        assert min_expected_alpha_loss(BSC01_JOINT, math.inf) == pytest.approx(0.1, abs=1e-14)

    def test_closed_form_matches_direct_expectation(self):
        # evaluate the tilted strategy by direct summation and compare with
        # the closed form; the two routes share no code
        rng = np.random.default_rng(21)
        for _ in range(25):
            joint = random_joint(rng, rng.integers(2, 4), rng.integers(2, 4))
            posterior = conditional_of(joint.swapped()).conditional
            for a in (1.0, 1.4, 2.0, 6.0, math.inf):
                strategy = optimal_strategy(posterior, a)
                direct = expected_alpha_loss_of(
                    joint.m, strategy.rows[None, :, :], "inf" if a == math.inf else a
                )[0]
                assert min_expected_alpha_loss(joint, a) == pytest.approx(direct, abs=1e-10)
                assert np.allclose(strategy.rows.sum(axis=1), 1.0, atol=1e-12)


class TestAlphaLeakage:
    def test_independent_and_diagonal(self):
        indep = Joint(B, B, [[0.25, 0.25], [0.25, 0.25]])
        diag = make_joint(Dist.uniform(B), Channel.identity(B))
        for a in (1.0, 2.0, math.inf):
            assert alpha_leakage(indep, a) == pytest.approx(0.0, abs=1e-12)
            assert alpha_leakage(diag, a) == pytest.approx(math.log(2), abs=1e-12)

    def test_ratio_of_maximizations_route(self):
        # the defining ratio: both maximizations solved by generic
        # simplex-constrained numerical optimization, per output symbol
        rng = np.random.default_rng(22)
        joints = [BSC01_JOINT] + [random_joint(rng, 3, 3) for _ in range(4)]
        for joint in joints:
            n_x = len(joint.row_alphabet)
            for a in (1.7, 2.0, 3.0):
                expo = (a - 1.0) / a
                py = joint.m.sum(axis=0)
                numerator = 0.0
                for y in range(joint.m.shape[1]):
                    if py[y] == 0:
                        continue
                    col = joint.m[:, y]
                    numerator += maximize_over_simplex(lambda r: col @ r**expo, n_x)
                px = joint.m.sum(axis=1)
                denominator = maximize_over_simplex(lambda r: px @ r**expo, n_x)
                route = a / (a - 1.0) * math.log(numerator / denominator)
                assert alpha_leakage(joint, a) == pytest.approx(route, abs=1e-6)

    def test_rejects_small_orders(self):
        with pytest.raises(ValidationError):
            alpha_leakage(BSC01_JOINT, 0.5)


def _is_plus_zero_or_more(value: float) -> bool:
    return value >= 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 5.0, math.inf])
def test_no_leakage_of_an_independent_pair_is_below_plus_zero(a):
    # Y independent of X: every leakage is 0 in exact arithmetic, and
    # rounding must not return it as -0.0 or a few ulps below 0
    rng = np.random.default_rng(71)
    for _ in range(60):
        n, m = rng.integers(2, 6, size=2)
        prior, out = random_dist(rng, n), random_dist(rng, m)
        ch = Channel(prior.alphabet, out.alphabet, np.tile(out.p, (n, 1)))
        values = (
            alpha_leakage(make_joint(prior, ch), a),
            sibson_mi(prior, ch, a),
            maximal_alpha_leakage(ch, a, prior_for_one=prior).value,
        )
        assert all(map(_is_plus_zero_or_more, values)), values


class TestMaximalLeakage:
    def test_identity(self):
        for k in (2, 3, 5):
            assert maximal_leakage(Channel.identity(Alphabet.of_size(k))) == pytest.approx(
                math.log(k), abs=1e-15
            )

    def test_rank_one(self):
        assert maximal_leakage(Channel(B, B, [[0.3, 0.7], [0.3, 0.7]])) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_bsc(self):
        assert maximal_leakage(binary_channel(0.1, 0.1)) == pytest.approx(math.log(1.8), abs=1e-15)


class TestMaximalAlphaLeakage:
    def test_symmetric_binary_closed_form(self):
        res = maximal_alpha_leakage(binary_channel(0.1, 0.1), 2.0)
        assert res.value == pytest.approx(math.log(1.64), abs=1e-12)
        assert res.kkt_residual <= 1e-10
        assert np.allclose(res.optimal_input.p, [0.5, 0.5], atol=1e-8)

    def test_rank_one_channel(self):
        rank1 = Channel(B, B, [[0.3, 0.7], [0.3, 0.7]])
        for a in (1.5, 2.0, 7.0, math.inf):
            res = maximal_alpha_leakage(rank1, a)
            assert res.value == pytest.approx(0.0, abs=1e-12)
            assert res.kkt_residual <= 1e-10

    def test_asymmetric_matches_closed_form(self):
        res = maximal_alpha_leakage(binary_channel(0.05, 0.2), 3.0)
        closed = binary_maximal_alpha_leakage(0.05, 0.2, 3.0)
        assert res.value == pytest.approx(closed, abs=1e-6)

    def test_value_reproduced_by_sibson(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ch = random_channel(rng, rng.integers(2, 7), rng.integers(2, 7))
            a = float(rng.uniform(1.05, 12.0))
            res = maximal_alpha_leakage(ch, a)
            assert sibson_mi(res.optimal_input, ch, a) == pytest.approx(res.value, abs=1e-9)

    def test_certificate_equalized_on_support(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            ch = random_channel(rng, 5, 3)
            a = float(rng.choice([1.3, 2.0, 4.0]))
            res = maximal_alpha_leakage(ch, a, tol=1e-10)
            assert res.kkt_residual <= 1e-10
            p, q = res.optimal_input.p, res.target_output.p
            g = np.array(
                [
                    sum(
                        ch.rows[x, y] ** a * q[y] ** (1.0 - a)
                        for y in range(len(q))
                        if q[y] > 0
                    )
                    for x in range(len(p))
                ]
            )
            g = g / (p @ g)
            support = p > 1e-10
            assert g[support].max() - g[support].min() <= 1e-8
            assert g.max() <= g[support].min() + 1e-8  # support dominates

    def test_certificate_is_the_measured_two_sided_gap(self):
        # kkt_residual is max_x D_a(W_x || Q) - I^S_a(P) at the returned
        # laws, recomputed here by direct summation, and is within tol; on
        # 64x64 channels, channels with zero entries, and channels with
        # outputs no input reaches
        rng = np.random.default_rng(26)
        for n_in, n_out, zero_share, dead_outputs in (
            (64, 64, 0.0, 0),
            (64, 64, 0.3, 3),
            (8, 10, 0.4, 0),
            (9, 7, 0.3, 2),
            (5, 6, 0.0, 1),
        ):
            W = rng.dirichlet(np.ones(n_out), size=n_in)
            W[rng.random(W.shape) < zero_share] = 0.0
            W[:, :dead_outputs] = 0.0
            W[W.sum(axis=1) == 0.0, -1] = 1.0
            W /= W.sum(axis=1, keepdims=True)
            ch = Channel(Alphabet.of_size(n_in, "x"), Alphabet.of_size(n_out, "y"), W)
            for a in (1.05, 1.5, 4.0, 20.0):
                res = maximal_alpha_leakage(ch, a, tol=1e-10)
                gap = capacity_gap(W, a, res.optimal_input.p, res.target_output.p)
                assert res.kkt_residual == pytest.approx(gap, abs=1e-12)
                assert res.kkt_residual <= 1e-10

    def test_fixed_256_channel_certifies_in_few_iterations(self, monkeypatch):
        # the 256x256 Dirichlet(0.1) channel of the benchmark's fixed set
        # (the fourth matrix drawn from seed 1809), alpha = 2; the
        # least-squares step on a guessed support took 103 iterations.
        # Every free set is tall here, so no pivot needs the SVD fallback
        rng = np.random.default_rng(1809)
        for n, conc in ((128, 1.0), (128, 0.1), (256, 1.0), (256, 0.1)):
            W = rng.dirichlet(np.full(n, conc), size=n)
        W /= W.sum(axis=1, keepdims=True)
        ch = Channel(Alphabet.of_size(256, "x"), Alphabet.of_size(256, "y"), W)
        calls = count_linalg_calls(monkeypatch, "lstsq")
        res = maximal_alpha_leakage(ch, 2.0, tol=1e-10)
        assert res.kkt_residual <= 1e-10
        assert res.iterations <= 15
        assert calls["lstsq"] == 0

    def test_random_sweep_certifies_with_nonnegative_gaps(self):
        # all 2400 channels of the random sweep: none raises, every gap
        # lies in [0, tol] (rounding made 16 of them slightly negative once),
        # and the slow climbs out of nearly empty inputs stay as rare and as
        # short as they were with an SVD per block pivot
        iterations = []
        for seed in range(1, 6):
            for index in range(480):
                W, a = sweep_channel(seed, index)
                ch = Channel(Alphabet.of_size(W.shape[0], "x"), Alphabet.of_size(W.shape[1], "y"), W)
                res = maximal_alpha_leakage(ch, a, tol=1e-10)
                assert 0.0 <= res.kkt_residual <= 1e-10, (seed, index)
                iterations.append(res.iterations)
        assert sum(it > 30 for it in iterations) <= 23
        assert max(iterations) <= 116

    def test_tall_sparse_channels_certify(self):
        # many inputs onto few outputs make the Newton model singular, where
        # block pivoting alone cycles; alpha = 1.05 asks F to ~5e-12.  Plus
        # four channels of the random sweep, (5, 355) being the one the
        # least-squares step on a guessed support failed
        rng = np.random.default_rng(27)
        cases = [(tall_sparse_channel(rng), 1.05) for _ in range(37)]
        cases += [sweep_channel(s, k) for s, k in ((2, 256), (2, 465), (3, 113), (5, 355))]
        for W, a in cases:
            ch = Channel(Alphabet.of_size(W.shape[0], "x"), Alphabet.of_size(W.shape[1], "y"), W)
            res = maximal_alpha_leakage(ch, a, tol=1e-10)
            gap = capacity_gap(W, a, res.optimal_input.p, res.target_output.p)
            assert res.kkt_residual == pytest.approx(gap, abs=1e-12)
            assert res.kkt_residual <= 1e-10
            assert res.iterations <= 20

    def test_alpha_one_needs_prior(self):
        with pytest.raises(ValidationError):
            maximal_alpha_leakage(binary_channel(0.1, 0.1), 1.0)

    def test_alpha_one_is_mutual_information(self):
        prior = Dist(B, [0.3, 0.7])
        ch = binary_channel(0.1, 0.2)
        res = maximal_alpha_leakage(ch, 1.0, prior_for_one=prior)
        assert res.value == pytest.approx(arimoto_mi(make_joint(prior, ch), 1.0), abs=1e-14)

    def test_infinity_matches_maximal_leakage(self):
        ch = binary_channel(0.05, 0.3)
        res = maximal_alpha_leakage(ch, math.inf)
        assert res.value == pytest.approx(maximal_leakage(ch), abs=1e-15)
        assert res.kkt_residual == 0.0

    def test_nonconvergence_raises_with_the_gap(self):
        # a 3x3 channel: two-output channels start at their optimum
        ch = Channel(
            Alphabet.of_size(3, "x"),
            Alphabet.of_size(3, "y"),
            [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
        )
        with pytest.raises(ConvergenceError, match="capacity gap") as info:
            maximal_alpha_leakage(ch, 2.0, tol=1e-16, max_iter=2)
        assert info.value.iterations == 2
        assert info.value.residual > 1e-16

    def test_tiny_entries_raise_no_warning(self):
        # steps through points where the derivatives divide by zero; those
        # points are rejected, and numpy must not warn about them
        W = [[1e-12, 1.0 - 1e-12 - 1e-8, 1e-8], [0.01, 0.9896, 0.0004]]
        ch = Channel(Alphabet.of_size(2, "x"), Alphabet.of_size(3, "y"), W)
        res = maximal_alpha_leakage(ch, 20.0)
        gap = capacity_gap(np.array(W), 20.0, res.optimal_input.p, res.target_output.p)
        assert res.kkt_residual == pytest.approx(gap, abs=1e-12)
        assert res.kkt_residual <= 1e-10

    def test_start_outside_the_domain_falls_back_to_uniform(self, monkeypatch):
        # from (1/2, 1/2, 0) no input reaches the third output, so F = inf
        # there; the solve starts from the uniform point instead
        W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.4, 0.4, 0.2]])
        ch = Channel(Alphabet.of_size(3, "x"), Alphabet.of_size(3, "y"), W)
        cold = maximal_alpha_leakage(ch, 2.0)
        solve = leakage._minimize_on_simplex
        monkeypatch.setattr(
            leakage,
            "_minimize_on_simplex",
            lambda *args, start=None: solve(*args, start=np.array([0.5, 0.5, 0.0])),
        )
        res = maximal_alpha_leakage(ch, 2.0)
        assert res.kkt_residual <= 1e-10
        assert res.iterations == cold.iterations
        assert res.value == cold.value

    def test_iterating_solves_evaluate_each_point_once(self, monkeypatch):
        # F, g' and g'' come from one call per point, and no point is
        # evaluated again once its terms are known
        solves = record_evaluations(monkeypatch)
        rng = np.random.default_rng(41)
        iterations = []
        for n in (3, 4, 5, 6, 8, 12, 16):
            for _ in range(4):
                ch = random_channel(rng, n, n)
                for a in (1.5, 2.0, 4.0, 20.0):
                    res = maximal_alpha_leakage(ch, a)
                    assert res.kkt_residual <= 1e-10
                    iterations.append(res.iterations)
                    points = solves[-1]
                    assert len(points) > res.iterations
                    assert len(set(points)) == len(points), (n, a)
        assert min(iterations) > 0


class TestTwoOutputStart:
    """With two outputs the solve starts at the optimum on the two inputs
    of extreme W(y0|x): every row is a mixture of those two, and
    D_a(. || Q) is quasi-convex, so some optimal input lives on them."""

    ORDERS = (1.01, 1.05, 1.25, 2.0, 5.0, 20.0, 100.0, 1000.0)

    @staticmethod
    def bound(res, a):
        # the two-sided gap, the closed form's eps / (a - 1) near the
        # rank-one locus, and a few ulps of the O(1) value at large a
        return res.kkt_residual + 1e-14 / (a - 1.0) + 2e-15

    def test_matches_the_binary_closed_form(self):
        rng = np.random.default_rng(61)
        r1, r2 = rng.uniform(0.0, 1.0, (2, 60))  # r1 + r2 > 1 for about half
        edge = rng.uniform(0.0, 1.0, 8)
        near = TestBinaryClosedForm.near_locus(rng, 10, lo=-9, hi=-6)
        r1 = np.r_[r1, np.zeros(8), np.ones(8), np.full(8, 1e-12), edge, near[0]]
        r2 = np.r_[r2, edge, edge, edge, np.zeros(8), near[1]]
        for x, y in zip(r1, r2):
            for a in self.ORDERS:
                res = maximal_alpha_leakage(binary_channel(x, y), a)
                assert res.kkt_residual <= 1e-10
                closed = binary_maximal_alpha_leakage(x, y, a)
                assert abs(res.value - closed) <= self.bound(res, a), (x, y, a)

    def test_matches_the_closed_form_of_the_extreme_rows(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            W = rng.dirichlet([0.5, 0.5], size=n)
            i, j = np.argmax(W[:, 0]), np.argmin(W[:, 0])
            ch = Channel(Alphabet.of_size(n, "x"), Alphabet.of_size(2, "y"), W)
            for a in self.ORDERS:
                res = maximal_alpha_leakage(ch, a)
                assert res.kkt_residual <= 1e-10
                closed = binary_maximal_alpha_leakage(W[i, 1], W[j, 0], a)
                assert abs(res.value - closed) <= self.bound(res, a)

    def test_certified_at_the_start_over_the_benchmark_range(self):
        rng = np.random.default_rng(63)
        for r1, r2 in rng.uniform(0.02, 0.45, (100, 2)):
            for a in (1.25, 1.5, 2.0, 3.0, 5.0, 10.0):
                res = maximal_alpha_leakage(binary_channel(r1, r2), a)
                assert res.iterations == 0
                assert res.kkt_residual <= 1e-10

    def test_a_certified_start_is_evaluated_once(self, monkeypatch):
        solves = record_evaluations(monkeypatch)
        res = maximal_alpha_leakage(binary_channel(0.1, 0.3), 2.0)
        assert res.iterations == 0 and res.kkt_residual <= 1e-10
        assert len(solves) == 1 and len(solves[0]) == 1

    def test_symmetric_channel_starts_at_the_uniform_input(self):
        for rho in (0.0, 0.01, 0.1, 0.3, 0.5, 0.7, 0.99):
            for a in (1.05, 2.0, 10.0):
                res = maximal_alpha_leakage(binary_channel(rho, rho), a)
                np.testing.assert_allclose(res.optimal_input.p, [0.5, 0.5], rtol=0, atol=1e-15)


def assert_qp_step_is_optimal(A, r, z, start):
    # w = z + d minimizes |A (w - z) + r|^2 over the simplex: w >= 0,
    # sum(w) = 1, and the gradient A^T (A d + r) equals its multiplier on
    # supp(w) and is at least it elsewhere
    d = _simplex_qp_step(A, r, z, start)
    w = z + (0.0 if d is None else d)
    assert w.min() >= 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    grad = A.T @ (A @ (w - z) + r)
    scale = max(1.0, np.abs(A.T @ r).max())
    mult = w @ grad
    assert np.abs(grad[w > 0] - mult).max() <= 1e-9 * scale
    assert grad.min() >= mult - 1e-9 * scale


class TestSimplexQP:
    def test_kkt_on_random_problems(self):
        # wide A (a singular model, as from a channel with more inputs than
        # outputs), duplicated columns, zero rows, and warm starts anywhere
        rng = np.random.default_rng(31)
        for k in range(400):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 13))
            A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4)
            if k % 3 == 0 and n > 1:
                A[:, rng.integers(n, size=n // 2)] = A[:, rng.integers(n, size=n // 2)]
            if k % 4 == 0:
                A[rng.random(m) < 0.4] = 0.0
            r = rng.normal(size=m)
            z = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
            if z.sum() == 0.0:
                z[0] = 1.0
            z /= z.sum()
            start = z if k % 2 else rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
            if start.sum() == 0.0:
                start = z
            assert_qp_step_is_optimal(A, r, z, start / start.sum())

    def test_kkt_on_tall_problems(self, monkeypatch):
        # more rows than columns, as from a channel with more outputs than
        # inputs, up to 256 columns: the free sets are tall, so their least
        # squares go through the normal equations, except where exactly
        # duplicated columns make them singular and the SVD takes over.
        # Columns perturbed by 1e-9 leave them nearly singular; those stay in
        # models of at most 64 columns, because on larger ones block
        # pivoting can cycle and Lawson-Hanson, one column per solve, then
        # runs out of its _PIVOTS solves before the minimizer
        calls = count_linalg_calls(monkeypatch, "solve", "lstsq")
        rng = np.random.default_rng(37)
        for k in range(60):
            n = int(rng.integers(2, 257)) if k % 4 == 0 else int(rng.integers(2, 65))
            m = n + int(rng.integers(1, 40))
            A = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4)
            copies = max(1, n // 8)
            if k % 3 == 0:
                A[:, rng.integers(n, size=copies)] = A[:, rng.integers(n, size=copies)]
            if k % 3 == 1 and n <= 64:
                cols = rng.integers(n, size=copies)
                A[:, rng.integers(n, size=copies)] = A[:, cols] * (1.0 + 1e-9 * rng.normal(size=(m, copies)))
            r = rng.normal(size=m)
            z = rng.dirichlet(np.ones(n))
            start = z if k % 2 else rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.5)
            if start.sum() == 0.0:
                start = z
            assert_qp_step_is_optimal(A, r, z, start / start.sum())
        assert calls["solve"] > 0 and calls["lstsq"] > 0


    def test_least_squares_on_columns_of_any_scale(self, monkeypatch):
        # Newton weights can span tens of orders of magnitude across the
        # rows, and so the columns of a free basis their norms: scaled to a
        # unit diagonal, the normal equations still solve a well-conditioned
        # basis whose column norms run from 1e-20 to 1, where an SVD keeping
        # singular values above 1e-12 of the largest would drop columns
        rng = np.random.default_rng(41)
        basis = rng.normal(size=(30, 12)) * 10.0 ** -np.linspace(0, 20, 12)
        b = rng.normal(size=30)
        norms = np.linalg.norm(basis, axis=0)
        exact = np.linalg.lstsq(basis / norms, b, rcond=None)[0] / norms
        calls = count_linalg_calls(monkeypatch, "lstsq")
        np.testing.assert_allclose(_free_least_squares(basis, b), exact, rtol=1e-10)
        assert calls["lstsq"] == 0


class TestBinaryClosedForm:
    def test_noiseless(self):
        for a in (1.5, 2.0, 10.0, 100.0):
            assert binary_maximal_alpha_leakage(0.0, 0.0, a) == pytest.approx(
                math.log(2), abs=1e-12
            )

    def test_rank_one_degenerate_locus(self):
        assert binary_maximal_alpha_leakage(0.5, 0.5, 2.0) == pytest.approx(0.0, abs=1e-9)
        assert binary_maximal_alpha_leakage(0.3, 0.7, 3.0) == pytest.approx(0.0, abs=1e-9)
        r1 = np.random.default_rng(53).uniform(0.0, 1.0, 5000)
        for a in (1.05, 1.5, 2.0, 5.0, 20.0, 1000.0):
            assert np.abs(binary_maximal_alpha_leakage(r1, 1.0 - r1, a)).max() <= 1e-14
            # the constant channels at the two ends of the locus
            assert binary_maximal_alpha_leakage(0.0, 1.0, a) == 0.0
            assert binary_maximal_alpha_leakage(1.0, 0.0, a) == 0.0

    def test_symmetric_reduction(self):
        for rho in (0.05, 0.1, 0.3):
            for a in (1.2, 2.0, 6.0):
                expected = math.log((1 - rho) ** a + rho**a) / (a - 1.0) + math.log(2)
                assert binary_maximal_alpha_leakage(rho, rho, a) == pytest.approx(expected, abs=1e-12)

    def test_rejects_orders_at_most_one(self):
        with pytest.raises(ValidationError):
            binary_maximal_alpha_leakage(0.1, 0.1, 1.0)

    @pytest.mark.parametrize("rho1, rho2", [(-0.1, 0.2), (0.1, 1.2)])
    @pytest.mark.parametrize("build", [binary_channel, lambda r1, r2: binary_maximal_alpha_leakage(r1, r2, 2.0)],
                             ids=["binary_channel", "closed_form"])
    def test_rejects_crossovers_outside_the_unit_interval(self, build, rho1, rho2):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            build(rho1, rho2)

    def test_large_alpha_approaches_maximal_leakage(self):
        got = binary_maximal_alpha_leakage(0.1, 0.2, 1000.0)
        assert got == pytest.approx(maximal_leakage(binary_channel(0.1, 0.2)), abs=2e-3)

    # ORDERS spans alpha in [1.2, 20]: the rounding error of the closed form
    # grows as eps / (alpha - 1), to about 1e-14 at alpha = 1.05.
    ORDERS = (1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0)
    CLI_PAIR = (0.7055150871507552, 0.2944849128497319)  # delta = -4.9e-13

    @staticmethod
    def near_locus(rng, n, lo=-15, hi=-1):
        """n crossover pairs at |1 - rho1 - rho2| = 10^U(lo, hi), both signs."""
        r1 = rng.uniform(0.0, 1.0, n)
        r2 = 1.0 - r1 - rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
        inside = (0.0 <= r2) & (r2 <= 1.0)
        return r1[inside], r2[inside]

    @staticmethod
    def exact(r1, r2, a):
        """The closed form in exact rational arithmetic up to the last root
        and log: (x^a - y^a)/(x - y) = sum_k x^k y^(a-1-k) at integer a."""
        r1, r2 = Fraction(r1), Fraction(r2)

        def divided(x, y):
            return sum(x**k * y ** (a - 1 - k) for k in range(a))

        m = divided((1 - r1) * (1 - r2), r1 * r2)
        ratios = (m / divided(1 - r2, r1), m / divided(1 - r1, r2))
        return math.log(sum(float(t) ** (1.0 / (a - 1)) for t in ratios))

    def test_never_enters_the_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the closed form called the solver")

        monkeypatch.setattr(leakage, "_minimize_on_simplex", refuse)
        r1, r2 = self.near_locus(np.random.default_rng(50), 200)
        grid = np.linspace(0.0, 1.0, 21)
        square = np.meshgrid(grid, grid)
        r1 = np.r_[r1, grid, square[0].ravel(), 0.0, 1.0, self.CLI_PAIR[0]]
        r2 = np.r_[r2, 1.0 - grid, square[1].ravel(), 1.0, 0.0, self.CLI_PAIR[1]]
        for a in (1.05, 2.0, 20.0):
            assert np.isfinite(binary_maximal_alpha_leakage(r1, r2, a)).all()
            assert math.isfinite(binary_maximal_alpha_leakage(*self.CLI_PAIR, a))

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_matches_exact_arithmetic_near_the_locus(self, a):
        rng = np.random.default_rng(51 + a)
        r1, r2 = self.near_locus(rng, 120)
        r1, r2 = np.r_[r1, self.CLI_PAIR[0]], np.r_[r2, self.CLI_PAIR[1]]
        got = binary_maximal_alpha_leakage(r1, r2, float(a))
        exact = [self.exact(x, y, a) for x, y in zip(r1, r2)]
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-13)

    def test_matches_the_solver_over_the_unit_square(self):
        rng = np.random.default_rng(52)
        for _ in range(60):
            r1, r2 = rng.uniform(0.0, 1.0, 2)
            a = float(rng.choice([1.2, 2.0, 5.0, 12.0]))
            res = maximal_alpha_leakage(binary_channel(r1, r2), a, tol=1e-13)
            assert binary_maximal_alpha_leakage(r1, r2, a) == pytest.approx(res.value, abs=1e-12)

    # The capacity is >= 0 and nondecreasing in alpha.  Near the locus it is
    # below rounding, so both hold up to 1e-14.
    def test_nonnegative_near_the_locus(self):
        r1, r2 = self.near_locus(np.random.default_rng(54), 400, lo=-14, hi=-3)
        for a in self.ORDERS:
            assert binary_maximal_alpha_leakage(r1, r2, a).min() >= -1e-14

    def test_clamped_at_zero_near_the_locus(self):
        # unclamped, 13-30% of these pairs round below 0, to -4.7e-13 at alpha = 1.001
        r1, r2 = self.near_locus(np.random.default_rng(56), 20_000, lo=-16, hi=-3)
        for a in (1.001, 1.01, 1.05, 2.0, 20.0, 1000.0):
            assert not np.signbit(binary_maximal_alpha_leakage(r1, r2, a)).any()
            scalars = [binary_maximal_alpha_leakage(x, y, a) for x, y in zip(r1[:100], r2[:100])]
            assert min(math.copysign(1.0, v) for v in scalars) == 1.0

    def test_nondecreasing_in_alpha_near_the_locus(self):
        r1, r2 = self.near_locus(np.random.default_rng(55), 400, lo=-14, hi=-3)
        values = np.stack([binary_maximal_alpha_leakage(r1, r2, a) for a in self.ORDERS])
        assert np.diff(values, axis=0).min() >= -1e-14

    # outside the order snap |alpha - 1| < 1e-9 of `prob._order`
    NEAR_ONE_ORDERS = (1 + 2e-9, 1 + 1e-7, 1 + 1e-5, 1.001, 1.05, 2.0, 10.0, 1000.0)

    def test_matches_60_digits_at_orders_near_one(self):
        # two terms of order 1/(alpha - 1) that cancel would leave 1.9e-7
        # at alpha = 1 + 2e-9
        rng = np.random.default_rng(57)
        r1, r2 = rng.uniform(0.0, 1.0, (2, 150))
        n1 = rng.uniform(0.0, 1.0, 50)
        n2 = np.clip(1.0 - n1 - rng.uniform(-1e-3, 1e-3, 50), 0.0, 1.0)
        edge = rng.uniform(0.0, 1.0, 4)
        r1 = np.r_[r1, n1, 0.0, 0.0, 1.0, 1.0, edge, np.zeros(2), np.ones(2)]
        r2 = np.r_[r2, n2, 0.0, 1.0, 0.0, 1.0, np.zeros(2), np.ones(2), edge]
        with mpmath.workdps(60):
            for a in self.NEAR_ONE_ORDERS:
                got = binary_maximal_alpha_leakage(r1, r2, a)
                err = max(abs(mp_binary_closed_form(x, y, a) - mpmath.mpf(v)) for x, y, v in zip(r1, r2, got))
                assert err <= 2e-15, a

    def test_nondecreasing_in_alpha_from_orders_near_one(self):
        # nothing is divided by alpha - 1, so the rounding stays a few ulps
        # of the O(1) terms at every order
        r1, r2 = self.near_locus(np.random.default_rng(58), 2000, lo=-16, hi=-3)
        values = np.stack([binary_maximal_alpha_leakage(r1, r2, a) for a in self.NEAR_ONE_ORDERS])
        assert np.diff(values, axis=0).min() >= -4e-15


class TestCapacityLowerBound:
    """Sibson's I^S_alpha at the uniform input bounds the capacity from below."""

    def test_bsc_is_tight(self):
        for rho in (0.05, 0.1, 0.25):
            for a in (1.5, 2.0, 4.0):
                bound = sibson_mi(Dist.uniform(B), binary_channel(rho, rho), a)
                symbolic = math.log(2) + math.log((1 - rho) ** a + rho**a) / (a - 1.0)
                assert bound == pytest.approx(symbolic, abs=1e-12)
                assert bound == pytest.approx(binary_maximal_alpha_leakage(rho, rho, a), abs=1e-9)

    def test_rank_one(self):
        bound = sibson_mi(Dist.uniform(B), Channel(B, B, [[0.3, 0.7], [0.3, 0.7]]), 2.0)
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_strictly_below(self):
        bound = sibson_mi(Dist.uniform(B), binary_channel(0.05, 0.3), 2.0)
        value = maximal_alpha_leakage(binary_channel(0.05, 0.3), 2.0).value
        assert bound < value - 1e-4


class TestFLeakage:
    def test_kl_short_circuit(self):
        value, q = f_leakage(BSC01_JOINT, kl_generator())
        assert value == pytest.approx(arimoto_mi(BSC01_JOINT, 1.0), abs=1e-12)
        assert q.allclose(BSC01_JOINT.col_marginal(), atol=1e-12)

    def test_independent_joint_zero(self):
        indep = Joint(B, B, [[0.18, 0.42], [0.12, 0.28]])
        for gen in (kl_generator(), hellinger_generator(2.0)):
            value, q = f_leakage(indep, gen)
            assert value == pytest.approx(0.0, abs=1e-10)
            assert q.allclose(indep.col_marginal(), atol=1e-8)

    def test_hellinger_reference_is_the_capacity_output_law(self):
        # Two computations of the Sibson centre: at the capacity solver's
        # last point, and from the optimal input law by the Hellinger short
        # circuit.
        rng = np.random.default_rng(60)
        for _ in range(200):
            W = random_channel(rng, *(int(v) for v in rng.integers(2, 12, size=2)))
            for a in (1.5, 2.0, 5.0, 20.0):
                res = maximal_alpha_leakage(W, a)
                _, q = f_leakage(make_joint(res.optimal_input, W), hellinger_generator(a))
                assert np.abs(q.p - res.target_output.p).max() <= 1e-14

    def test_hellinger_reference_matches_the_sibson_centre_in_60_digits(self):
        # Q(y) = A(y)^(1/a) / sum A^(1/a), A(y) = sum_x P(x) W(y|x)^a, for
        # the prior and channel that the joint factors into
        rng = np.random.default_rng(44)
        worst = 0.0
        with mpmath.workdps(60):
            for _ in range(200):
                n, m = (int(v) for v in rng.integers(2, 9, size=2))
                a = float(np.exp(rng.uniform(math.log(1.5), math.log(100.0))))
                joint = random_joint(rng, n, m, conc=0.5)
                _, q = f_leakage(joint, hellinger_generator(a))
                prior, channel, _ = conditional_of(joint)
                roots = [
                    mpmath.fsum(
                        mpmath.mpf(float(px)) * mpmath.mpf(float(w)) ** a
                        for px, w in zip(prior.p, channel.rows[:, y]) if px > 0
                    ) ** (1 / mpmath.mpf(a))
                    for y in range(m)
                ]
                total = mpmath.fsum(roots)
                for root, value in zip(roots, q.p):
                    worst = max(worst, float(abs(mpmath.mpf(float(value)) - root / total) / (root / total)))
        assert worst <= 1e-15

    def test_custom_generator_is_never_below_plus_zero(self):
        # Y independent of X: the value is 0 in exact arithmetic, and the
        # descent's rounding left half of these joints a few ulps below 0
        gen = custom_generator(lambda t: (t**2.5 - 1.0) / 1.5, -1.0 / 1.5, math.inf)
        rng = np.random.default_rng(75)
        for _ in range(200):
            n, m = (int(v) for v in rng.integers(2, 6, size=2))
            prior, out = random_dist(rng, n), random_dist(rng, m)
            value, _ = f_leakage(Joint(prior.alphabet, out.alphabet, np.outer(prior.p, out.p)), gen)
            assert _is_plus_zero_or_more(value), value

    def _grid_min(self, joint, gen):
        from alphaleak import conditional_of, f_divergence

        px, ch, _ = conditional_of(joint)

        def at(t):
            q = Dist(joint.col_alphabet, [t, 1.0 - t])
            return sum(
                px.p[i] * f_divergence(Dist(joint.col_alphabet, ch.rows[i]), q, gen)
                for i in range(len(px.p))
            )

        ts = np.linspace(1e-5, 1 - 1e-5, 2001)
        t0 = ts[int(np.argmin([at(t) for t in ts]))]
        local = np.linspace(max(t0 - 1e-3, 1e-9), min(t0 + 1e-3, 1 - 1e-9), 2001)
        return min(at(t) for t in local)

    def test_hellinger_against_grid(self):
        gen = hellinger_generator(2.0)
        value, _ = f_leakage(BSC01_JOINT, gen)
        assert value == pytest.approx(self._grid_min(BSC01_JOINT, gen), abs=1e-7)
        # the Sibson bridge route
        i_s = sibson_mi(Dist(B, [0.4, 0.6]), binary_channel(0.1, 0.1), 2.0)
        assert value == pytest.approx(math.expm1(i_s), abs=1e-12)

    def test_custom_against_grid(self):
        gen = custom_generator(
            lambda t: (math.sqrt(t) - 1.0) ** 2, f_at_zero=1.0, slope_at_inf=1.0
        )
        value, q = f_leakage(BSC01_JOINT, gen, tol=1e-10)
        assert value == pytest.approx(self._grid_min(BSC01_JOINT, gen), abs=1e-8)
        assert q.p.sum() == pytest.approx(1.0, abs=1e-12)


class TestMaximalFLeakage:
    def test_kl_of_equal_rows_is_never_below_plus_zero(self):
        rng = np.random.default_rng(72)
        for _ in range(60):
            n, m = rng.integers(2, 6, size=2)
            ch = Channel(Alphabet.of_size(n), Alphabet.of_size(m), np.tile(rng.dirichlet(np.ones(m)), (n, 1)))
            assert _is_plus_zero_or_more(maximal_f_leakage(ch, kl_generator()))

    def test_rank_one_zero_for_all_generators(self):
        rank1 = Channel(B, B, [[0.3, 0.7], [0.3, 0.7]])
        gens = [
            kl_generator(),
            hellinger_generator(2.0),
            custom_generator(lambda t: (math.sqrt(t) - 1.0) ** 2, 1.0, 1.0),
        ]
        for gen in gens:
            assert maximal_f_leakage(rank1, gen, tol=1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_hellinger_bsc(self):
        got = maximal_f_leakage(binary_channel(0.1, 0.1), hellinger_generator(2.0))
        assert got == pytest.approx(0.64, abs=1e-9)

    # Asymmetric channels: the uniform input is not optimal, so the ascent
    # has to step before the saddle gap closes.
    ASYMMETRIC = [(0, 3, 3), (1, 3, 4), (3, 2, 5)]

    @pytest.mark.parametrize("seed, n_in, n_out", ASYMMETRIC)
    def test_kl_ascent_reaches_shannon_capacity(self, seed, n_in, n_out):
        ch = random_channel(np.random.default_rng(seed), n_in, n_out)
        got = maximal_f_leakage(ch, kl_generator())
        at_uniform = arimoto_mi(make_joint(Dist.uniform(ch.input_alphabet), ch), 1.0)
        best = maximize_over_simplex(
            lambda p: arimoto_mi(make_joint(Dist(ch.input_alphabet, p), ch), 1.0), n_in
        )
        assert got > at_uniform + 1e-6
        assert got == pytest.approx(best, abs=1e-8)

    @pytest.mark.parametrize("seed, n_in, n_out", ASYMMETRIC)
    def test_custom_t_log_t_ascent_matches_kl(self, seed, n_in, n_out):
        ch = random_channel(np.random.default_rng(seed), n_in, n_out)
        t_log_t = custom_generator(lambda t: t * math.log(t) if t > 0 else 0.0, 0.0, math.inf)
        assert maximal_f_leakage(ch, t_log_t) == pytest.approx(maximal_f_leakage(ch, kl_generator()), abs=1e-8)

    def test_custom_hellinger_certifies_at_the_default_tol(self):
        # The inner solve's Frank-Wolfe gap stalls near 1.1e-10 on this
        # channel, so the ascent must not ask it for less than its own tol.
        ch = random_channel(np.random.default_rng(8), 3, 3)
        gen = custom_generator(lambda t: (t**2.5 - 1.0) / 1.5, f_at_zero=-2.0 / 3.0, slope_at_inf=math.inf)
        expected = maximal_f_leakage(ch, hellinger_generator(2.5))
        assert maximal_f_leakage(ch, gen) == pytest.approx(expected, abs=1e-8)

    def test_no_iterations_raises_with_the_gap(self):
        ch = random_channel(np.random.default_rng(0), 3, 3)
        with pytest.raises(ConvergenceError) as exc:
            maximal_f_leakage(ch, kl_generator(), max_iter=0)
        assert exc.value.residual == math.inf and exc.value.iterations == 0

    def test_no_iterations_raises_on_the_hellinger_route(self):
        # Hellinger is solved as a capacity: max_iter must reach that solver
        ch = random_channel(np.random.default_rng(0), 3, 3)
        with pytest.raises(ConvergenceError) as exc:
            maximal_f_leakage(ch, hellinger_generator(2.0), max_iter=0)
        assert exc.value.iterations == 0

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 0.0], [0.2, 0.8]], [[0.7, 0.3, 0.0], [0.2, 0.2, 0.6], [0.1, 0.0, 0.9]]],
    )
    def test_custom_generator_undefined_at_zero(self, rows):
        # math.log(0) raises: f(0) must come from f_at_zero, not from fn
        t_log_t = custom_generator(lambda t: t * math.log(t), 0.0, math.inf)
        kl = kl_generator()
        n = len(rows)
        ch = Channel(Alphabet.of_size(n, "x"), Alphabet.of_size(len(rows[0]), "y"), rows)
        dists = [Dist(ch.output_alphabet, r) for r in ch.rows]
        for p in dists:
            for q in dists:
                assert f_divergence(p, q, t_log_t) == pytest.approx(f_divergence(p, q, kl), abs=1e-8)
        joint = make_joint(Dist.uniform(ch.input_alphabet), ch)
        assert f_leakage(joint, t_log_t)[0] == pytest.approx(f_leakage(joint, kl)[0], abs=1e-8)
        assert maximal_f_leakage(ch, t_log_t) == pytest.approx(maximal_f_leakage(ch, kl), abs=1e-8)

    def test_a_generator_of_zero_curvature_raises_no_numpy_error(self):
        # total variation: f'' = 0 off t = 1 leaves no Newton model, so the
        # solver takes Frank-Wolfe steps; it certifies a value or raises
        # ConvergenceError, and never divides by the zero curvature
        tv = custom_generator(lambda t: abs(t - 1.0) / 2.0, 0.5, 0.5)
        X, Y = Alphabet.of_size(3, "x"), Alphabet.of_size(3, "y")
        ch = Channel(Alphabet.of_size(2, "x"), Y, [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        cyclic = DistortionSpec(X, Y, [[0, 1, 2], [2, 0, 1], [1, 2, 0]], 1)
        prior = Dist(X, [0.2, 0.3, 0.5])
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            for solve in (lambda: maximal_f_leakage(ch, tv), lambda: put_f_leakage(prior, cyclic, tv)[0]):
                try:
                    value = solve()
                except ConvergenceError as exc:
                    assert exc.iterations > 0 and exc.residual > 0.0
                else:
                    assert 0.0 <= value < math.inf

    def test_kl_is_shannon_capacity(self):
        got = maximal_f_leakage(binary_channel(0.1, 0.1), kl_generator(), tol=1e-10)
        h = -(0.1 * math.log(0.1) + 0.9 * math.log(0.9))
        assert got == pytest.approx(math.log(2) - h, abs=1e-9)
        # fine input-grid oracle
        best = max(
            arimoto_mi(make_joint(Dist(B, [t, 1 - t]), binary_channel(0.1, 0.1)), 1.0)
            for t in np.linspace(0.001, 0.999, 1999)
        )
        assert got == pytest.approx(best, abs=1e-6)


class TestPaperTheorems:
    """Properties of maximal alpha-leakage proved in the paper, checked on
    certified brackets: the capacity lies in [value, value + kkt_residual],
    so value_1 <= capacity_1 <= capacity_2 <= value_2 + kkt_residual_2, up
    to the rounding of the values themselves (ROUNDING): an equality such as
    additivity holds to a few ulps only."""

    ORDERS = (1.2, 2.0, 5.0, math.inf)
    ROUNDING = 1e-14

    @staticmethod
    def channels(seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n_in, n_out = rng.integers(2, 5, size=2)
            yield rng, random_channel(rng, n_in, n_out)

    @staticmethod
    def bracket(channel, a):
        res = maximal_alpha_leakage(channel, a)
        return res.value, res.value + res.kkt_residual + TestPaperTheorems.ROUNDING

    @pytest.mark.parametrize("a", ORDERS)
    def test_data_processing_through_a_cascade(self, a):
        for rng, ch in self.channels(60, 25):
            k = int(rng.integers(2, 5))
            post = Channel(ch.output_alphabet, Alphabet.of_size(k, "z"), rng.dirichlet(np.ones(k), ch.shape[1]))
            assert self.bracket(cascade(ch, post), a)[0] <= self.bracket(ch, a)[1]

    @pytest.mark.parametrize("a", ORDERS)
    def test_additive_on_products(self, a):
        for rng, ch in self.channels(61, 20):
            other = random_channel(rng, *rng.integers(2, 5, size=2))
            lo1, hi1 = self.bracket(ch, a)
            lo2, hi2 = self.bracket(other, a)
            lo, hi = self.bracket(product_channel([ch, other]), a)
            assert lo <= hi1 + hi2
            assert lo1 + lo2 <= hi

    @pytest.mark.parametrize("a", ORDERS)
    def test_subadditive_over_two_releases_of_the_same_input(self, a):
        # W(y1, y2 | x) = W1(y1 | x) W2(y2 | x): both outputs come from one X
        for rng, ch in self.channels(64, 80):
            other = random_channel(rng, ch.shape[0], int(rng.integers(2, 5)))
            rows = (ch.rows[:, :, None] * other.rows[:, None, :]).reshape(ch.shape[0], -1)
            both = Channel(ch.input_alphabet, Alphabet.of_size(rows.shape[1], "y"), rows)
            assert self.bracket(both, a)[0] <= self.bracket(ch, a)[1] + self.bracket(other, a)[1]

    @pytest.mark.parametrize("a", [1.3, 2.0, 5.0, 20.0])
    def test_maximal_alpha_leakage_is_the_arimoto_capacity(self, a):
        # I^A_a at P equals I^S_a at P^a / sum P^a (Verdu, ITA 2015), so the
        # Arimoto information peaks at the capacity, at P_A proportional to P*^(1/a).
        rng = np.random.default_rng(65)
        for _ in range(60):
            ch = random_channel(rng, *rng.integers(2, 9, size=2))
            res = maximal_alpha_leakage(ch, a)
            slack = res.kkt_residual + self.ROUNDING
            tilted = res.optimal_input.p ** (1.0 / a)
            p_a = Dist(ch.input_alphabet, tilted / tilted.sum())
            assert abs(arimoto_mi(make_joint(p_a, ch), a) - res.value) <= slack
            for _ in range(5):
                prior = Dist(ch.input_alphabet, rng.dirichlet(np.ones(ch.shape[0])))
                assert arimoto_mi(make_joint(prior, ch), a) <= res.value + slack

    @pytest.mark.parametrize("a", ORDERS)
    def test_nondecreasing_in_alpha(self, a):
        for _, ch in self.channels(62, 25):
            assert self.bracket(ch, a)[0] <= self.bracket(ch, 1.5 * a)[1]
