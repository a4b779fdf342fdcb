import math

import mpmath
import numpy as np
import pytest

from alphaleak import (
    Alphabet,
    Channel,
    Dist,
    Joint,
    ValidationError,
    arimoto_cond_entropy,
    arimoto_mi,
    binary_channel,
    custom_generator,
    f_divergence,
    f_leakage,
    hellinger_generator,
    kl_generator,
    make_joint,
    renyi_divergence,
    renyi_entropy,
    sibson_mi,
)
from alphaleak.measures import FGenerator
from util import random_channel, random_dist, random_joint, same_law

B = Alphabet(("0", "1"))
ORDERS = [0.5, 1.0, 1.5, 2.0, 4.0, 10.0, math.inf]


def bern(p: float) -> Dist:
    return Dist(B, [1.0 - p, p])


class TestRenyiEntropy:
    def test_uniform_is_log_cardinality(self):
        for k in (2, 3, 7):
            u = Dist.uniform(Alphabet.of_size(k))
            for a in ORDERS:
                assert renyi_entropy(u, a) == pytest.approx(math.log(k), abs=1e-12)

    def test_point_mass_is_zero(self):
        d = Dist(Alphabet.of_size(4), [0.0, 1.0, 0.0, 0.0])
        for a in ORDERS:
            assert renyi_entropy(d, a) == pytest.approx(0.0, abs=1e-12)

    def test_bernoulli_quarter_order_two(self):
        # direct evaluation: -log(0.25^2 + 0.75^2) = -log 0.625
        assert renyi_entropy(bern(0.25), 2.0) == pytest.approx(-math.log(0.625), abs=1e-14)

    def test_orders_below_one_accepted(self):
        assert renyi_entropy(bern(0.25), 0.5) > renyi_entropy(bern(0.25), 2.0)


class TestRenyiDivergence:
    def test_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_dist(rng, 4)
            for a in ORDERS:
                assert renyi_divergence(p, p, a) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_vs_uniform_at_infinity(self):
        p = Dist(B, [1.0, 0.0])
        assert renyi_divergence(p, Dist.uniform(B), math.inf) == pytest.approx(math.log(2), abs=1e-15)

    def test_order_two_direct(self):
        # log sum p^2/q = log(2 (0.49 + 0.09)) = log 1.16
        got = renyi_divergence(Dist(B, [0.7, 0.3]), Dist.uniform(B), 2.0)
        assert got == pytest.approx(math.log(1.16), abs=1e-14)

    def test_support_violation_is_infinite(self):
        p, q = Dist(B, [0.5, 0.5]), Dist(B, [1.0, 0.0])
        for a in (1.0, 2.0, math.inf):
            assert renyi_divergence(p, q, a) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            renyi_divergence(bern(0.5), Dist.uniform(Alphabet(("a", "b"))), 2.0)


class TestSibsonMI:
    def test_rank_one_channel_zero(self):
        rank1 = Channel(B, B, [[0.3, 0.7], [0.3, 0.7]])
        for a in ORDERS:
            assert sibson_mi(Dist(B, [0.4, 0.6]), rank1, a) == pytest.approx(0.0, abs=1e-12)

    def test_identity_uniform_at_infinity(self):
        assert sibson_mi(Dist.uniform(B), Channel.identity(B), math.inf) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_prior_on_another_alphabet(self):
        with pytest.raises(ValidationError, match="channel input alphabet does not match prior alphabet"):
            sibson_mi(Dist.uniform(Alphabet(("a", "b"))), binary_channel(0.1, 0.1), 2.0)

    def test_bsc_order_two_closed_form(self):
        got = sibson_mi(Dist.uniform(B), binary_channel(0.1, 0.1), 2.0)
        assert got == pytest.approx(math.log(1.64), abs=1e-14)

    def test_matches_divergence_infimum_binary_output(self):
        # definition route: inf over Q of D_alpha(P_XY || P_X x Q), |Y| = 2,
        # dense grid plus local refinement
        rng = np.random.default_rng(3)
        for _ in range(5):
            prior = random_dist(rng, 3)
            ch = random_channel(rng, 3, 2)
            ch = Channel(prior.alphabet, ch.output_alphabet, ch.rows)
            for a in (1.3, 2.0, 5.0):
                closed = sibson_mi(prior, ch, a)

                def div_at(t):
                    joint_vec = (prior.p[:, None] * ch.rows).ravel()
                    prod = (prior.p[:, None] * np.array([t, 1.0 - t])[None, :]).ravel()
                    big = Alphabet.of_size(6, "c")
                    return renyi_divergence(Dist(big, joint_vec), Dist(big, prod), a)

                ts = np.linspace(1e-6, 1 - 1e-6, 4001)
                vals = [div_at(t) for t in ts]
                t0 = ts[int(np.argmin(vals))]
                local = np.linspace(max(t0 - 5e-4, 1e-9), min(t0 + 5e-4, 1 - 1e-9), 2001)
                grid_min = min(div_at(t) for t in local)
                assert closed == pytest.approx(grid_min, abs=1e-6)
                assert closed <= grid_min + 1e-12

    def test_shannon_at_order_one(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            prior = random_dist(rng, 3)
            ch = random_channel(rng, 3, 4)
            ch = Channel(prior.alphabet, ch.output_alphabet, ch.rows)
            joint = make_joint(prior, ch)
            direct = arimoto_mi(joint, 1.0)
            assert sibson_mi(prior, ch, 1.0) == pytest.approx(direct, abs=1e-10)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(5)
        grid = [1.0, 1.2, 2.0, 5.0, 20.0, math.inf]
        for _ in range(50):
            prior = random_dist(rng, 4)
            ch = random_channel(rng, 4, 3)
            ch = Channel(prior.alphabet, ch.output_alphabet, ch.rows)
            vals = [sibson_mi(prior, ch, a) for a in grid]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-10


class TestArimoto:
    def test_deterministic_row_given_column(self):
        # X a function of Y: one positive row entry per column
        joint = Joint(B, Alphabet.of_size(3, "y"), [[0.3, 0.0, 0.2], [0.0, 0.5, 0.0]])
        for a in ORDERS:
            assert arimoto_cond_entropy(joint, a) == pytest.approx(0.0, abs=1e-12)

    def test_independent_joint_gives_marginal_entropy(self):
        rng = np.random.default_rng(6)
        px, py = random_dist(rng, 3), random_dist(rng, 4)
        joint = make_joint(px, Channel(px.alphabet, py.alphabet, np.tile(py.p, (3, 1))))
        for a in ORDERS:
            assert arimoto_cond_entropy(joint, a) == pytest.approx(renyi_entropy(px, a), abs=1e-12)
            assert arimoto_mi(joint, a) == pytest.approx(0.0, abs=1e-12)

    def test_map_success_at_infinity(self):
        joint = make_joint(Dist(B, [0.4, 0.6]), binary_channel(0.1, 0.1))
        # column maxima: 0.36 + 0.54 = 0.9
        assert arimoto_cond_entropy(joint, math.inf) == pytest.approx(-math.log(0.9), abs=1e-14)
        assert arimoto_mi(joint, math.inf) == pytest.approx(math.log(0.9 / 0.6), abs=1e-14)

    def test_diagonal_uniform(self):
        joint = make_joint(Dist.uniform(B), Channel.identity(B))
        for a in ORDERS:
            assert arimoto_mi(joint, a) == pytest.approx(math.log(2), abs=1e-12)

    def test_column_norms_match_log_alpha_norm(self):
        # (a/(1-a)) log sum_y ||P_XY(., y)||_a column by column, zero entries
        # and an all-zero column included, each alpha-norm summed in mpmath
        m = np.array([[0.2, 0.0, 0.0, 1e-300], [0.5, 0.3, 0.0, 0.4], [0.0, 0.1, 0.0, 0.6]]) / 2.1
        joint = Joint(Alphabet.of_size(3), Alphabet.of_size(4), m)
        with mpmath.workdps(60):
            for a in (0.5, 1.5, 2.0, 10.0, 500.0):
                a_mp = mpmath.mpf(a)
                columns = ([mpmath.mpf(float(v)) for v in col] for col in m.T)
                norms = mpmath.fsum(mpmath.fsum(v**a_mp for v in col) ** (1 / a_mp) for col in columns)
                want = float(a_mp / (1 - a_mp) * mpmath.log(norms))
                assert arimoto_cond_entropy(joint, a) == pytest.approx(want, rel=1e-14, abs=0)

    def test_shannon_agreement_at_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            joint = random_joint(rng, 3, 3)
            m = joint.m
            px, py = m.sum(axis=1), m.sum(axis=0)
            mask = m > 0
            mi = float((m[mask] * np.log(m[mask] / np.outer(px, py)[mask])).sum())
            assert arimoto_mi(joint, 1.0) == pytest.approx(mi, abs=1e-10)


def exact(values) -> list:
    """The float values as exact mpmath numbers, divided by their exact sum."""
    vals = [mpmath.mpf(float(v)) for v in values]
    total = mpmath.fsum(vals)
    return [v / total for v in vals]


def mp_renyi_divergence(p, q, a):
    """D_a(p || q) from its defining sum in 60-digit arithmetic."""
    if mpmath.isinf(a):
        return mpmath.log(max(pi / qi for pi, qi in zip(p, q)))
    if a == 1:
        return mpmath.fsum(pi * mpmath.log(pi / qi) for pi, qi in zip(p, q))
    return mpmath.log(mpmath.fsum(pi**a * qi ** (1 - a) for pi, qi in zip(p, q))) / (a - 1)


def mp_measures(p, q, prior, W, joint, a) -> dict:
    """The four measures from their defining sums in 60-digit arithmetic:
    H_a(P), D_a(P || Q), I^S_a(prior, W) and H^A_a(X|Y) of `joint`, with
    their alpha = 1 and alpha = inf limits."""
    inf, one = mpmath.isinf(a), a == 1
    rows = [[prior[x] * W[x][y] for x in range(len(prior))] for y in range(len(W[0]))]
    cols = [[joint[x][y] for x in range(len(joint))] for y in range(len(joint[0]))]
    if inf:
        h = -mpmath.log(max(p))
        sibson = mpmath.log(mpmath.fsum(max(W[x][y] for x in range(len(prior))) for y in range(len(W[0]))))
        arimoto = -mpmath.log(mpmath.fsum(max(col) for col in cols))
    elif one:
        h = -mpmath.fsum(pi * mpmath.log(pi) for pi in p)
        py = [mpmath.fsum(r) for r in rows]
        sibson = mpmath.fsum(
            prior[x] * W[x][y] * mpmath.log(W[x][y] / py[y])
            for x in range(len(prior)) for y in range(len(py))
        )
        arimoto = -mpmath.fsum(m * mpmath.log(m / mpmath.fsum(col)) for col in cols for m in col)
    else:
        h = mpmath.log(mpmath.fsum(pi**a for pi in p)) / (1 - a)
        sibson = a / (a - 1) * mpmath.log(mpmath.fsum(
            mpmath.fsum(prior[x] * W[x][y] ** a for x in range(len(prior))) ** (1 / a)
            for y in range(len(W[0]))
        ))
        arimoto = a / (1 - a) * mpmath.log(mpmath.fsum(mpmath.fsum(m**a for m in col) ** (1 / a) for col in cols))
    return {
        "renyi_entropy": h,
        "renyi_divergence": mp_renyi_divergence(p, q, a),
        "sibson_mi": sibson,
        "arimoto_cond_entropy": arimoto,
    }


class TestAgainstMpmath:
    """The four measures against their defining sums in 60-digit arithmetic,
    on seeded 16-point inputs normalized exactly: through alpha = 1, where
    each finite-order formula divides an O(alpha - 1) log-sum by alpha - 1,
    and out to alpha = 101 and inf."""

    ORDERS_MINUS_ONE = (-0.5, -1e-4, 1e-4, -1e-8, 1e-8, 0.0, 1e-6, 1e-2, 1.0, 10.0, 100.0, math.inf)

    @pytest.mark.parametrize("seed", [7, 8])
    def test_within_1e14_relative(self, seed):
        rng = np.random.default_rng(seed)
        n = 16
        p, q, prior = (random_dist(rng, n, conc) for conc in (1.0, 1.0, 0.5))
        channel = random_channel(rng, n, n, conc=0.5)
        channel = Channel(prior.alphabet, channel.output_alphabet, channel.rows)
        joint = random_joint(rng, n, n)
        with mpmath.workdps(60):
            exact_w = [exact(row) for row in channel.rows]
            exact_m = exact(joint.m.ravel())
            exact_joint = [exact_m[i * n:(i + 1) * n] for i in range(n)]
            for delta in self.ORDERS_MINUS_ONE:
                a = 1.0 + delta
                want = mp_measures(
                    exact(p.p), exact(q.p), exact(prior.p), exact_w, exact_joint, mpmath.mpf(a)
                )
                got = {
                    "renyi_entropy": renyi_entropy(p, a),
                    "renyi_divergence": renyi_divergence(p, q, a),
                    "sibson_mi": sibson_mi(prior, channel, a),
                    "arimoto_cond_entropy": arimoto_cond_entropy(joint, a),
                }
                for name, value in got.items():
                    ref = float(want[name])
                    assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref)), (name, a, value, ref)

    @pytest.mark.parametrize("a", [1.0 + 9.9e-10, 1.0 + 1e-12])
    def test_entropy_at_orders_just_above_one(self, a):
        p = Dist(Alphabet.of_size(3), [0.1, 0.2, 0.7])
        with mpmath.workdps(60):
            a_mp = mpmath.mpf(a)
            want = float(mpmath.log(mpmath.fsum(pi**a_mp for pi in exact(p.p))) / (1 - a_mp))
        assert abs(renyi_entropy(p, a) - want) <= 1e-15 * want

    def test_hellinger_divergence_just_above_one(self):
        p, q = Dist(Alphabet.of_size(3), [0.1, 0.2, 0.7]), Dist(Alphabet.of_size(3), [0.5, 0.3, 0.2])
        a = 1.0 + 5e-10
        with mpmath.workdps(60):
            a_mp = mpmath.mpf(a)
            want = float(mpmath.expm1((a_mp - 1) * mp_renyi_divergence(exact(p.p), exact(q.p), a_mp)) / (a_mp - 1))
        assert abs(f_divergence(p, q, hellinger_generator(a)) - want) <= 1e-15 * want

    def test_normalization_slack_is_not_amplified(self):
        # the mass sums to 1 + 9e-13, inside the construction tolerance; near
        # alpha = 1 a formula dividing by alpha - 1 would turn that into an
        # error of ~4.5e-4 nats
        p = np.random.default_rng(7).dirichlet(np.ones(16))
        p[0] += 9e-13
        dist, uniform = Dist(Alphabet.of_size(16), p), Dist.uniform(Alphabet.of_size(16))
        a = 1.0 + 2e-9
        with mpmath.workdps(60):
            want = mp_renyi_divergence(exact(p), exact(uniform.p), mpmath.mpf(a))
        assert abs(renyi_divergence(dist, uniform, a) - float(want)) <= 1e-12


class TestFGenerator:
    def test_kl_matches_renyi_at_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, q = random_dist(rng, 4), random_dist(rng, 4)
            assert f_divergence(p, q, kl_generator()) == pytest.approx(
                renyi_divergence(p, q, 1.0), abs=1e-12
            )

    def test_identical_arguments_vanish(self):
        gens = [kl_generator(), hellinger_generator(2.0), hellinger_generator(3.5)]
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_dist(rng, 5)
            for gen in gens:
                assert f_divergence(p, p, gen) == pytest.approx(0.0, abs=1e-12)

    def test_hellinger_two_direct(self):
        # sum p^2/q - 1 = 1.16 - 1
        got = f_divergence(Dist(B, [0.7, 0.3]), Dist.uniform(B), hellinger_generator(2.0))
        assert got == pytest.approx(0.16, abs=1e-14)

    def test_support_violation(self):
        p, q = Dist(B, [0.5, 0.5]), Dist(B, [1.0, 0.0])
        assert f_divergence(p, q, kl_generator()) == math.inf
        assert f_divergence(p, q, hellinger_generator(2.0)) == math.inf

    def test_hellinger_requires_order_above_one(self):
        with pytest.raises(ValidationError):
            hellinger_generator(1.0)

    def test_custom_requires_f_of_one_zero(self):
        with pytest.raises(ValidationError):
            custom_generator(lambda t: t * t, f_at_zero=0.0, slope_at_inf=math.inf)

    def test_custom_rejects_concave(self):
        with pytest.raises(ValidationError):
            custom_generator(lambda t: -((t - 1.0) ** 2), f_at_zero=-1.0, slope_at_inf=-math.inf)

    def test_custom_total_variation(self):
        tv = custom_generator(lambda t: 0.5 * abs(t - 1.0), f_at_zero=0.5, slope_at_inf=0.5)
        rng = np.random.default_rng(10)
        for _ in range(20):
            p, q = random_dist(rng, 4), random_dist(rng, 4)
            assert f_divergence(p, q, tv) == pytest.approx(0.5 * np.abs(p.p - q.p).sum(), abs=1e-12)

    def test_second_derivative(self):
        # closed forms against a central difference of the analytic f',
        # and the custom generator's second difference against the closed form
        t = np.array([1.0, 1.7, 4.0, 30.0])
        h = 1e-5 * t
        for gen in (kl_generator(), hellinger_generator(1.5), hellinger_generator(3.0)):
            numeric = (gen.fprime(t + h) - gen.fprime(t - h)) / (2.0 * h)
            assert np.allclose(gen.fsecond(t), numeric, rtol=1e-7, atol=0.0)
        custom = custom_generator(lambda s: (s**2.5 - 1.0) / 1.5, -1.0 / 1.5, math.inf)
        assert np.allclose(custom.fsecond(t), hellinger_generator(2.5).fsecond(t), rtol=1e-6, atol=0.0)

    def test_custom_first_derivative(self):
        # the central difference of a custom t log t against log t + 1;
        # a step of 1e-7 t leaves rounding errors of ~2e-9 here
        custom = custom_generator(lambda s: s * math.log(s) if s > 0 else 0.0, 0.0, math.inf)
        t = np.exp(np.linspace(-8.0, 8.0, 2001))
        exact = np.log(t) + 1.0
        err = np.abs(custom.fprime(t) - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() <= 1e-10

    def test_one_phi_for_closed_form_and_custom_generators(self):
        # a custom generator given the exact f, f' and f'' of Hellinger(2)
        # values a ball mass as the closed form does
        exact = FGenerator(
            "custom", None, -1.0, math.inf, "exact-hellinger(2)",
            f=lambda t: t * t - 1.0, fprime=lambda t: 2.0 * t, fsecond=lambda t: np.full(np.shape(t), 2.0),
        )
        m = np.linspace(1e-3, 1.0, 1000)
        for got, want in zip(exact.phi(m), hellinger_generator(2.0).phi(m)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_constructor_fields(self):
        fn = lambda t: 0.5 * abs(t - 1.0)
        fields = lambda g: (g.kind, g.alpha, g.label, g.f_at_zero, g.slope_at_inf)
        assert fields(kl_generator()) == ("kl", None, "kl", 0.0, math.inf)
        assert fields(hellinger_generator(2.5)) == ("hellinger", 2.5, "hellinger(2.5)", -1.0 / 1.5, math.inf)
        # the shortest decimal that reads back as alpha: no two orders share a label
        labels = [hellinger_generator(a).label for a in (1.5, 2.0, 3, 1.0 + 5e-10, 1.0 + 1e-12)]
        assert labels == ["hellinger(1.5)", "hellinger(2)", "hellinger(3)", "hellinger(1.0000000005)",
                          "hellinger(1.000000000001)"]
        assert fields(custom_generator(fn, 0.5, 0.5, label="tv")) == ("custom", None, "tv", 0.5, 0.5)

    def test_scalar_gives_float_array_gives_array(self):
        t = np.array([0.5, 1.0, 3.0])
        custom = custom_generator(lambda s: (s**2.5 - 1.0) / 1.5, -1.0 / 1.5, math.inf)
        for gen in (kl_generator(), hellinger_generator(2.5), custom):
            for fn in (gen.f, gen.fprime, gen.fsecond):
                assert type(fn(2.0)) is float
                out = fn(t)
                assert isinstance(out, np.ndarray) and out.shape == t.shape
                assert out[2] == pytest.approx(fn(3.0), rel=1e-15)
            assert gen.f(0.0) == gen.f_at_zero

    def test_equality(self):
        # the evaluators do not take part: kl == kl, Hellinger by alpha,
        # custom by the same fn object and constants
        assert kl_generator() == kl_generator()
        assert hellinger_generator(2.0) == hellinger_generator(2.0)
        assert hash(hellinger_generator(2.0)) == hash(hellinger_generator(2.0))
        assert hellinger_generator(2.0) != hellinger_generator(3.0)
        fn = lambda t: t * math.log(t) if t > 0 else 0.0
        assert custom_generator(fn, 0.0, math.inf) == custom_generator(fn, 0.0, math.inf)
        assert custom_generator(fn, 0.0, math.inf) != custom_generator(lambda t: fn(t), 0.0, math.inf)
        assert custom_generator(fn, 0.0, math.inf, label="kl") != kl_generator()

    def test_hellinger_with_tiny_reference_mass(self):
        # q f(p/q) overflows at q = 1e-200: (p/q)^2 = 2.5e399
        p, q = Dist(B, [0.5, 0.5]), Dist(B, [1e-200, 1.0 - 1e-200])
        assert f_divergence(p, q, hellinger_generator(2.0)) == pytest.approx(2.5e199, rel=1e-12)

    def test_hellinger_renyi_bridge(self):
        # D_alpha = log(1 + (alpha-1) H_alpha) / (alpha-1), two code paths
        rng = np.random.default_rng(11)
        for _ in range(40):
            p, q = random_dist(rng, 5), random_dist(rng, 5)
            for a in (1.5, 2.0, 3.0, 8.0):
                h = f_divergence(p, q, hellinger_generator(a))
                d = renyi_divergence(p, q, a)
                assert d == pytest.approx(math.log1p((a - 1.0) * h) / (a - 1.0), abs=1e-10)


class TestKAlpha:
    """The certificate divergence k_alpha(p || q) = sum_y q (p/q)^alpha is
    exp((alpha - 1) D_alpha(p || q)), here through `renyi_divergence`."""

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            p = random_dist(rng, 3)
            q = random_dist(rng, 3)
            a = float(rng.uniform(1.01, 8.0))
            val = math.exp((a - 1.0) * renyi_divergence(p, q, a))
            assert val >= 1.0 - 1e-12
            if np.allclose(p.p, q.p, atol=1e-12):
                assert val == pytest.approx(1.0, abs=1e-12)
            assert math.exp((a - 1.0) * renyi_divergence(p, p, a)) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_doubling(self):
        got = renyi_divergence(Dist(B, [1.0, 0.0]), Dist.uniform(B), 2.0)
        assert math.exp(got) == pytest.approx(2.0, abs=1e-14)

    def test_mild_tilt(self):
        # sum p^2/q = (0.36 + 0.16) / 0.5
        got = renyi_divergence(Dist(B, [0.6, 0.4]), Dist.uniform(B), 2.0)
        assert math.exp(got) == pytest.approx(1.04, abs=1e-14)

    def test_support_violation(self):
        assert renyi_divergence(Dist(B, [0.5, 0.5]), Dist(B, [1.0, 0.0]), 2.0) == math.inf


def sibson_centre(comps: list[Dist], a: float) -> tuple[Dist, float]:
    """The Hellinger f-leakage of the family as equally likely channel rows
    and its minimizer, the Sibson centre, normalized column alpha-norms."""
    inputs = Alphabet.of_size(len(comps), "k")
    channel = Channel(inputs, comps[0].alphabet, [c.p for c in comps])
    value, centre = f_leakage(make_joint(Dist.uniform(inputs), channel), hellinger_generator(a))
    return centre, value


class TestAlphaNormCenter:
    """The Sibson centre P_c(y) = (sum_k P_k(y)^alpha)^(1/alpha) / Z of a
    family minimizes sum_k k_alpha(P_k || .), attaining Z^alpha."""

    def test_single_component_fixed_point(self):
        d = Dist(B, [0.3, 0.7])
        center, value = sibson_centre([d], 2.0)
        assert same_law(center, d, atol=1e-14)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_two_identical_components(self):
        d = Dist(B, [0.3, 0.7])
        for a in (1.5, 2.0, 5.0):
            center, value = sibson_centre([d, d], a)
            assert same_law(center, d, atol=1e-12)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_bsc_rows_center_uniform(self):
        rows = binary_channel(0.1, 0.1).rows
        center, _ = sibson_centre([Dist(B, rows[0]), Dist(B, rows[1])], 2.0)
        assert same_law(center, Dist.uniform(B), atol=1e-12)

    def test_sum_identity_and_minimality(self):
        rng = np.random.default_rng(13)

        def k_sum(comps, q, a):
            return sum(math.exp((a - 1.0) * renyi_divergence(c, q, a)) for c in comps)

        for _ in range(30):
            comps = [random_dist(rng, 4) for _ in range(rng.integers(2, 5))]
            a = float(rng.uniform(1.1, 6.0))
            center, value = sibson_centre(comps, a)
            z = ((np.stack([c.p for c in comps]) ** a).sum(axis=0) ** (1.0 / a)).sum()
            attained = k_sum(comps, center, a)
            assert attained == pytest.approx(z**a, abs=1e-9 * max(1.0, z**a))
            # the leakage is the mean Hellinger divergence (k_alpha - 1)/(alpha - 1)
            assert attained == pytest.approx(len(comps) * (1.0 + (a - 1.0) * value), rel=1e-12)
            for _ in range(100):
                other = random_dist(rng, 4)
                assert k_sum(comps, other, a) >= attained - 1e-9
