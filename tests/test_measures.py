import math

import numpy as np
import pytest

from alphaleak import (
    Alphabet,
    Channel,
    Dist,
    Joint,
    ValidationError,
    alpha_norm_center,
    arimoto_cond_entropy,
    arimoto_mi,
    binary_channel,
    custom_generator,
    f_divergence,
    hellinger_generator,
    k_alpha,
    kl_generator,
    make_joint,
    renyi_divergence,
    renyi_entropy,
    sibson_mi,
)
from alphaleak.measures import LogBase
from util import random_channel, random_dist, random_joint

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

    def test_shannon_agreement_at_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            joint = random_joint(rng, 3, 3)
            m = joint.m
            px, py = m.sum(axis=1), m.sum(axis=0)
            mask = m > 0
            mi = float((m[mask] * np.log(m[mask] / np.outer(px, py)[mask])).sum())
            assert arimoto_mi(joint, 1.0) == pytest.approx(mi, abs=1e-10)


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

    def test_constructor_fields(self):
        fn = lambda t: 0.5 * abs(t - 1.0)
        fields = lambda g: (g.kind, g.alpha, g.label, g.f_at_zero, g.slope_at_inf)
        assert fields(kl_generator()) == ("kl", None, "kl", 0.0, math.inf)
        assert fields(hellinger_generator(2.5)) == ("hellinger", 2.5, "hellinger(2.5)", -1.0 / 1.5, math.inf)
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
    def test_unity_iff_equal(self):
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            p = random_dist(rng, 3)
            q = random_dist(rng, 3)
            a = float(rng.uniform(1.01, 8.0))
            val = k_alpha(p, q, a)
            assert val >= 1.0 - 1e-12
            if np.allclose(p.p, q.p, atol=1e-12):
                assert val == pytest.approx(1.0, abs=1e-12)
            assert k_alpha(p, p, a) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_doubling(self):
        assert k_alpha(Dist(B, [1.0, 0.0]), Dist.uniform(B), 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_mild_tilt(self):
        # sum p^2/q = (0.36 + 0.16) / 0.5
        got = k_alpha(Dist(B, [0.6, 0.4]), Dist.uniform(B), 2.0)
        assert got == pytest.approx(1.04, abs=1e-14)

    def test_support_violation(self):
        assert k_alpha(Dist(B, [0.5, 0.5]), Dist(B, [1.0, 0.0]), 2.0) == math.inf

    def test_rejects_order_at_most_one(self):
        with pytest.raises(ValidationError):
            k_alpha(bern(0.5), bern(0.5), 1.0)


class TestAlphaNormCenter:
    def test_single_component_fixed_point(self):
        d = Dist(B, [0.3, 0.7])
        center, z = alpha_norm_center([d], 2.0)
        assert center.allclose(d, atol=1e-14)
        assert z == pytest.approx(1.0, abs=1e-14)

    def test_two_identical_components(self):
        d = Dist(B, [0.3, 0.7])
        for a in (1.5, 2.0, 5.0):
            center, z = alpha_norm_center([d, d], a)
            assert center.allclose(d, atol=1e-12)
            assert z == pytest.approx(2.0 ** (1.0 / a), abs=1e-12)

    def test_bsc_rows_center_uniform(self):
        rows = binary_channel(0.1, 0.1).rows
        center, _ = alpha_norm_center([Dist(B, rows[0]), Dist(B, rows[1])], 2.0)
        assert center.allclose(Dist.uniform(B), atol=1e-12)

    def test_sum_identity_and_minimality(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            comps = [random_dist(rng, 4) for _ in range(rng.integers(2, 5))]
            a = float(rng.uniform(1.1, 6.0))
            center, z = alpha_norm_center(comps, a)
            attained = sum(k_alpha(c, center, a) for c in comps)
            assert attained == pytest.approx(z**a, abs=1e-9 * max(1.0, z**a))
            for _ in range(100):
                other = random_dist(rng, 4)
                assert sum(k_alpha(c, other, a) for c in comps) >= attained - 1e-9

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            alpha_norm_center([], 2.0)


class TestLogBase:
    def test_parse_and_convert(self):
        assert LogBase.parse("bits").from_nats(math.log(2)) == pytest.approx(1.0, abs=1e-15)
        assert LogBase.parse("nats").from_nats(1.75) == 1.75
        with pytest.raises(ValidationError):
            LogBase.parse("trits")
