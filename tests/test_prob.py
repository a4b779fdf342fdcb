import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphaleak import (
    Alphabet,
    Channel,
    Dist,
    DistortionSpec,
    Joint,
    ValidationError,
    avg_hamming_binary_put,
    binary_channel,
    binary_maximal_alpha_leakage,
    cascade,
    conditional_of,
    hellinger_generator,
    make_joint,
    product_channel,
)
from alphaleak.prob import _nonnegative_array, _order, _tilted_log_mean, logsumexp, xlogy
from util import random_channel, random_dist

B = Alphabet(("0", "1"))


class TestAlphabet:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValidationError):
            Alphabet(())
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))

    def test_rejects_a_string(self):
        # a string is an iterable of characters, never a list of labels
        with pytest.raises(ValidationError, match="not the string 'ab'"):
            Alphabet("ab")

    @pytest.mark.parametrize("labels, kind", [({"a": 1}, "dict"), (5, "int"), (None, "NoneType")])
    def test_rejects_a_mapping_and_a_non_iterable(self, labels, kind):
        # a mapping would give its keys as labels
        with pytest.raises(ValidationError, match=f"list of labels, not {kind}"):
            Alphabet(labels)

    def test_takes_any_other_iterable(self):
        for labels in (["a", "b"], ("a", "b"), (c for c in "ab"), np.array(["a", "b"])):
            assert Alphabet(labels).labels == ("a", "b")


class TestAlphaOrder:
    """`_order` reads an order as a float, inf included, and checks its range."""

    def test_is_the_float_given_near_one(self):
        # no order near 1 reads as 1: every measure is continuous there
        assert _order(1.0 + 5e-10) == 1.0 + 5e-10
        assert _order(1.0 + 1e-12, "test") == 1.0 + 1e-12
        assert _order(1.0 + 5e-9) == 1.0 + 5e-9
        assert _order("2") == 2.0 and _order("inf") == math.inf

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, float("nan"), "-2"):
            with pytest.raises(ValidationError, match="alpha must be positive"):
                _order(bad)
        with pytest.raises(ValidationError, match="alpha 'two' is not a number"):
            _order("two")

    def test_infinity(self):
        assert _order(math.inf) == math.inf
        assert _order(math.inf, "test") == math.inf

    def test_leakage_gate(self):
        assert _order(1.0, "test") == 1.0
        with pytest.raises(ValidationError, match=re.escape("test requires alpha >= 1, got 0.9999999995")):
            _order(1.0 - 5e-10, "test")
        with pytest.raises(ValidationError, match="test requires alpha >= 1, got 0.5"):
            _order(0.5, "test")

    def test_finite_above_one(self):
        assert _order(2.5, "test", finite=True) == 2.5
        for bad in (0.5, 1.0, math.inf):
            with pytest.raises(ValidationError, match="test requires finite alpha > 1"):
                _order(bad, "test", finite=True)


FINITE_ORDER_ONLY = {
    "binary_maximal_alpha_leakage": lambda a: binary_maximal_alpha_leakage(0.1, 0.2, a),
    "hellinger_generator": hellinger_generator,
    "avg_hamming_binary_put": lambda a: avg_hamming_binary_put(0.3, 0.1, a),
}


@pytest.mark.parametrize("alpha", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("call", FINITE_ORDER_ONLY.values(), ids=FINITE_ORDER_ONLY.keys())
def test_finite_order_functions_reject_inf_and_nan(call, alpha):
    with pytest.raises(ValidationError):
        call(alpha)


class TestConstructors:
    def test_dist_validation(self):
        Dist(B, [0.5, 0.5])
        Dist(B, [0.5 + 4e-13, 0.5])  # inside tolerance
        with pytest.raises(ValidationError):
            Dist(B, [0.6, 0.5])
        with pytest.raises(ValidationError):
            Dist(B, [-0.1, 1.1])

    @given(st.floats(min_value=1e-11, max_value=0.5))
    @settings(max_examples=50, derandomize=True)
    def test_dist_rejects_mass_deficit(self, eps):
        with pytest.raises(ValidationError):
            Dist(B, [0.5 - eps, 0.5])

    def test_channel_validation(self):
        with pytest.raises(ValidationError):
            Channel(B, B, [[0.5, 0.6], [0.5, 0.5]])
        with pytest.raises(ValidationError):
            Channel(B, B, [[1.0], [1.0]])

    def test_joint_validation(self):
        with pytest.raises(ValidationError):
            Joint(B, B, [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([[0.25, 0.75], [0.5, 0.5]]),
            lambda: np.eye(2, dtype=int),
            lambda: np.asfortranarray([[0.25, 0.75], [0.5, 0.5]]),
            lambda: [[0.25, 0.75], [0.5, 0.5]],
        ],
        ids=["float64", "int", "fortran", "list"],
    )
    def test_validated_arrays_are_read_only_copies(self, make):
        values = make()
        arr = _nonnegative_array(values, "rows", B, B)
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.owndata
        assert not arr.flags.writeable and not np.shares_memory(arr, values)
        ch = Channel(B, B, values)
        before = ch.rows.tolist()
        assert before == np.asarray(values, dtype=float).tolist()
        values[0][0] = 7
        assert ch.rows.tolist() == before

    EVERY_ARRAY = pytest.mark.parametrize(
        "build, name, shape",
        [
            (lambda v: Dist(B, v), "mass", (2,)),
            (lambda v: Channel(B, B, v), "rows", (2, 2)),
            (lambda v: Joint(B, B, v), "mass", (2, 2)),
            (lambda v: DistortionSpec(B, B, v, 1.0), "distortion", (2, 2)),
        ],
        ids=["Dist", "Channel", "Joint", "DistortionSpec"],
    )

    @EVERY_ARRAY
    def test_arrays_that_do_not_fit_raise_validation_error(self, build, name, shape):
        # a wrong length or ndim names both shapes; what numpy cannot turn
        # into a float array is not a raw ValueError or TypeError
        for bad in (np.full((3,) + shape[1:], 0.5), np.full(shape + (1,), 0.5)):
            message = f"{name} shape {bad.shape} incompatible with alphabets {shape}"
            with pytest.raises(ValidationError, match=re.escape(message)):
                build(bad)
        for bad in ("ab", [[1.0], [0.0, 1.0]], {"a": 1.0}):
            with pytest.raises(ValidationError, match=f"^{name} is not an array of numbers$"):
                build(bad)

    @EVERY_ARRAY
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_entries_raise_validation_error(self, build, name, shape, entry):
        bad = np.full(shape, 0.5)
        bad.flat[-1] = entry
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries$"):
            build(bad)

    def test_dist_keeps_its_own_copy(self):
        p = np.array([0.25, 0.75])
        d = Dist(B, p)
        p[0] = 0.5
        assert d.p.tolist() == [0.25, 0.75] and not d.p.flags.writeable


class TestComposition:
    def test_make_joint_identity(self):
        j = make_joint(Dist.uniform(B), Channel.identity(B))
        assert np.allclose(j.m, np.diag([0.5, 0.5]), atol=0, rtol=0)

    def test_make_joint_degenerate_prior(self):
        j = make_joint(Dist(B, [1.0, 0.0]), binary_channel(0.3, 0.2))
        assert j.m[1].sum() == 0.0

    def test_make_joint_bsc(self):
        # elementwise product by hand: (0.4, 0.6) through BSC(0.1)
        j = make_joint(Dist(B, [0.4, 0.6]), binary_channel(0.1, 0.1))
        assert np.allclose(j.m, [[0.36, 0.04], [0.06, 0.54]], atol=1e-15)

    def test_make_joint_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            make_joint(Dist.uniform(Alphabet(("a", "b"))), binary_channel(0.1, 0.1))

    def test_conditional_of_recovers_factors(self):
        prior = Dist(B, [0.4, 0.6])
        ch = binary_channel(0.1, 0.1)
        marg, cond, flagged = conditional_of(make_joint(prior, ch))
        assert flagged == ()
        assert np.allclose(marg.p, prior.p, atol=1e-12)
        assert np.allclose(cond.rows, ch.rows, atol=1e-12)

    def test_conditional_of_flags_zero_rows(self):
        j = Joint(B, B, [[0.5, 0.5], [0.0, 0.0]])
        marg, cond, flagged = conditional_of(j)
        assert flagged == ("1",)
        assert np.allclose(cond.rows[1], [0.5, 0.5])

    def test_roundtrip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = rng.integers(2, 6), rng.integers(2, 6)
            prior = random_dist(rng, n)
            ch = random_channel(rng, n, m)
            ch = Channel(prior.alphabet, ch.output_alphabet, ch.rows)
            marg, cond, _ = conditional_of(make_joint(prior, ch))
            assert np.allclose(marg.p, prior.p, atol=1e-12)
            assert np.allclose(cond.rows, ch.rows, atol=1e-12)

    def test_cascade_identity(self):
        ch = binary_channel(0.2, 0.4)
        out = cascade(ch, Channel.identity(B))
        assert np.allclose(out.rows, ch.rows, atol=0)

    def test_cascade_bsc_composition(self):
        a, b = 0.1, 0.25
        out = cascade(binary_channel(a, a), binary_channel(b, b))
        expected = a + b - 2 * a * b
        assert np.allclose(out.rows, binary_channel(expected, expected).rows, atol=1e-15)

    def test_cascade_into_rank_one(self):
        rank1 = Channel(B, B, [[0.3, 0.7], [0.3, 0.7]])
        out = cascade(binary_channel(0.1, 0.2), rank1)
        assert np.allclose(out.rows[0], out.rows[1], atol=1e-15)

    def test_cascade_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sizes = rng.integers(2, 5, size=4)
            chs = []
            alphas = [Alphabet.of_size(s, f"a{i}_") for i, s in enumerate(sizes)]
            for i in range(3):
                rows = rng.dirichlet(np.ones(sizes[i + 1]), size=sizes[i])
                chs.append(Channel(alphas[i], alphas[i + 1], rows))
            left = cascade(cascade(chs[0], chs[1]), chs[2])
            right = cascade(chs[0], cascade(chs[1], chs[2]))
            assert np.allclose(left.rows, right.rows, atol=1e-12)

    def test_cascade_mismatch(self):
        with pytest.raises(ValidationError):
            cascade(binary_channel(0.1, 0.1), Channel.identity(Alphabet(("a", "b"))))


class TestProductChannel:
    def test_single_component(self):
        ch = binary_channel(0.1, 0.2)
        assert np.array_equal(product_channel([ch]).rows, ch.rows)

    def test_identity_product(self):
        out = product_channel([Channel.identity(B), Channel.identity(B)])
        assert np.array_equal(out.rows, np.eye(4))
        assert out.input_alphabet.labels == ("00", "01", "10", "11")

    def test_kronecker_entry(self):
        out = product_channel([binary_channel(0.1, 0.1), binary_channel(0.2, 0.2)])
        # P(out = 11 | in = 00) = 0.1 * 0.2
        i = out.input_alphabet.labels.index("00")
        j = out.output_alphabet.labels.index("11")
        assert out.rows[i, j] == pytest.approx(0.02, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            product_channel([])


def log_alpha_norm(values, a) -> float:
    """log of the alpha-norm (sum v^a)^(1/a) of a nonnegative vector as
    (1 - 1/a) T(v, log v, a - 1) + (1/a) log sum v (`_tilted_log_mean`),
    zero entries left out; -inf for an all-zero vector."""
    v = np.asarray(values, dtype=float)
    pos = v[v > 0]
    if pos.size == 0:
        return -math.inf
    return float((1.0 - 1.0 / a) * _tilted_log_mean(pos, np.log(pos), a - 1.0) + np.log(pos.sum()) / a)


class TestLogAlphaNorm:
    """`_tilted_log_mean` through the log alpha-norm it forms, in the log
    domain, at every order up to inf."""

    def test_symmetric_pair(self):
        assert log_alpha_norm([1.0, 1.0], 2.0) == pytest.approx(math.log(math.sqrt(2)), abs=1e-15)

    def test_infinity_is_log_max(self):
        assert log_alpha_norm([0.5, 0.5], math.inf) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_direct_evaluation(self):
        # (1/3) log(0.9^3 + 0.1^3), evaluated in the linear domain as oracle
        expected = math.log(0.9**3 + 0.1**3) / 3.0
        assert log_alpha_norm([0.9, 0.1], 3.0) == pytest.approx(expected, abs=1e-14)

    def test_all_zero_vector(self):
        assert log_alpha_norm([0.0, 0.0], 2.0) == -math.inf

    def test_survives_huge_alpha(self):
        val = log_alpha_norm([0.3, 0.7], 1000.0)
        assert val == pytest.approx(math.log(0.7), abs=1e-3)
        assert math.isfinite(val)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
        st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=200, derandomize=True)
    def test_matches_linear_domain(self, values, alpha):
        arr = np.asarray(values)
        direct = float(np.sum(arr**alpha))
        if not np.any(arr > 0):
            assert log_alpha_norm(arr, alpha) == -math.inf
        elif direct > 1e-280:
            # outside this range the linear-domain oracle itself underflows,
            # which is the very failure mode the log-domain path avoids
            assert log_alpha_norm(arr, alpha) == pytest.approx(math.log(direct) / alpha, abs=1e-10)
        else:
            assert math.isfinite(log_alpha_norm(arr, alpha))

    def test_monotone_in_alpha_on_simplex(self):
        # p-norm monotonicity: ||p||_a non-increasing in a, so its log too
        rng = np.random.default_rng(5)
        orders = [1.0, 1.5, 2.0, 4.0, 10.0, math.inf]
        for _ in range(1000):
            p = rng.dirichlet(np.ones(rng.integers(2, 8)))
            norms = [log_alpha_norm(p, a) for a in orders]
            for lo, hi in zip(norms, norms[1:]):
                assert hi <= lo + 1e-12


class TestLogsumexp:
    """Against `scipy.special.logsumexp`, which the helper replaces."""

    @pytest.mark.parametrize(
        "values",
        [
            [0.3, -1.2, 2.5, 0.0, -40.0],
            [-math.inf, 0.5, -math.inf, -2.0],
            [-math.inf, -math.inf],
            [1.0, math.inf, -3.0],
            [800.0, 799.0],  # exp would overflow without the shift
        ],
    )
    def test_vectors(self, values):
        from scipy.special import logsumexp as reference

        got = logsumexp(values)
        want = reference(values)
        assert got == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_axis_with_an_all_minus_inf_column(self):
        from scipy.special import logsumexp as reference

        a = np.array([[0.0, -math.inf, 1.5], [-2.0, -math.inf, 3.0], [0.7, -math.inf, -1.0]])
        for axis in (0, 1):
            got = logsumexp(a, axis=axis)
            assert got.shape == reference(a, axis=axis).shape == (3,)
            np.testing.assert_allclose(got, reference(a, axis=axis), rtol=1e-15, atol=0)
        assert logsumexp(a, axis=0)[1] == -math.inf

    def test_scalar_output(self):
        from scipy.special import logsumexp as reference

        got = logsumexp(np.array([0.1, 0.2, 0.3]))
        assert np.ndim(got) == 0 and isinstance(got, float)
        assert type(got) is type(reference(np.array([0.1, 0.2, 0.3])))


class TestXlogy:
    """Against `scipy.special.xlogy`, which the helper replaces."""

    def test_zero_times_log_zero_is_zero(self):
        assert xlogy(0.0, 0.0) == 0.0
        assert xlogy(np.asarray(0.0), np.asarray(0.0)) == 0.0

    def test_positive_times_log_zero_is_minus_inf(self):
        with np.errstate(divide="ignore"):
            assert xlogy(0.5, 0.0) == -math.inf
            assert xlogy(np.array([0.0, 2.0]), np.array([0.0, 0.0])).tolist() == [0.0, -math.inf]

    def test_scalars_and_arrays(self):
        from scipy.special import xlogy as reference

        for x, y in [(0.3, 0.3), (2.0, 5.0), (1e-300, 1e-300), (0.0, 7.0)]:
            assert xlogy(x, y) == pytest.approx(reference(x, y), rel=1e-15, abs=0)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 3.0, size=(4, 5))
        x[0, :2] = 0.0
        y = rng.uniform(0.0, 3.0, size=(4, 5))
        y[1, 1] = 0.0
        x[1, 1] = 0.0
        np.testing.assert_allclose(xlogy(x, y), reference(x, y), rtol=1e-15, atol=0)
        np.testing.assert_allclose(xlogy(x, x), reference(x, x), rtol=1e-15, atol=0)
