import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import weightlab.coeffs as coeffs
from weightlab import (
    ExplicitFamily,
    IdentityInapplicableError,
    WeightEvaluator,
    ZeroSequence,
    coeff_table,
    inf_sup_identity,
    log_convexity_check,
    parse_sequence_spec,
    sandwich_check,
    sup_poly,
)
from weightlab.sampling import log_grid, zoom_max


def exact_squared_coeffs(zeros, n, K):
    """Fraction oracle: u^k coefficients of prod (1 + u/t^2)^n."""
    poly = [Fraction(1)]
    for t in zeros:
        c = Fraction(1) / (Fraction(t) ** 2)
        for _ in range(n):
            new = poly + [Fraction(0)]
            for p in range(len(poly), 0, -1):
                if p <= K:
                    new[p] += poly[p - 1] * c
            poly = new[: K + 1]
    poly += [Fraction(0)] * (K + 1 - len(poly))
    return poly


def mp_log_a(seq, J, n, K):
    """ln a_k from a 200-bit mpmath product over the first J zeros."""
    with mp.workprec(200):
        e = [mpf(1)] + [mpf(0)] * K
        for j in range(1, J + 1):
            c = 1 / mpf(seq.term(j)) ** 2
            for p in range(min(j, K), 0, -1):
                e[p] += e[p - 1] * c
        full = e
        for _ in range(n - 1):
            full = [sum(full[i] * e[p - i] for i in range(p + 1)) for p in range(K + 1)]
        return [mp.log(v) / 2 if v > 0 else mpf("-inf") for v in full]


def assert_within_claim(tab, oracle):
    """Each a_k the oracle covers is within the table's own trunc_error_rel."""
    for k, (got, want) in enumerate(zip(tab.log_a, oracle)):
        if want == mpf("-inf"):
            assert got == -math.inf, k
        else:
            assert abs(math.expm1(float(mpf(got) - want))) <= tab.trunc_error_rel, (k, got, want)


def assert_float_accurate(log_a, oracle):
    """Where long double is wider than float64, each ln a_k the oracle
    covers is within 1 ulp."""
    if np.finfo(coeffs.FLOAT).eps >= np.finfo(float).eps:
        return
    for k, (got, want) in enumerate(zip(log_a, oracle)):
        assert abs(got - float(want)) <= np.spacing(abs(float(want))), (k, got, want)


POWLOG = parse_sequence_spec("powlog:a=1,b=2")


@functools.lru_cache(maxsize=None)
def powlog_oracle(J):
    """200-bit ln a_k, k <= 40, of the n = 2 powlog table over J factors."""
    return mp_log_a(POWLOG, J, 2, 40)


def powlog_table(K):
    """A powlog table (n = 2) and its oracle over the same factors; the
    oracle covers k <= 40."""
    tab = coeff_table(POWLOG, 2, K, tol=1e-6)
    return tab, powlog_oracle(tab.factors_used)


class TestCoeffTable:
    def test_single_zero(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0]), j_cut=5), 1, 3)
        assert list(tab.log_a) == [0.0, 0.0, -math.inf, -math.inf]
        # an explicit list has no truncation: only the rounding bound is left
        assert 0.0 < tab.trunc_error_rel < 1e-15

    def test_two_zeros_closed_form(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0, 2.0]), j_cut=5), 1, 2)
        vals = [math.exp(v) for v in tab.log_a]
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(math.sqrt(1.25), abs=1e-15)
        assert vals[2] == pytest.approx(0.5, abs=1e-15)
        # log-convexity at k=1: a_1^2 = 1.25 >= a_0 a_2 = 0.5
        assert vals[1] ** 2 >= vals[0] * vals[2]

    def test_multiplicity_power_identity(self):
        ta = coeff_table(ZeroSequence(ExplicitFamily([1.0, 1.0]), j_cut=5), 1, 2)
        tb = coeff_table(ZeroSequence(ExplicitFamily([1.0]), j_cut=5), 2, 2)
        assert list(ta.log_a) == list(tb.log_a)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=6), min_size=1, max_size=5
        ).map(sorted),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_against_fraction_oracle(self, zeros, n):
        K = 6
        seq = ZeroSequence(ExplicitFamily([float(z) for z in zeros]), j_cut=10)
        tab = coeff_table(seq, n, K)
        with mp.workprec(200):
            oracle = [
                mp.log(mpf(c.numerator) / c.denominator) / 2 if c else mpf("-inf")
                for c in exact_squared_coeffs(zeros, n, K)
            ]
            assert_within_claim(tab, oracle)

    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_log_convexity_families(self, spec, n):
        tab = coeff_table(parse_sequence_spec(spec), n, 40)
        assert log_convexity_check(tab).passed

    @pytest.mark.parametrize("spec, n, K", [("explicit:[1,2,3]", 2, 9), ("explicit:[1]", 1, 3),
                                            ("geometric:r=2", 3, 40), ("powlog:a=1,b=2", 1, 1)])
    def test_convexity_margins_match_the_loop(self, spec, n, K):
        # the array expression against the loop over k it replaced: the
        # same values bit for bit, and nan wherever a coefficient is 0
        tab = coeff_table(parse_sequence_spec(spec), n, K)
        la = tab.log_a
        want = [2.0 * la[k] - la[k - 1] - la[k + 1] if min(la[k - 1 : k + 2]) > -math.inf else math.nan
                for k in range(1, K)]
        np.testing.assert_array_equal(coeffs.log_convexity_margins(tab), np.array(want, dtype=float))

    def test_geometric_has_every_coefficient(self):
        # a_k^2 of the infinite product is Euler's q^{k(k+1)/2} / (q;q)_k with
        # q = 1/4; a truncated table may sit below it, never above
        tab = coeff_table(parse_sequence_spec("geometric:r=2"), 1, 40)
        assert tab.factors_used >= 41
        assert np.all(np.isfinite(tab.log_a))
        with mp.workprec(200):
            q, e = mpf(1) / 4, mpf(1)
            for k, got in enumerate(tab.log_a):
                if k:
                    e *= q**k / (1 - q**k)
                want = float(mp.log(e) / 2)
                assert got <= want + 4 * np.spacing(abs(want)), (k, got, want)

    def test_overflowing_zero_is_an_error(self):
        # t_j = 2^j is inf in float64 from j = 1024 on: dropping those
        # zeros would report the positive a_1024.. as -inf
        with pytest.raises(ValueError, match="t_1024 overflows"):
            coeff_table(parse_sequence_spec("geometric:r=2"), 1, 1100)
        # an explicit list's inf is a genuine missing zero: a_k = 0
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0, 2.0, math.inf]), j_cut=5), 1, 3)
        assert np.all(np.isfinite(tab.log_a[:3])) and tab.log_a[3] == -math.inf

    def test_powlog_k40_matches_mpmath_product(self):
        tab, oracle = powlog_table(40)
        assert_within_claim(tab, oracle)
        assert_float_accurate(tab.log_a, oracle)

    def test_powlog_k4096_finite_and_matches(self):
        tab, oracle = powlog_table(4096)
        assert np.all(np.isfinite(tab.log_a))
        assert_float_accurate(tab.log_a, oracle)

    @pytest.mark.parametrize("float_type", [np.longdouble, np.float64])
    def test_equal_zeros_binomial(self, float_type, monkeypatch):
        # a_k^2 = C(N, k) spans more than float64 holds: the DP must fold
        # its entries into per-index offsets, at K < N also between the
        # blocks of the factors past K.  C(10000, 3000) ~ e^6100 passes the
        # long double fold threshold too
        monkeypatch.setattr(coeffs, "FLOAT", float_type)
        for N, K in [(2000, 2000), (2000, 300), (10000, 3000)]:
            tab = coeff_table(ZeroSequence(ExplicitFamily([1.0] * N), j_cut=5), 1, K)
            with mp.workprec(200):
                lg = [mp.loggamma(k + 1) for k in range(N + 1)]
                want = [(lg[N] - lg[k] - lg[N - k]) / 2 for k in range(K + 1)]
                assert_within_claim(tab, want)

    @pytest.mark.parametrize("float_type", [np.longdouble, np.float64])
    @given(
        st.one_of(
            st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=150, max_size=300),
            st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=21, max_size=80),
        ).map(sorted),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_blocked_tail_against_mpmath(self, float_type, zeros, K, n):
        # J > K: the factors past K span two or more blocks and a partial
        # one, or fewer than BLOCK of them make one block whose size is no
        # power of two.  An explicit list omits nothing, so
        # trunc_error_rel is the rounding bound alone
        with mock.patch.object(coeffs, "FLOAT", float_type):
            seq = ZeroSequence(ExplicitFamily(zeros), j_cut=5)
            tab = coeff_table(seq, n, K)
        assert_within_claim(tab, mp_log_a(seq, len(zeros), n, K))

    @pytest.mark.parametrize("B", [1, 2, 3, 5, 20, 33, 63, 64])
    def test_block_polys_against_fractions(self, B):
        # q = prod_m (1 + s_m v) from the product tree, against the exact
        # product of the same long doubles: q_0 = 1, and each q_i within
        # the (4i + B) eps the DP's rounding count grants it
        rng = np.random.default_rng(B)
        s = rng.uniform(0.0, 1.0, (3, B)).astype(coeffs.FLOAT)
        s[0, 0] = 1.0
        eps = Fraction(*np.finfo(coeffs.FLOAT).eps.as_integer_ratio())
        for row, got in zip(s, coeffs._block_polys(s)):
            want = [Fraction(1)]
            for x in row:
                x = Fraction(*x.as_integer_ratio())
                want = [a + x * b for a, b in zip(want + [0], [0] + want)]
            assert got[0] == 1
            for i, (g, w) in enumerate(zip(got, want)):
                assert abs(Fraction(*g.as_integer_ratio()) - w) <= (4 * i + B) * eps * w, (B, i)

    def test_tree_rounding_count_fits_the_budget(self):
        # level l of the tree adds at most 1 + min(i, 2^l) roundings to q_i
        for B in range(1, coeffs.BLOCK + 1):
            levels = (B - 1).bit_length()
            for i in range(1, B + 1):
                assert sum(1 + min(i, 2**l) for l in range(levels)) <= 4 * i + B, (B, i)

    def test_float64_long_double(self, monkeypatch):
        # platforms where long double is plain float64
        monkeypatch.setattr(coeffs, "FLOAT", np.float64)
        for tab, oracle in map(powlog_table, (40, 4096)):
            assert np.all(np.isfinite(tab.log_a))
            assert_within_claim(tab, oracle)

    def test_float64_wide_range(self, monkeypatch):
        # t_j = 2^j: t_j^2 overflows float64 from j = 512 on, and the split
        # multipliers (t_k/t_K)^2 of small k underflow
        seq = parse_sequence_spec("geometric:r=2")
        wide = coeff_table(seq, 2, 700)
        monkeypatch.setattr(coeffs, "FLOAT", np.float64)
        narrow = coeff_table(seq, 2, 700)
        assert np.all(np.isfinite(narrow.log_a))
        allowed = math.log1p(wide.trunc_error_rel) + math.log1p(narrow.trunc_error_rel)
        assert np.max(np.abs(narrow.log_a - wide.log_a)) <= allowed


class TestSupPoly:
    def test_simple_table(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0]), j_cut=5), 1, 3)
        r = sup_poly(tab, 2.0)
        assert r.value == pytest.approx(2.0) and r.argmax == 1

    def test_small_t_keeps_constant_term(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0]), j_cut=5), 1, 3)
        r = sup_poly(tab, 1e-300)
        assert r.value == pytest.approx(1.0) and r.argmax == 0

    def test_three_term(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0, 2.0]), j_cut=5), 1, 2)
        r = sup_poly(tab, 1.0)
        assert r.value == pytest.approx(math.sqrt(1.25)) and r.argmax == 1

    def test_domain(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0]), j_cut=5), 1, 3)
        with pytest.raises(ValueError):
            sup_poly(tab, 0.0)


def one_k_inf_sup(tab, k):
    """(log_lhs, log_rhs) of the identity at one k, by a 1-D zoom_max search
    of its own: the reference the batched search must equal bit for bit."""
    la = tab.log_a
    log_t_star = la[k - 1] - la[k]
    p = np.arange(tab.K + 1)

    def neg_objective(log_t):
        return k * log_t - np.max(la + np.multiply.outer(log_t, p), axis=1)

    grid = np.linspace(log_t_star - 3.0, log_t_star + 3.0, 96)
    at_star = -float(neg_objective(np.array([log_t_star]))[0])
    return min(-zoom_max(neg_objective, grid), at_star), float(la[k])


class TestInfSup:
    def test_degenerate_table_errors(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0]), j_cut=5), 1, 3)
        with pytest.raises(IdentityInapplicableError):
            inf_sup_identity(tab, [2])  # a_2 = 0
        with pytest.raises(IdentityInapplicableError):
            inf_sup_identity(tab, [5])  # outside [1, K-1]

    def test_two_zero_table(self):
        tab = coeff_table(ZeroSequence(ExplicitFamily([1.0, 2.0]), j_cut=5), 1, 2)
        (r,) = inf_sup_identity(tab, [1])
        assert r.rel_error < 1e-10

    def test_geometric_high_resolution(self):
        tab = coeff_table(parse_sequence_spec("geometric:r=2"), 1, 8)
        for r in inf_sup_identity(tab, range(1, 7)):
            assert r.rel_error < 1e-4, (r.k, r.rel_error)

    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_equals_one_k_searches(self, spec, n):
        tab = coeff_table(parse_sequence_spec(spec), n, 40)
        ks = list(range(1, 9))
        together = inf_sup_identity(tab, ks)
        assert [r.k for r in together] == ks
        for r in together:
            assert (r.log_lhs, r.log_rhs) == one_k_inf_sup(tab, r.k), r.k
            (alone,) = inf_sup_identity(tab, [r.k])
            assert (r.log_lhs, r.log_rhs) == (alone.log_lhs, alone.log_rhs), r.k

    def test_no_k(self):
        tab = coeff_table(parse_sequence_spec("geometric:r=2"), 1, 1)
        assert inf_sup_identity(tab, []) == []


class TestSandwich:
    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2"])
    def test_sandwich_holds(self, spec):
        seq = parse_sequence_spec(spec)
        w = WeightEvaluator(seq)
        tab = coeff_table(seq, 1, 40)
        cache = {}
        for t in log_grid(0.1, 1e4, 12):
            rep = sandwich_check(seq, 1, float(t), w, tab, big_table_cache=cache)
            assert rep.passed, (spec, t, rep.details)

    def test_capped_regime(self):
        # without a big-table cache a peak past the table is sup-capped
        seq = parse_sequence_spec("geometric:r=2")
        tab = coeff_table(seq, 1, 12)
        rep = sandwich_check(seq, 1, 1e30, WeightEvaluator(seq), tab)
        assert rep.passed and rep.details["regime"] == "sup-capped"

    def test_evaluator_of_another_sequence_is_refused(self):
        seq = parse_sequence_spec("geometric:r=2")
        other = WeightEvaluator(parse_sequence_spec("power:a=2"))
        with pytest.raises(ValueError, match=r"power:a=2.*geometric:r=2"):
            sandwich_check(seq, 1, 10.0, other, coeff_table(seq, 1, 12))

    def test_evaluator_of_a_twin_spec_string_is_refused(self):
        # powlog:a=1.0000001,b=2 prints as powlog:a=1,b=2, but its t_1000
        # differs from that of powlog:a=1,b=2 in the 6th digit
        seq = parse_sequence_spec("powlog:a=1,b=2")
        twin = parse_sequence_spec("powlog:a=1.0000001,b=2")
        assert twin.spec_string() == seq.spec_string()
        assert abs(twin.term(1000) / seq.term(1000) - 1.0) > 1e-7
        with pytest.raises(ValueError, match=r"1\.0000001"):
            sandwich_check(seq, 1, 10.0, WeightEvaluator(twin), coeff_table(seq, 1, 12))

    def test_big_tables_share_the_base_table(self):
        seq = parse_sequence_spec("power:a=2")
        cache = {}
        for n in (1, 2):
            big = coeffs.coeff_table_log(seq, n, 256, cache)
            direct = coeff_table(seq, n, 256)
            assert np.array_equal(big.log_a, direct.log_a)
            assert big.trunc_error_rel == direct.trunc_error_rel
        assert list(cache) == [("base", 256)]
