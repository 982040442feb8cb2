import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from weightlab import (
    ConcaveSeriesMajorant,
    WeightEvaluator,
    ZeroSequence,
    ExplicitFamily,
    big_N,
    modulus_bound_check,
    parse_sequence_spec,
    scaling_inequality_check,
    strong_nqa_tail_check,
)
from weightlab.sequences import ZERO_CHUNK, TermPrefix
from weightlab.weights import _EPS, _ORDER, _SERIES_BLOCK

NEG_INF = float("-inf")
_U = 2.0**-53  # unit roundoff of float64


def single_zero(t1=1.0):
    return ZeroSequence(family=ExplicitFamily([t1]), j_cut=10)


class TestRealEvaluation:
    def test_zero_argument(self):
        w = WeightEvaluator(single_zero())
        assert w.eval_log_abs_omega(0.0) == (0.0, 0.0)

    def test_single_zero_closed_form(self):
        w = WeightEvaluator(single_zero())
        v, err = w.eval_log_abs_omega(1.0)
        assert v == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert err == 0.0

    def test_geometric_against_high_precision_oracle(self):
        # direct summation oracle at 60-digit precision, zeros 2^j, j <= 40
        seq = parse_sequence_spec("geometric:r=2")
        w = WeightEvaluator(seq, tol=1e-15)
        v, err = w.eval_log_abs_omega(4.0)
        with mp.workprec(200):
            oracle = sum(mp.log(1 + mpf(16) / mpf(4) ** j) for j in range(1, 41)) / 2
        assert v <= float(oracle) + 1e-13
        assert float(oracle) <= v + err + 1e-13
        assert v == pytest.approx(float(oracle), abs=1e-10)

    def test_truncation_is_one_sided(self):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        w_loose = WeightEvaluator(ZeroSequence(seq.family, j_cut=2000), tol=1e-12)
        w_tight = WeightEvaluator(ZeroSequence(seq.family, j_cut=200_000), tol=1e-12)
        for t in (7.0, 123.0, 4096.0):
            v_lo, err_lo = w_loose.eval_log_abs_omega(t)
            v_hi, _ = w_tight.eval_log_abs_omega(t)
            assert v_lo <= v_hi <= v_lo + err_lo

    def test_domain_errors(self):
        w = WeightEvaluator(single_zero())
        with pytest.raises(ValueError):
            w.eval_log_abs_omega(math.nan)
        with pytest.raises(ValueError):
            w.eval_log_abs_omega(-1.0)

    @given(st.floats(min_value=0.01, max_value=1e5), st.floats(min_value=1.01, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_t(self, t, factor):
        w = WeightEvaluator(parse_sequence_spec("geometric:r=2"))
        v1, _ = w.eval_log_abs_omega(t)
        v2, _ = w.eval_log_abs_omega(t * factor)
        assert v2 >= v1 - 1e-12


class TestComplexEvaluation:
    def test_zero_argument(self):
        w = WeightEvaluator(single_zero())
        assert w.eval_log_abs_omega_complex(0j) == (0.0, 0.0)

    def test_exact_zero_gives_sentinel(self):
        w = WeightEvaluator(single_zero())
        v, _ = w.eval_log_abs_omega_complex(1j)
        assert v == NEG_INF

    def test_closed_form_one_plus_i(self):
        # |1 + i(1+i)| = |i| = 1, so the log vanishes
        w = WeightEvaluator(single_zero())
        v, err = w.eval_log_abs_omega_complex(1 + 1j)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_neg_imag_is_linear_product(self):
        w = WeightEvaluator(single_zero())
        v, _ = w.eval_log_abs_omega_complex(complex(0.0, -3.0))
        assert v == pytest.approx(math.log(4.0), abs=1e-14)

    def test_domain_error(self):
        w = WeightEvaluator(single_zero())
        with pytest.raises(ValueError):
            w.eval_log_abs_omega_complex(complex(math.inf, 0))


def _same(got, want):
    """Exact equality of (value, err) pairs, nan matching nan."""
    return all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want))


def _reference(seq, x):
    """ln|w(x)| enumerated per point: terms() for each ZERO_CHUNK-term chunk, the
    infinite entries masked out, then the same sums (x float or complex)."""
    w = WeightEvaluator(seq)
    real = isinstance(x, float)
    j_max, err = w._choose_cutoff(x) if real else w._complex_cutoff(x)
    total = comp = 0.0
    for start in range(1, j_max + 1, ZERO_CHUNK):
        tj = seq.terms(start, min(start + ZERO_CHUNK - 1, j_max))
        tj = tj[np.isfinite(tj)]
        if len(tj) == 0:
            continue
        if real:
            logs = np.log1p((x / tj) * (x / tj))
        else:
            sq = (1.0 - x.imag / tj) ** 2 + (x.real / tj) ** 2
            if np.any(sq == 0.0):
                return NEG_INF, 0.0
            logs = np.log(sq)
        part = 0.5 * float(np.sum(logs))
        s = total + part
        comp += (total - s) + part if abs(total) >= abs(part) else (part - s) + total
        total = s
    return total + comp, err


def _allowance(seq, x):
    """How far the evaluator may lie from _reference at x: the far-zero
    series' remainder, bounded over every zero past |x|/_EPS (a superset of
    the far blocks), plus gamma_{J+32} times the sum of |terms|."""
    w = WeightEvaluator(seq)
    j_max, _ = w._choose_cutoff(x) if isinstance(x, float) else w._complex_cutoff(x)
    tj = seq.terms(1, j_max)
    tj = tj[np.isfinite(tj)]
    r = abs(x)
    far = tj[tj > r / _EPS]
    rem = float(np.sum((r / far) ** (_ORDER + 1))) / ((_ORDER + 1) * (1.0 - _EPS))
    mag = 0.5 * float(np.sum(np.abs(np.log(np.abs(1.0 + 1j * x / tj) ** 2))))
    n = j_max + 32
    return rem * (1.0 + 1e-12) + n * _U / (1.0 - n * _U) * mag


def _assert_near_reference(w, seq, x):
    """w's value lies within _allowance of the all-log reference, and its
    err is the reference's tail bound plus at most that allowance."""
    v, err = w.eval_log_abs_omega(x) if isinstance(x, float) else w.eval_log_abs_omega_complex(x)
    v_ref, err_ref = _reference(seq, x)
    bound = _allowance(seq, x)
    assert abs(v - v_ref) <= bound, (x, v, v_ref, bound)
    assert err_ref <= err <= err_ref + bound, (x, err, err_ref)


def _drop_table():
    """Drop the process's table, so that the next reader starts from none."""
    TermPrefix._held = None


def _fresh(seq, method, x):
    """The value at x of a fresh evaluator on a fresh table."""
    _drop_table()
    return getattr(WeightEvaluator(seq), method)(x)


def _warm_matches_fresh(seq, ts, zs):
    """A warm evaluator agrees exactly with a fresh one on a fresh table per
    point, whether its table grows along an ascending grid or all at once."""
    points = [("eval_log_abs_omega", t) for t in ts] + [("eval_log_abs_omega_complex", z) for z in zs]
    want = [_fresh(seq, method, x) for method, x in points]
    for order in (1, -1):
        _drop_table()
        warm = WeightEvaluator(seq)
        for (method, x), expect in list(zip(points, want))[::order]:
            got = getattr(warm, method)(x)
            assert _same(got, expect), (x, got)


class TestZerosFarBelowTheArgument:
    # (t/t_j)^2 overflows for t_j below about |z| 1e-154; those factors are
    # recomputed in the scaled form, and ln|w(2)| = ln(2e300) + O(1e-600)
    SEQ = "explicit:[1e-300,1e300]"
    WANT = math.log(2.0) + 300.0 * math.log(10.0)

    @pytest.mark.parametrize("method, x", [
        ("eval_log_abs_omega", 2.0),
        ("eval_log_abs_omega_complex", 2.0 + 0j),
        ("eval_log_abs_omega_complex", 2j),
        ("eval_log_abs_omega_complex", complex(0.0, -2.0)),
    ])
    def test_two_zeros(self, method, x):
        v, err = getattr(WeightEvaluator(parse_sequence_spec(self.SEQ)), method)(x)
        assert v == pytest.approx(self.WANT, rel=1e-12) and err == 0.0

    @pytest.mark.parametrize("x", [2.0, 3.0 - 4.0j, -7.0j, 5.0j])
    def test_ordinary_zeros_beside_them(self, x):
        # only the overflowing factors change form: the others keep theirs
        zeros = [1e-300, 1e-200, 0.5, 1.0, 3.0, 3.0, 40.0, 1e300]
        seq = ZeroSequence(ExplicitFamily(zeros), j_cut=10)
        w = WeightEvaluator(seq)
        v, err = (w.eval_log_abs_omega(x) if isinstance(x, float)
                  else w.eval_log_abs_omega_complex(x))
        with mp.workprec(200):
            z = mp.mpc(x)
            want = sum(mp.log(abs(1 + 1j * z / mpf(t))) for t in zeros)
        assert err == 0.0
        assert v == pytest.approx(float(want), rel=1e-12)


class TestTermPrefix:
    GRID = [0.7, 3.0, 41.0, 900.0, 2.5e4, 6e5, 1e7]
    ZS = [cmath.rect(r, th) for r, th in ((0.5, 0.3), (7.0, 2.0), (300.0, -1.1), (9e3, 4.0))]

    @pytest.mark.parametrize(
        "spec", ["powlog:a=1,b=2", "power:a=2", "geometric:r=2", "explicit:[0.5,1,3,3,40,1e4]"]
    )
    def test_warm_matches_fresh(self, spec):
        seq = parse_sequence_spec(spec, j_cut=70_000)
        _warm_matches_fresh(seq, self.GRID, self.ZS)

    def test_alternating_sequences_match_fresh_objects(self):
        # two sequences in turn evict each other's table at every call; the
        # evaluators and majorants still give the bits of fresh objects that
        # visit the points in reverse order, one sequence at a time
        seqs = [parse_sequence_spec(s, j_cut=70_000) for s in ("powlog:a=1,b=2", "power:a=2")]
        calls = ([("real", t) for t in (0.7, 41.0, 900.0, 2.5e4, 1e7)]
                 + [("complex", z) for z in self.ZS]
                 + [("alpha", t) for t in (0.3, 12.0, 2e3, 1e4)])

        def call(objs, kind, x):
            w, m = objs
            return {"real": w.eval_log_abs_omega, "complex": w.eval_log_abs_omega_complex,
                    "alpha": m.eval}[kind](x)

        objs = [(WeightEvaluator(s), ConcaveSeriesMajorant(s)) for s in seqs]
        alternating = [{}, {}]
        for kind, x in calls:
            for k in (0, 1):
                alternating[k][kind, x] = call(objs[k], kind, x)
        for k, seq in enumerate(seqs):
            _drop_table()
            fresh = (WeightEvaluator(seq), ConcaveSeriesMajorant(seq))
            for kind, x in calls[::-1]:
                got = call(fresh, kind, x)
                assert _same(got, alternating[k][kind, x]), (seq.spec_string(), kind, x, got)

    @pytest.mark.parametrize("spec", ["powlog:a=1,b=2", "power:a=2"])
    def test_across_a_chunk_boundary(self, spec):
        ts = [2.0, 5e3, 1e7]
        for j_cut in (ZERO_CHUNK + 5, (1 << 18) + 5):
            seq = parse_sequence_spec(spec, j_cut=j_cut)
            _warm_matches_fresh(seq, ts, self.ZS[1:3])
            # the far zeros are summed by the series, not by logs: the values
            # lie within its remainder and the summation's rounding of the
            # all-log reference, and err adds the remainder to the tail bound
            warm = WeightEvaluator(seq)
            for x in ts + self.ZS[1:3]:
                _assert_near_reference(warm, seq, x)
            assert TermPrefix.of(seq).powsums.shape[1] > 0  # some point had far blocks

    @given(spec=st.sampled_from(["powlog:a=1,b=2", "power:a=2", "geometric:r=1.001", "explicit"]),
           kind=st.sampled_from(["real", "complex", "neg-imag"]),
           log_r=st.floats(-3.0, 150.0), theta=st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_series_within_its_bound(self, spec, kind, log_r, theta):
        # 3 complete blocks and a partial one: a point's head, far blocks
        # and last incomplete block all occur, at |x| up to 1e150
        j_cut = 3 * _SERIES_BLOCK + 17
        if spec == "explicit":
            seq = ZeroSequence(ExplicitFamily([j**1.5 for j in range(1, j_cut + 1)]), j_cut=j_cut)
        else:
            seq = parse_sequence_spec(spec, j_cut=j_cut)
        r = 10.0**log_r
        x = {"real": r, "complex": cmath.rect(r, theta), "neg-imag": complex(0.0, -r)}[kind]
        _assert_near_reference(WeightEvaluator(seq), seq, x)

    def test_prefix_ending_in_inf(self):
        # 2^j overflows float64 from j = 1024 on; past t = 1e154, t^2
        # overflows too, and the evaluator refuses the point
        seq = parse_sequence_spec("geometric:r=2")
        warm = WeightEvaluator(seq)
        for t in (3e299, 1e300):
            with pytest.raises(ValueError, match="overflows float64"):
                warm.eval_log_abs_omega(t)
        # |z| of the last point is past the float range itself
        for z in (1e300 * cmath.exp(0.7j), complex(0.0, -1e300), complex(1.5e308, 1.5e308)):
            with pytest.raises(ValueError, match="overflows float64"):
                warm.eval_log_abs_omega_complex(z)
        # the prefix now ends in inf, and a finite point still matches
        assert np.isinf(TermPrefix.of(seq).values[-1])
        got = warm.eval_log_abs_omega(1e150)
        assert math.isfinite(got[0]) and math.isfinite(got[1])
        assert got == _reference(seq, 1e150)
        _warm_matches_fresh(seq, [1e150], [])

    def test_cap_below_the_first_doubling(self):
        # j_cut = 5 is below the doubling's start of 16: every enumeration
        # stops at the cap, and the omitted tail is reported, finite
        from weightlab.coeffs import coeff_table

        seq = parse_sequence_spec("powlog:a=1,b=2", j_cut=5)
        fam = seq.family
        tj = seq.terms(1, 5)
        w = WeightEvaluator(seq)
        t, z = 100.0, complex(30.0, -40.0)
        assert w._choose_cutoff(t) == (5, 0.5 * t * t * fam.inv_sq_tail(5))
        v, err = w.eval_log_abs_omega(t)
        assert v == pytest.approx(0.5 * float(np.sum(np.log1p((t / tj) ** 2))), rel=1e-14)
        assert 0 < err < math.inf
        assert w._complex_cutoff(z) == (5, 2500.0 * fam.inv_sq_tail(5) + 80.0 * fam.inv_tail(5))
        v, err = w.eval_log_abs_omega_complex(z)
        assert v == pytest.approx(0.5 * float(np.sum(np.log(np.abs(1 + 1j * z / tj) ** 2))),
                                  rel=1e-14)
        assert 0 < err < math.inf
        tab = coeff_table(seq, 1, 4)
        assert tab.factors_used == 5 and 0 < tab.trunc_error_rel < math.inf

    def test_warm_call_allocates_no_chunk(self):
        w = WeightEvaluator(parse_sequence_spec("powlog:a=1,b=2"))
        w.eval_log_abs_omega(1e3)
        tracemalloc.start()
        try:
            w.eval_log_abs_omega(2e3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDistribution:
    def test_geometric_counts(self):
        seq = parse_sequence_spec("geometric:r=2")
        assert seq.count_leq(5.0) == 2
        assert seq.count_leq(1.0) == 0

    def test_powlog_enumeration_oracle(self):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        count = sum(1 for j in range(1, 10_000) if seq.term(j) <= 100.0)
        assert seq.count_leq(100.0) == count


class TestBigN:
    def test_below_first_zero(self):
        seq = parse_sequence_spec("geometric:r=2")
        assert big_N(seq, 1.5) == (0.0, 0)

    def test_geometric_at_four(self):
        # max_k 4^k / 2^(k(k+1)/2) = 2, at k = 1 or 2
        seq = parse_sequence_spec("geometric:r=2")
        val, k = big_N(seq, 4.0)
        assert val == pytest.approx(math.log(2.0), abs=1e-14)
        assert k in (1, 2)

    def test_at_first_zero(self):
        seq = parse_sequence_spec("power:a=2")
        val, _ = big_N(seq, seq.term(1))
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_never_exceeds_log_weight(self):
        for spec in ("geometric:r=2", "powlog:a=1,b=2", "power:a=2"):
            seq = parse_sequence_spec(spec)
            w = WeightEvaluator(seq, tol=1e-9)
            for t in (2.0, 17.0, 513.0, 1e5):
                v, err = w.eval_log_abs_omega(t)
                assert big_N(seq, t)[0] <= v + err + 1e-9


    def test_explicit_list_read_whole_at_any_j_cut(self):
        # 50 zeros 1, 1.5, ..., 25.5: the N profile reads the whole list, as
        # every other sum over an explicit list does, whatever j_cut says
        fam = ExplicitFamily([1.0 + 0.5 * i for i in range(50)])
        ts = np.append(2.0 ** np.arange(1.0, 13.0), 1e3)
        capped = big_N(ZeroSequence(fam, j_cut=10), ts)
        whole = big_N(ZeroSequence(fam), ts)
        assert np.array_equal(capped[0], whole[0]) and capped[1] == whole[1]
        assert whole[1][-1] == 50

    @pytest.mark.parametrize("spec", ["geometric:r=2", "powlog:a=1,b=2", "power:a=2"])
    def test_array_equals_scalar_calls(self, spec):
        # below t_1 (N = 0, argmax 0), dyadic levels, a point past j_cut, 2^1023
        seq = parse_sequence_spec(spec, j_cut=30)
        ts = np.array([0.5 * seq.term(1), 1.0, 3.0, 2.0**10, 2.0**40, 2.0**1023])
        assert seq.count_leq(2.0**40) > seq.j_cut
        values, argmax = big_N(seq, ts)
        assert isinstance(values, np.ndarray) and isinstance(argmax, list)
        alone = [big_N(seq, float(t)) for t in ts]
        assert [(float(v), k) for v, k in zip(values, argmax)] == alone
        assert [type(v) for v, _ in alone] == [float] * len(ts)
        assert alone[0] == (0.0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_array_rejects_a_bad_point(self, bad):
        seq = parse_sequence_spec("geometric:r=2")
        with pytest.raises(ValueError):
            big_N(seq, bad)
        with pytest.raises(ValueError):
            big_N(seq, np.array([2.0, bad, 4.0]))


class TestScaling:
    def test_equality_at_unit_scale(self):
        w = WeightEvaluator(parse_sequence_spec("geometric:r=2"))
        rep = scaling_inequality_check(w, 1.0, samples=20)
        assert rep.passed
        assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_single_zero_closed_form_margin(self):
        # t=1, L=3: ln 10 <= 9 ln 2 with margin 9 ln2 - ln10
        w = WeightEvaluator(single_zero())
        rep = scaling_inequality_check(w, 3.0, samples=3, t_lo=1.0, t_hi=1.0 + 1e-9)
        assert rep.passed
        expected = 9.0 * 0.5 * math.log(2.0) - 0.5 * math.log(10.0)
        assert rep.worst_margin == pytest.approx(expected, rel=1e-6)

    def test_geometric_grid(self):
        w = WeightEvaluator(parse_sequence_spec("geometric:r=2"))
        rep = scaling_inequality_check(w, 2.0, samples=50, t_lo=1.0, t_hi=1e4)
        assert rep.passed

    def test_rejects_small_L(self):
        w = WeightEvaluator(single_zero())
        with pytest.raises(ValueError):
            scaling_inequality_check(w, 0.5)


class TestModulusBound:
    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2"])
    def test_no_violations(self, spec):
        seq = parse_sequence_spec(spec)
        w = WeightEvaluator(ZeroSequence(seq.family, j_cut=60_000), tol=1e-6)
        rep = modulus_bound_check(w, samples=300, rng_seed=5, radius=1e3)
        assert rep.passed, rep.details


class TestStrongNqaTail:
    def test_geometric_constant_two(self):
        seq = parse_sequence_spec("geometric:r=2")
        c_min, rep = strong_nqa_tail_check(seq, K=64)
        # (t_k/k) sum_{j>=k} 2^-j = 2/k, maximal at k=1
        assert c_min == pytest.approx(2.0, rel=1e-12)
        assert rep.details["certified"]

    def test_powlog_not_certified(self):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        c1, rep1 = strong_nqa_tail_check(seq, K=200)
        c2, rep2 = strong_nqa_tail_check(seq, K=2000)
        assert c2 > c1  # keeps growing
        assert not rep2.details["certified"]

    @pytest.mark.parametrize("spec", ["explicit:[1e-320]", "explicit:[5e-324,1]"])
    def test_subnormal_zeros(self, spec):
        # 1/t_1 overflows, but (t_1/1)(1/t_1 + ...) is exactly 1: the sums
        # are formed from quotients t_k/t_j <= 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_min, rep = strong_nqa_tail_check(parse_sequence_spec(spec), K=200)
        assert c_min == 1.0
        assert rep.passed and rep.details["argmax_k"] == 1

    def test_explicit_three_zeros(self):
        seq = ZeroSequence(family=ExplicitFamily([1.0, 2.0, 4.0]), j_cut=10)
        c_min, rep = strong_nqa_tail_check(seq, K=3)
        brute = max(
            (1.0 / 1) * (1 + 0.5 + 0.25),
            (2.0 / 2) * (0.5 + 0.25),
            (4.0 / 3) * 0.25,
        )
        assert c_min == pytest.approx(brute, rel=1e-12)
