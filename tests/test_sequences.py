import gc
import math
import random
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from weightlab import (
    ConcaveSeriesMajorant,
    ExplicitFamily,
    GeometricFamily,
    PowLogFamily,
    PowerFamily,
    SequenceSpecError,
    WeightEvaluator,
    ZeroSequence,
    parse_sequence_spec,
)
from weightlab.criteria import profile_big_n, profile_log_omega, profile_n
from weightlab.sequences import ZERO_CHUNK, Family, TermPrefix, index_terms


# 200 zeros from 1 to about 7.2, in runs of three equal ones
EXPLICIT_200 = "explicit:[" + ",".join(f"{1.01 ** (k - k % 3):.12g}" for k in range(200)) + "]"
# 40 zeros 1.5, 2, 2.5, ..., 21
EXPLICIT_40 = "explicit:[" + ",".join(f"{1 + 0.5 * k:g}" for k in range(1, 41)) + "]"
FOUR_FAMILIES = ["geometric:r=1.1", "power:a=2.5", "powlog:a=1,b=2", "powlog:a=3,b=0",
                 EXPLICIT_200]
SPECS = st.one_of(
    st.floats(1.0, 3.0, exclude_min=True).map(lambda r: f"geometric:r={r!r}"),
    st.floats(1.0, 4.0, exclude_min=True).map(lambda a: f"power:a={a!r}"),
    st.tuples(st.floats(1.0, 4.0), st.floats(0.0, 4.0))
    .filter(lambda ab: ab[0] > 1.0 or ab[1] > 1.0)
    .map(lambda ab: f"powlog:a={ab[0]!r},b={ab[1]!r}"),
    st.just(EXPLICIT_200),
)


# the families and lists whose counts must equal the unseeded search
SEEDED_SPECS = ["powlog:a=1,b=1.0001", "powlog:a=1,b=2", "powlog:a=1,b=5",
                "powlog:a=1.0001,b=0", "powlog:a=3,b=0", "geometric:r=1.0001",
                "geometric:r=2", "geometric:r=1e100", "power:a=1.0001", "power:a=2",
                "explicit:[0.5,1,1,1,2.5,2.5,7,1e300]", "explicit:[3,3]"]
THRESHOLD_KINDS = ["at", "above", "below", "past 2^53", "under t_1", "plateau", "top"]


def _threshold(fam, kind, u):
    """A threshold of the given kind, placed by u in [0, 1]: at t_j, one
    float above or below it (j up to 2^1023, or past 2^53), below t_1, at
    the first zeros (t_1 = t_2 = t_3 on powlog), or just below t(2^1023)."""
    t1 = fam.terms(1, 1)[0]
    if kind == "under t_1":
        return t1 * (2.0 * u - 1.0)
    if kind == "plateau":
        return [math.nextafter(t1, 0.0), t1, math.nextafter(t1, math.inf)][min(int(3 * u), 2)]
    if kind == "top":
        return math.nextafter(min(fam._at(np.array([2.0**1023]))[0], sys.float_info.max), 0.0)
    j = math.floor(2.0 ** (53.0 + 10.0 * u if kind == "past 2^53" else 1022.0 * u))
    tj = float(fam._at(np.array([float(j)]))[0])
    return {"above": math.nextafter(tj, math.inf), "below": math.nextafter(tj, 0.0)}.get(kind, tj)


def _unseeded_count(fam, t):
    """The reference count: the search from [1, 2^1023], with the family's
    estimate patched out; a list is counted by the same search."""
    if isinstance(fam, ExplicitFamily):
        t = np.minimum(t, sys.float_info.max)
    with mock.patch.object(fam, "_index_estimate", lambda t: None):
        return Family.count_leq(fam, t)


class TestGrammar:
    def test_geometric(self):
        seq = parse_sequence_spec("geometric:r=2")
        assert seq.term(3) == 8.0
        assert seq.omega0_flag  # 2^j/j is nondecreasing

    def test_explicit_nondecreasing_valid(self):
        seq = parse_sequence_spec("explicit:[1,1,2]")
        assert seq.term(2) == 1.0
        # t_1/1 = 1 > t_2/2 = 0.5: not omega0
        assert not seq.omega0_flag

    def test_explicit_non_monotone_rejected(self):
        with pytest.raises(SequenceSpecError) as exc:
            parse_sequence_spec("explicit:[2,1]")
        assert "non-monotone" in str(exc.value)

    def test_syntax_error_position(self):
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("geometric:r=two")
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("nosuchfamily:a=1")
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("geometric")

    def test_round_trip_all_families(self):
        for spec in (
            "geometric:r=2",
            "geometric:r=1.5",
            "power:a=2",
            "powlog:a=1,b=2",
            "powlog:a=3,b=0",
            "explicit:[1,2,3.5]",
        ):
            seq = parse_sequence_spec(spec)
            again = parse_sequence_spec(seq.spec_string())
            assert [seq.term(j) for j in range(1, 5)] == [
                again.term(j) for j in range(1, 5)
            ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("geometric:r=1")  # sum 1/t_j diverges
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("power:a=1")
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("powlog:a=1,b=1")  # sum 1/t_j diverges
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("explicit:[]")
        with pytest.raises(SequenceSpecError):
            parse_sequence_spec("explicit:[-1,2]")


class TestCounting:
    def test_geometric_counts(self):
        fam = GeometricFamily(2.0)
        assert fam.count_leq(5.0) == 2
        assert fam.count_leq(1.0) == 0
        assert fam.count_leq(2.0) == 1

    def test_powlog_count_matches_enumeration(self):
        fam = PowLogFamily(1.0, 2.0)
        # enumeration oracle
        count = 0
        for t in fam.terms(1, 1000).tolist():
            if t > 100.0:
                break
            count += 1
        assert fam.count_leq(100.0) == count

    def test_count_is_exact_at_huge_arguments(self):
        seq = ZeroSequence(PowLogFamily(1.0, 2.0))
        n = seq.count_leq(2.0**60)
        assert seq.term(n) <= 2.0**60 < seq.term(n + 1)

    @pytest.mark.parametrize("fam", [PowLogFamily(1.0, 2.0), PowerFamily(1.0000001)])
    def test_count_at_the_largest_dyadic_point(self, fam):
        # counts past 2^400 (the 2^1023 level needs about 2^1009 and 2^1023
        # zeros) still bracket t, and a count whose next bracket would not
        # convert to a float raises instead of overflowing
        seq = ZeroSequence(fam)
        n = seq.count_leq(2.0**1023)
        assert seq.term(n) <= 2.0**1023 < seq.term(n + 1)
        with pytest.raises(ValueError, match="2\\^1024 no longer converts to a float"):
            PowerFamily(1.0000001).count_leq(1.7e308)

    @given(SPECS, st.integers(1, 30_000))
    @example("power:a=2.5", 10)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_count_matches_the_enumeration(self, spec, j):
        # at t_j and the floats next to it, n(t) counts exactly the t_j
        # that terms() enumerates, in one-threshold and array form alike
        seq = parse_sequence_spec(spec)
        full = seq.terms(1, 30_000)
        tj = full[min(j, int(np.isfinite(full).sum())) - 1]
        ts = np.array([math.nextafter(tj, 0.0), tj, math.nextafter(tj, math.inf)])
        want = full.searchsorted(ts, "right").tolist()
        assert [seq.count_leq(t) for t in ts] == want
        assert seq.count_leq(ts) == want

    @pytest.mark.parametrize("spec", ["powlog:a=1,b=2", "power:a=2", "explicit:[1,2,3]",
                                      "geometric:r=2"])
    def test_nan_has_no_count(self, spec):
        # every comparison with nan is false, so a bisection would return
        # its first bracket (1, or the list's length) instead of failing
        with pytest.raises(ValueError, match="nan"):
            parse_sequence_spec(spec).count_leq(math.nan)
        with pytest.raises(ValueError, match="nan"):
            parse_sequence_spec(spec).count_leq(np.array([2.0, math.nan]))

    @given(st.sampled_from(SEEDED_SPECS),
           st.lists(st.tuples(st.sampled_from(THRESHOLD_KINDS), st.floats(0.0, 1.0)),
                    min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_count_equals_the_unseeded_search(self, spec, draws):
        # the search from the family's verified bracket returns what the
        # search from [1, 2^1023] returns, one threshold or an array
        fam = parse_sequence_spec(spec).family
        last = fam._at(np.array([2.0**1023]))[0]
        ts = [t for t in (_threshold(fam, kind, u) for kind, u in draws)
              if math.isfinite(t) and t < last]
        assume(ts)
        want = _unseeded_count(fam, np.array(ts))
        assert fam.count_leq(np.array(ts)) == want
        assert [fam.count_leq(t) for t in ts] == want

    def test_search_rounds_take_only_open_rows(self, monkeypatch):
        # of the 60 dyadic counts of powlog, the seed closes all but a few;
        # the search's rounds (63 inner points per row) take only those
        fam = parse_sequence_spec("powlog:a=1,b=2").family
        ts = 2.0 ** np.arange(1, 61)
        want = fam.count_leq(ts)
        rows = []
        at = fam._at

        def spy(j):
            if j.ndim == 2 and j.shape[1] == 63:
                rows.append(j.shape[0])
            return at(j)

        monkeypatch.setattr(fam, "_at", spy)
        assert fam.count_leq(ts) == want
        assert rows and max(rows) < 20

    def test_explicit_infinite_tail(self):
        fam = ExplicitFamily([1.0, 2.0, 3.0])
        assert fam.count_leq(10.0) == 3
        assert fam.terms(4, 4)[0] == math.inf


class TestTailBounds:
    @pytest.mark.parametrize(
        "spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2", "powlog:a=3,b=0"]
    )
    def test_inv_tails_dominate_brute_force(self, spec):
        fam = parse_sequence_spec(spec).family
        for K in (10, 100, 1000):
            brute = brute_sq = 0.0
            for t in fam.terms(K + 1, 120_000).tolist():
                if t > 1e120:
                    break
                brute += 1.0 / t
                brute_sq += 1.0 / (t * t)
            assert fam.inv_tail(K) >= brute
            assert fam.inv_sq_tail(K) >= brute_sq

    @pytest.mark.parametrize("r, K", [(1.00001, 37_300_000), (1.5, 2000), (1e200, 1), (1e300, 5)])
    def test_geometric_tails_past_the_float_range(self, r, K):
        # r^-pK underflows, or r^2 overflows: the bound is read from its
        # logarithm, and one below the float range is the smallest positive
        # float, never 0.  Each is the exact tail to within rounding
        from mpmath import mp, mpf

        fam = GeometricFamily(r)
        tiny = math.ulp(0.0)
        with mp.workprec(100):
            for p, got in ((1, fam.inv_tail(K)), (2, fam.inv_sq_tail(K))):
                want = mpf(r) ** (-p * K) / (mpf(r) ** p - 1)
                assert got > 0, p
                assert want * (1 - 1e-9) - tiny <= got <= want * (1 + 1e-9) + tiny, (p, got, want)

    @pytest.mark.parametrize("coeff, p, q, x, j0", [
        (460.5, 1, 0, 1e-200, 1001), (1.0, 0, 1, 1e-200, 3), (1.0, 2, 1, 1e-120, 4),
        (1e300, 0, 0, 1e-110, 3)])
    def test_poly_geom_tail_past_the_float_range(self, coeff, p, q, x, j0):
        # the summands underflow: the tail is read from the first one's
        # logarithm, and one below the float range is the smallest positive
        # float, never 0; each is the exact tail to within rounding
        from mpmath import mp, mpf

        from weightlab.tails import poly_geom_tail

        got = poly_geom_tail(coeff, p, q, x, j0)
        with mp.workprec(100):
            want = mp.nsum(lambda j: coeff * j**p * mp.log(j) ** q * mpf(x) ** j, [j0, mp.inf])
        tiny = math.ulp(0.0)
        assert 0 < got and want * (1 - 1e-9) - tiny <= got <= want * 1.01 + tiny, (got, want)

    def test_explicit_sq_tail_of_huge_zeros(self):
        # (1/v)^2 where v^2 overflows; 1/(1e300)^2 is below the float range
        fam = ExplicitFamily([1e160, 1e300])
        assert fam.inv_sq_tail(0) == 1e-160**2 + math.ulp(0.0)
        assert fam.inv_sq_tail(1) == math.ulp(0.0)

    @pytest.mark.parametrize("spec", [
        "geometric:r=2", "power:a=2", "powlog:a=3,b=0", "power:a=1.5", "powlog:a=1,b=3",
        pytest.param(EXPLICIT_40, id="explicit-40"),
    ])
    @pytest.mark.parametrize("cond", ["i", "v", "vi"])
    def test_index_series_tails_dominate(self, spec, cond):
        # from every start K, the terms below a family's onset included,
        # the bound is at least the sum of the terms k = K+1..120,000; an
        # explicit list's bound is the float sum of its terms, within 1e-12
        fam = parse_sequence_spec(spec).family
        t = fam.terms(1, 120_000)
        terms = index_terms(cond, t, np.arange(1.0, len(t) + 1))
        # the scalar definitions are the reference for the first terms
        for k, tk in enumerate(t[:200].tolist(), start=1):
            if cond == "i":
                want = max(0.0, math.log(tk / k)) / tk
            elif cond == "v":
                want = max(0.0, math.log(math.log(k))) / tk if k >= 3 else 0.0
            else:
                want = max(0.0, math.log(math.log(tk))) / tk if tk > 1 else 0.0
            assert terms[k - 1] == pytest.approx(want if tk < math.inf else 0.0, rel=1e-12)
        for K in (0, 1, 2, 3, 39, 50):
            bound = fam.index_series_tail(cond, K)
            assert bound is not None
            assert bound >= math.fsum(terms[K:]) * (1.0 - 1e-12), K

    def test_powlog_divergence_certificates(self):
        fam = PowLogFamily(1.0, 2.0)
        assert not fam.msnq_convergent
        for cond in ("i", "v", "vi"):
            assert fam.index_series_tail(cond, 100) is None
            assert fam.index_series_divergence(cond) is not None

    def test_powlog_msnq_tail_needs_b_above_powers(self):
        # a = 1: the term bound falls as 1/(u (ln u)^(b-q)), q = 1 for the
        # n profile and 2 for ln|w|, so b = 2.5 certifies only the n profile
        fam = PowLogFamily(1.0, 2.5)
        assert math.isfinite(fam.dyadic_weighted_tail("n", 30))
        for J in (30, 40, 1000):
            assert fam.dyadic_weighted_tail("lnw", J) is None
        assert PowLogFamily(1.0, 2.0).dyadic_weighted_tail("n", 30) is None

    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=3,b=0"])
    @pytest.mark.parametrize("profile", ["n", "lnw"], ids=lambda p: f"msnq-{p}")
    def test_dyadic_weighted_tails_dominate(self, spec, profile):
        fam = parse_sequence_spec(spec).family
        J = 16
        bound = fam.dyadic_weighted_tail(profile, J)
        assert bound is not None
        brute = sum(fam._dyadic_terms_upper(profile, J + 1, 119))
        # _dyadic_terms_upper itself over-estimates the true terms, so this
        # is a strictly harder comparison than against the true series
        assert bound >= 0.999 * brute

    @pytest.mark.parametrize("spec", ["power:a=2", "powlog:a=3,b=0", "powlog:a=1,b=3",
                                      "explicit:[1000]", "explicit:[4]", "geometric:r=3.5"])
    def test_dyadic_terms_bound_the_msnq_terms(self, spec):
        # from the exact counts n(2^j) and n(2^(j+1)/e), the bound at each
        # level is at least the term (a_j/2^j) ln^+(2^j/a_(j+1)) of each
        # profile.  The last three specs have no zero below 2^(j+1)/e at
        # their first levels, where the weight bound falls back to the
        # first zero's factor.  Their n profile is left out: there the
        # bound can equal the term, and rounding puts it 2e-16 relative
        # below (geometric:r=3.5 at j = 6)
        profiles = ("n", "N", "lnw") if spec.startswith("pow") else ("N", "lnw")
        seq = parse_sequence_spec(spec)
        J = 30
        makers = {"n": profile_n, "N": profile_big_n, "lnw": profile_log_omega}
        for profile in profiles:
            a = makers[profile](seq, J)
            upper = seq.family._dyadic_terms_upper(profile, 1, J - 1)
            for j in range(1, J):
                term = a[j - 1] / 2.0**j * max(0.0, math.log(2.0**j / a[j])) if a[j - 1] else 0.0
                assert upper[j - 1] >= term, (profile, j, upper[j - 1], term)

    def test_cum_log_lower(self):
        for spec in ("geometric:r=2", "power:a=2", "powlog:a=1,b=2"):
            fam = parse_sequence_spec(spec).family
            for m in (5, 50, 500):
                exact = sum(math.log(t) for t in fam.terms(1, m).tolist())
                assert fam.cum_log_lower(m) <= exact + 1e-9


class TestInvariants:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_sorted_explicit_lists_accepted(self, values):
        values = sorted(values)
        seq = ZeroSequence(family=ExplicitFamily(values), j_cut=100)
        assert seq.term(1) == pytest.approx(values[0])

    def test_prefix_checks_match_term_loop(self):
        # validate and the omega0 check read one terms() array; a Python
        # loop over its ratios is the reference.  A powlog ratio is read
        # from j = 3, past the clamped head t_1 = t_2 = t_3
        for spec in ("geometric:r=1.001", "geometric:r=2", "power:a=1.5", "power:a=2",
                     "powlog:a=1,b=2", "powlog:a=3,b=0", "powlog:a=1.5,b=0.5",
                     "explicit:[1,1,2]", "explicit:[1,2,4]"):
            for j_cut in (3, 4096):
                seq = parse_sequence_spec(spec, j_cut=j_cut)
                fam = seq.family
                upto = len(fam.values) if isinstance(fam, ExplicitFamily) else j_cut
                start = 3 if isinstance(fam, PowLogFamily) else 1
                ratios = [t / j for j, t in enumerate(fam.terms(start, upto).tolist(), start=start)]
                flat = not any(b < a * (1.0 - 1e-15) for a, b in zip(ratios, ratios[1:]))
                assert seq.omega0_flag == flat, (spec, j_cut)
                assert ZeroSequence(fam, j_cut).omega0_flag == seq.omega0_flag, (spec, j_cut)

    def test_nan_entry_reported_at_its_index(self):
        with pytest.raises(SequenceSpecError, match="t_2 <= 0") as exc:
            parse_sequence_spec("explicit:[1,nan,3]")
        assert exc.value.position == 2

    def test_powlog_clamped_head(self):
        fam = PowLogFamily(1.0, 2.0)
        t = fam.terms(1, 4)
        assert t[0] == t[1] == t[2] < t[3]

    @pytest.mark.parametrize("spec", FOUR_FAMILIES, ids=lambda s: s.split(":[")[0])
    def test_terms_do_not_depend_on_the_window(self, spec):
        # t_j has one definition, so every window and every single-index
        # read gives the same bits as the full enumeration
        seq = parse_sequence_spec(spec)
        full = seq.terms(1, 30_000)
        for k in range(1, 9):
            assert np.array_equal(seq.terms(k, 30_000), full[k - 1 :])
        js = range(1, 30_001, 7)
        assert np.array_equal([seq.term(j) for j in js], full[::7])


class TestTermPrefix:
    # first requests inside the ramp of small pieces, later ones past
    # ZERO_CHUNK, a chunk boundary and the cap of 70,000
    REQUESTS = [1, 17, 1024, 5_000, ZERO_CHUNK + 3, 2 * ZERO_CHUNK, 40_000, 100_000]

    @pytest.mark.parametrize("spec", FOUR_FAMILIES + ["geometric:r=2"],
                             ids=lambda s: s.split(":[")[0])
    def test_matches_the_sequence(self, spec):
        # geometric:r=2 overflows from t_1024 on, so its prefix ends in inf
        seq = parse_sequence_spec(spec, j_cut=70_000)
        zeros = TermPrefix(seq)
        for j_max in random.Random(spec).sample(self.REQUESTS, len(self.REQUESTS)):
            want = seq.terms(1, min(j_max, seq.term_cap))
            want = want[np.isfinite(want)]
            assert np.array_equal(zeros.finite(j_max), want), j_max
            xs = [0.5 * want[0], *want[:: max(1, len(want) // 7)], 3.0 * min(want[-1], 1e300)]
            for x in xs + [np.nextafter(x, math.inf) for x in xs]:
                assert zeros.count_leq(x) == seq.count_leq(x), (j_max, x)

    def test_cap(self):
        # a prefix that holds all j_cut zeros counts at least j_cut without
        # the sequence, and counts exactly without the cap
        seq = parse_sequence_spec("powlog:a=1,b=2", j_cut=5_000)
        zeros = TermPrefix(seq)
        assert len(zeros.finite(10_000)) == 5_000
        assert zeros.count_leq(1e9, cap=5_000) == 5_000
        assert zeros.count_leq(1e9) == seq.count_leq(1e9) > 5_000
        assert zeros.count_leq(1e3, cap=5_000) == seq.count_leq(1e3)


class TestSharedTable:
    # each pair prints one spec string: %g keeps 6 significant digits
    TWINS = [("powlog:a=1,b=2", "powlog:a=1.0000001,b=2"),
             ("explicit:[1,2,3]", "explicit:[1,2,3.0000001]")]

    @pytest.mark.parametrize("specs", TWINS, ids=lambda p: p[0].split(":")[0])
    def test_one_spec_string_two_tables(self, specs):
        one, two = (parse_sequence_spec(s) for s in specs)
        assert one.spec_string() == two.spec_string() and one.key != two.key
        zeros = [TermPrefix.of(seq).finite(2_000).copy() for seq in (one, two)]
        assert not np.array_equal(*zeros)
        logs = [WeightEvaluator(seq).eval_log_abs_omega(2.0)[0] for seq in (one, two)]
        assert logs[0] != logs[1]

    def test_the_key_is_the_exact_sequence(self):
        seq = parse_sequence_spec("power:a=2")
        assert parse_sequence_spec("power:a=2.0").key == seq.key
        assert TermPrefix.of(parse_sequence_spec("power:a=2")) is TermPrefix.of(seq)
        assert ZeroSequence(seq.family, j_cut=1_000).key != seq.key
        assert parse_sequence_spec("powlog:a=2,b=0").key != parse_sequence_spec("power:a=2").key

    def test_one_table_at_a_time(self):
        # every reader asks for the table in each call and keeps none, so a
        # request for another sequence frees the one held before
        held = []
        for spec in ("power:a=2", "geometric:r=2", EXPLICIT_40):
            seq = parse_sequence_spec(spec)
            WeightEvaluator(seq).eval_log_abs_omega(1e3)
            ConcaveSeriesMajorant(seq).eval(10.0)
            held.append(weakref.ref(TermPrefix.of(seq)))
        gc.collect()
        assert [ref() is not None for ref in held] == [False, False, True]
