import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weightlab import (
    ExplicitFamily,
    GeometricFamily,
    PowLogFamily,
    PowerFamily,
    SequenceSpecError,
    ZeroSequence,
    parse_sequence_spec,
)


# 200 zeros from 1 to about 7.2, in runs of three equal ones
EXPLICIT_200 = "explicit:[" + ",".join(f"{1.01 ** (k - k % 3):.12g}" for k in range(200)) + "]"
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

    @pytest.mark.parametrize("spec", ["powlog:a=1,b=2", "power:a=2", "explicit:[1,2,3]"])
    def test_nan_has_no_count(self, spec):
        # every comparison with nan is false, so a bisection would return
        # its first bracket (1, or the list's length) instead of failing
        with pytest.raises(ValueError, match="nan"):
            parse_sequence_spec(spec).count_leq(math.nan)

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

    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=3,b=0"])
    @pytest.mark.parametrize("cond", ["i", "v", "vi"])
    def test_index_series_tails_dominate(self, spec, cond):
        fam = parse_sequence_spec(spec).family
        K = 50
        bound = fam.index_series_tail(cond, K)
        assert bound is not None
        brute = 0.0
        for k, t in enumerate(fam.terms(K + 1, 120_000).tolist(), start=K + 1):
            if t > 1e120:
                break
            if cond == "i":
                brute += max(0.0, math.log(t / k)) / t
            elif cond == "v":
                brute += max(0.0, math.log(math.log(k))) / t if k >= 3 else 0.0
            else:
                brute += max(0.0, math.log(math.log(t))) / t if t > 1 else 0.0
        assert bound >= brute

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

    def test_omega0_flag_prefix_violation_rejected(self):
        with pytest.raises(SequenceSpecError):
            ZeroSequence(
                family=ExplicitFamily([1.0, 1.0, 2.0]), j_cut=10, omega0_flag=True
            )

    def test_prefix_checks_match_term_loop(self):
        # validate and the omega0 check read one terms() array; a Python
        # loop over its ratios is the reference
        for spec in ("geometric:r=1.001", "geometric:r=2", "power:a=1.5", "power:a=2",
                     "powlog:a=1,b=2", "powlog:a=3,b=0", "powlog:a=1.5,b=0.5",
                     "explicit:[1,1,2]", "explicit:[1,2,4]"):
            for j_cut in (3, 4096):
                seq = parse_sequence_spec(spec, j_cut=j_cut)
                fam = seq.family
                upto = len(fam.values) if isinstance(fam, ExplicitFamily) else j_cut
                ratios = [t / j for j, t in enumerate(fam.terms(1, upto).tolist(), start=1)]
                flat = not any(b < a * (1.0 - 1e-15) for a, b in zip(ratios, ratios[1:]))
                tail = fam.omega0_tail_claim()
                assert seq.omega0_flag == (flat and tail is not False), (spec, j_cut)

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
