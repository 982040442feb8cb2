import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import (
    ExplicitFamily,
    GeometricFamily,
    PowLogFamily,
    PowerFamily,
    SequenceSpecError,
    ZeroSequence,
    parse_sequence_spec,
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
        j = 1
        while fam.term(j) <= 100.0:
            count += 1
            j += 1
        assert fam.count_leq(100.0) == count

    def test_count_is_exact_at_huge_arguments(self):
        fam = PowLogFamily(1.0, 2.0)
        n = fam.count_leq(2.0**60)
        assert fam.term(n) <= 2.0**60 < fam.term(n + 1)

    @pytest.mark.parametrize("fam", [PowLogFamily(1.0, 2.0), PowerFamily(1.0000001)])
    def test_count_at_the_largest_dyadic_point(self, fam):
        # counts past 2^400 (the 2^1023 level needs about 2^1009 and 2^1023
        # zeros) still bracket t, and a count whose next bracket would not
        # convert to a float raises instead of overflowing in term()
        n = fam.count_leq(2.0**1023)
        assert fam.term(n) <= 2.0**1023 < fam.term(n + 1)
        with pytest.raises(ValueError, match="2\\^1024 no longer converts to a float"):
            PowerFamily(1.0000001).count_leq(1.7e308)

    @pytest.mark.parametrize("spec", ["powlog:a=1,b=2", "power:a=2", "explicit:[1,2,3]"])
    def test_nan_has_no_count(self, spec):
        # every comparison with nan is false, so a bisection would return
        # its first bracket (1, or the list's length) instead of failing
        with pytest.raises(ValueError, match="nan"):
            parse_sequence_spec(spec).count_leq(math.nan)

    def test_explicit_infinite_tail(self):
        fam = ExplicitFamily([1.0, 2.0, 3.0])
        assert fam.count_leq(10.0) == 3
        assert fam.term(4) == math.inf


class TestTailBounds:
    @pytest.mark.parametrize(
        "spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2", "powlog:a=3,b=0"]
    )
    def test_inv_tails_dominate_brute_force(self, spec):
        fam = parse_sequence_spec(spec).family
        for K in (10, 100, 1000):
            brute = brute_sq = 0.0
            for k in range(K + 1, 120_001):
                t = fam.term(k)
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
        for k in range(K + 1, 120_001):
            t = fam.term(k)
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
        brute = 0.0
        for j in range(J + 1, 120):
            brute += fam._dyadic_term_upper(profile, j)
        # _dyadic_term_upper itself over-estimates the true terms, so this
        # is a strictly harder comparison than against the true series
        assert bound >= 0.999 * brute

    def test_cum_log_lower(self):
        for spec in ("geometric:r=2", "power:a=2", "powlog:a=1,b=2"):
            fam = parse_sequence_spec(spec).family
            for m in (5, 50, 500):
                exact = sum(math.log(fam.term(k)) for k in range(1, m + 1))
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
        # validate and the omega0 check read one terms() array; the
        # per-term loop they replaced is the reference
        for spec in ("geometric:r=1.001", "geometric:r=2", "power:a=1.5", "power:a=2",
                     "powlog:a=1,b=2", "powlog:a=3,b=0", "powlog:a=1.5,b=0.5",
                     "explicit:[1,1,2]", "explicit:[1,2,4]"):
            for j_cut in (3, 4096):
                seq = parse_sequence_spec(spec, j_cut=j_cut)
                fam = seq.family
                upto = len(fam.values) if isinstance(fam, ExplicitFamily) else j_cut
                ratios = [fam.term(j) / j for j in range(1, upto + 1)]
                flat = not any(b < a * (1.0 - 1e-15) for a, b in zip(ratios, ratios[1:]))
                tail = fam.omega0_tail_claim()
                assert seq.omega0_flag == (flat and tail is not False), (spec, j_cut)

    def test_nan_entry_reported_at_its_index(self):
        with pytest.raises(SequenceSpecError, match="t_2 <= 0") as exc:
            parse_sequence_spec("explicit:[1,nan,3]")
        assert exc.value.position == 2

    def test_powlog_clamped_head(self):
        fam = PowLogFamily(1.0, 2.0)
        assert fam.term(1) == fam.term(2) == fam.term(3)
        assert fam.term(3) < fam.term(4)

    def test_terms_vectorized_matches_scalar(self):
        for spec in ("geometric:r=2", "power:a=2", "powlog:a=1,b=2"):
            fam = parse_sequence_spec(spec).family
            vec = fam.terms(1, 50)
            scal = np.array([fam.term(j) for j in range(1, 51)])
            np.testing.assert_allclose(vec, scal, rtol=1e-12)
