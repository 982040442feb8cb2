import math

import numpy as np
import pytest

from weightlab import (
    SampledFunction,
    ZeroSequence,
    criteria2_report,
    integral_cross_check,
    log_grid,
    msnq_omega_conditions,
    msnq_series,
    nqa_series,
    big_N,
    parse_sequence_spec,
    profile_big_n,
    profile_log_omega,
    profile_n,
    WeightEvaluator,
)
from weightlab.criteria import VERDICT_CONV, VERDICT_DIV, VERDICT_INC, _record_points
from weightlab.sequences import index_terms


def profile_from_callable(fn, j_max):
    """The dyadic profile a_j = fn(2^j) for j = 1..j_max."""
    return np.array([float(fn(2.0**j)) for j in range(1, j_max + 1)])


def msnq_n_profile(seq, J):
    """The msnq series of the n profile to level J, closed by the family's
    tail and divergence certificate, as condition ii is."""
    fam = seq.family
    return msnq_series(profile_n(seq, J), fam.dyadic_weighted_tail("n", J - 1),
                       fam.dyadic_divergence("n"))


class TestNqaSeries:
    def test_linear_profile_sums_to_two(self):
        # a_j = j: sum j/2^j = 2; family tail certifies
        geo = parse_sequence_spec("geometric:r=2")
        p = profile_n(geo, 40)
        d = nqa_series(p, tail=geo.family.dyadic_nqa_tail("n", 40))
        assert d.verdict == VERDICT_CONV
        assert d.partial_sums[-1] <= 2.0 <= d.partial_sums[-1] + d.tail_bound
        assert d.partial_sums[-1] == pytest.approx(2.0, abs=1e-9)

    def test_constant_terms_without_certificate_inconclusive(self):
        # constant terms grow the partial sums linearly, but growth certifies
        # nothing: with neither a tail nor a divergence certificate the
        # verdict is inconclusive.  nqa: a_j = 2^j gives terms 1; msnq:
        # a_j = 2^j / e gives terms (1 - ln 2)/e
        for d in (nqa_series(profile_from_callable(lambda t: t, 40)),
                  msnq_series(profile_from_callable(lambda t: t / math.e, 40))):
            assert d.verdict == VERDICT_INC
            assert d.certificate is None
            assert d.partial_sums[-1] > 1.9 * d.partial_sums[len(d.partial_sums) // 2] > 0

    def test_zero_profile_certified_with_tail(self):
        d = nqa_series([0.0] * 10, tail=0.0)
        assert d.verdict == VERDICT_CONV
        assert np.all(d.partial_sums == 0.0)

    def test_partial_sums_nondecreasing(self):
        p = profile_n(parse_sequence_spec("powlog:a=1,b=2"), 30)
        for series in (nqa_series(p), msnq_series(p)):
            assert np.all(np.diff(series.partial_sums) >= -1e-15)


class TestMsnqSeries:
    def test_powlog_failing_family(self):
        d = msnq_n_profile(parse_sequence_spec("powlog:a=1,b=2"), 60)
        assert d.verdict == VERDICT_DIV
        assert d.certificate is not None

    def test_powlog_a3_certified(self):
        d = msnq_n_profile(parse_sequence_spec("powlog:a=3,b=0"), 40)
        assert d.verdict == VERDICT_CONV
        assert d.tail_bound is not None and math.isfinite(d.tail_bound)

    def test_zero_profile(self):
        d = msnq_series([0.0] * 8, tail=0.0)
        assert d.verdict == VERDICT_CONV
        assert np.all(d.partial_sums == 0.0)

    def test_onset_skips_oversized_values(self):
        # a_j = 2^(j+2) exceeds 2^j everywhere: no onset, inconclusive
        p = profile_from_callable(lambda t: 4.0 * t, 12)
        d = msnq_series(p)
        assert d.verdict == VERDICT_INC
        assert d.skipped_terms > 0

    def test_decreasing_values_raise(self):
        with pytest.raises(ValueError):
            msnq_series(np.array([2.0, 1.0]))


class TestProfiles:
    @pytest.mark.parametrize("j_cut", [500_000, 1000])
    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2"])
    def test_one_pass_profiles_equal_their_levels(self, spec, j_cut):
        # the profiles count and sum every level in one pass; each level
        # is bit for bit the value of its own one-point call (at
        # j_cut = 1000 the levels past about 2^14 reach the cap)
        seq = parse_sequence_spec(spec, j_cut=j_cut)
        want = [big_N(seq, 2.0**j)[0] for j in range(1, 31)]
        assert profile_big_n(seq, 30).tolist() == want
        # the term-by-term sup of the partial sums of ln t - ln t_k is the
        # reference; the one pass sums in another order
        for j, got in zip(range(1, 17), want):
            lead = np.cumsum(j * math.log(2.0) - np.log(seq.terms(1, min(j_cut, 2 ** (j + 6)))))
            assert got == pytest.approx(max(0.0, lead.max()), rel=1e-12, abs=1e-12)
        counts = [float(seq.count_leq(2.0**j)) for j in range(1, 31)]
        assert profile_n(seq, 30).tolist() == counts


class TestPositivePartDiff:
    def test_matches_dyadic_multiplicities(self):
        from weightlab import dyadic_multiplicities

        seq = parse_sequence_spec("powlog:a=1,b=2")
        p = profile_n(seq, 30)
        b = np.maximum(np.diff(p), 0.0)
        mult = dyadic_multiplicities(seq, 30)
        # (n(2^{j+1}) - n(2^j))^+ = multiplicity at level j+1
        assert list(b) == [float(v) for v in mult.n[1:30]]


class TestOmegaSix:
    def test_geometric_all_certified_and_equivalent(self):
        rep = msnq_omega_conditions(parse_sequence_spec("geometric:r=2"), 30)
        verdicts = {k: d.verdict for k, d in rep["diagnostics"].items()}
        assert set(verdicts.values()) == {VERDICT_CONV}
        assert rep["verdicts_agree_all_six"]

    def test_powlog_failing_family_agrees(self):
        rep = msnq_omega_conditions(parse_sequence_spec("powlog:a=1,b=2"), 20)
        assert rep["diagnostics"]["i"].verdict == VERDICT_DIV
        assert rep["verdicts_agree_i_to_iv"]

    def test_index_series_past_j_cut(self):
        # k_max past j_cut: the zeros past j_cut are read from the sequence,
        # finite, with the sums of a pass that streams every zero
        seq = parse_sequence_spec("power:a=2", j_cut=1_000)
        k = 5_000
        diags = msnq_omega_conditions(seq, 12, k_max=k)["diagnostics"]
        tj, jj = seq.terms(1, k), np.arange(1.0, k + 1)
        at = np.array(_record_points(k)) - 1
        for cond in ("i", "v", "vi"):
            want = np.cumsum(index_terms(cond, tj, jj))[at]
            assert np.array_equal(diags[cond].partial_sums, want), cond
            assert want[-1] > want[np.searchsorted(at, 999)]

    def test_powlog_a3_msnq_certified(self):
        rep = msnq_omega_conditions(parse_sequence_spec("powlog:a=3,b=0"), 20)
        assert rep["diagnostics"]["i"].verdict == VERDICT_CONV
        assert rep["verdicts_agree_i_to_iv"]


class TestCriteria2:
    def test_geometric_all_certified(self):
        rep = criteria2_report(parse_sequence_spec("geometric:r=2"), 2000)
        assert all(d.verdict == VERDICT_CONV for d in rep["diagnostics"].values())
        assert rep["verdicts_agree"]

    def test_powlog_loglog_divergent(self):
        rep = criteria2_report(parse_sequence_spec("powlog:a=1,b=2"), 20_000)
        assert rep["diagnostics"]["loglog_j"].verdict == VERDICT_DIV

    def test_known_convergence_is_not_overruled_by_a_trend(self):
        # sum lnln(j)/r^j converges for every r > 1, but at r = 1 + 1e-7 the
        # terms barely decay over j <= 20,000, so the partial sums grow
        # while no finite tail bound can be formed
        rep = criteria2_report(parse_sequence_spec("geometric:r=1.0000001"), 20_000)
        for d in rep["diagnostics"].values():
            assert d.verdict == VERDICT_INC
            assert d.certificate.startswith("converges analytically")

    def test_explicit_three_zeros_finite(self):
        rep = criteria2_report(parse_sequence_spec("explicit:[0.9,2,4]"), 10)
        assert all(d.verdict == VERDICT_CONV for d in rep["diagnostics"].values())

    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2",
                                      "powlog:a=3,b=0", "explicit:[0.5,0.6,4,9,9,30]"])
    def test_same_index_series_as_omega6(self, spec):
        # both reports read one pass over the same zeros; 70,000 terms
        # cross a 2^16-term chunk boundary
        seq = parse_sequence_spec(spec)
        k = 70_000
        six = msnq_omega_conditions(seq, 20, k_max=k)["diagnostics"]
        three = criteria2_report(seq, k)["diagnostics"]
        for name, cond in (("logratio", "i"), ("loglog_j", "v"), ("loglog_t", "vi")):
            assert three[name].to_dict() == six[cond].to_dict(), (spec, cond)
            assert np.array_equal(three[name].partial_sums, six[cond].partial_sums)


class TestIntegralCrossCheck:
    def test_constant_closed_form(self):
        grid = np.linspace(1.0, 100.0, 4000)
        f = SampledFunction(grid, np.full_like(grid, 3.0))
        rep = integral_cross_check(f, "nqa")
        # trapezoid slightly overestimates the convex integrand
        assert rep["integral"] == pytest.approx(3.0 * (1 - 1 / 100.0), rel=1e-3)

    def test_log_weight_within_factor_four(self):
        seq = parse_sequence_spec("geometric:r=2")
        w = WeightEvaluator(seq)
        grid = log_grid(1.0, 2.0**20, 3000)
        vals = np.array([w.eval_log_abs_omega(float(t))[0] for t in grid])
        f = SampledFunction(grid, np.maximum(vals, 1e-12))
        for kind in ("nqa", "msnq", "loglog"):
            rep = integral_cross_check(f, kind)
            assert rep["grid_ok"], (kind, rep)

    def test_beta_trace_certified(self):
        # beta(t) = t/(ln t)^2 on [e^2, T]: admissible
        grid = log_grid(math.e**2, 2.0**24, 2000)
        f = SampledFunction(grid, grid / np.log(grid) ** 2)
        rep = integral_cross_check(f, "nqa")
        assert rep["grid_ok"]

    def test_rejects_nonpositive(self):
        grid = np.linspace(1.0, 10.0, 50)
        with pytest.raises(ValueError):
            integral_cross_check(SampledFunction(grid, np.zeros_like(grid)), "nqa")

    def test_verdict_matches_dyadic_series(self):
        # the verdict is the dyadic diagnostic's; the quadrature on the
        # same profile confirms its grid
        seq = parse_sequence_spec("geometric:r=2")
        tail = seq.family.dyadic_nqa_tail("lnw", 20)
        dyadic = nqa_series(profile_log_omega(seq, 20), tail=tail)
        w = WeightEvaluator(seq)
        grid = log_grid(1.0, 2.0**20, 2000)
        vals = np.array([w.eval_log_abs_omega(float(t))[0] for t in grid])
        f = SampledFunction(grid, np.maximum(vals, 1e-12))
        rep = integral_cross_check(f, "nqa")
        assert dyadic.verdict == VERDICT_CONV
        assert rep["grid_ok"]


class TestPermanence:
    def test_verdict_monotone_in_length(self):
        # enlarging J never downgrades convergent-certified
        seq = parse_sequence_spec("geometric:r=2")
        for J in (10, 20, 40):
            assert msnq_n_profile(seq, J).verdict == VERDICT_CONV


# Sources on both sides of the dichotomy: powlog a=1 diverges for b <= 2 and
# converges past it; every other spec converges.  Inconclusive verdicts are
# allowed (iii/iv at b = 2.5 and 3 and ii at power a=1.01 have no tail yet).
SWEEP = [("powlog:a=1,b=1.5", True), ("powlog:a=1,b=2", True),
         ("powlog:a=1,b=2.5", False), ("powlog:a=1,b=3", False),
         ("powlog:a=1.01,b=0", False), ("powlog:a=2,b=0", False),
         ("power:a=1.01", False), ("power:a=1.5", False), ("power:a=2", False),
         ("geometric:r=1.01", False), ("geometric:r=2", False),
         ("explicit:[1,2,3]", False)]


class TestVerdictsFromCertificates:
    @pytest.mark.parametrize("spec,diverges", SWEEP)
    def test_every_verdict_is_certified_and_on_the_known_side(self, spec, diverges):
        seq = parse_sequence_spec(spec)
        diags = list(msnq_omega_conditions(seq, 25)["diagnostics"].values())
        diags += criteria2_report(seq, 2000)["diagnostics"].values()
        for d in diags:
            if d.verdict == VERDICT_DIV:
                assert d.certificate, d.condition
            if d.verdict == VERDICT_CONV:
                assert d.tail_bound is not None and math.isfinite(d.tail_bound), d.condition
            wrong = VERDICT_CONV if diverges else VERDICT_DIV
            assert d.verdict != wrong, d.condition
