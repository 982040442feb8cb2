import math

import numpy as np
import pytest

from weightlab import (
    DyadicProfile,
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
from weightlab.criteria import VERDICT_CONV, VERDICT_DIV, VERDICT_INC


def profile_from_callable(fn, j_min, j_max, from_increasing=True):
    """A dyadic profile a_j = fn(2^j) for j = j_min..j_max."""
    vals = [float(fn(2.0**j)) for j in range(j_min, j_max + 1)]
    return DyadicProfile(
        j_min=j_min, values=np.array(vals), source="callable",
        from_increasing=from_increasing,
    )


def plain_profile(values):
    return DyadicProfile(j_min=1, values=np.array(values, float), from_increasing=True)


class TestNqaSeries:
    def test_linear_profile_sums_to_two(self):
        # a_j = j: sum j/2^j = 2; family tail certifies
        geo = parse_sequence_spec("geometric:r=2")
        p = profile_n(geo, 40)
        d = nqa_series(p)
        assert d.verdict == VERDICT_CONV
        assert d.partial_sums[-1] <= 2.0 <= d.partial_sums[-1] + d.tail_bound
        assert d.partial_sums[-1] == pytest.approx(2.0, abs=1e-9)

    def test_constant_terms_divergent_trend(self):
        # a_j = 2^j gives terms identically 1
        p = profile_from_callable(lambda t: t, 1, 40, from_increasing=True)
        d = nqa_series(p)
        assert d.verdict == VERDICT_DIV
        assert d.partial_sums[-1] > d.threshold_used > 0

    def test_zero_profile_certified_with_tail(self):
        p = plain_profile([0.0] * 10)
        d = nqa_series(p, tail=0.0)
        assert d.verdict == VERDICT_CONV
        assert np.all(d.partial_sums == 0.0)

    def test_partial_sums_nondecreasing(self):
        p = profile_n(parse_sequence_spec("powlog:a=1,b=2"), 30)
        for series in (nqa_series(p), msnq_series(p)):
            assert np.all(np.diff(series.partial_sums) >= -1e-15)


class TestMsnqSeries:
    def test_powlog_failing_family(self):
        p = profile_n(parse_sequence_spec("powlog:a=1,b=2"), 60)
        d = msnq_series(p)
        assert d.verdict == VERDICT_DIV
        assert d.certificate is not None

    def test_powlog_a3_certified(self):
        p = profile_n(parse_sequence_spec("powlog:a=3,b=0"), 40)
        d = msnq_series(p)
        assert d.verdict == VERDICT_CONV
        assert d.tail_bound is not None and math.isfinite(d.tail_bound)

    def test_zero_profile(self):
        p = plain_profile([0.0] * 8)
        d = msnq_series(p, tail=0.0)
        assert d.verdict == VERDICT_CONV
        assert np.all(d.partial_sums == 0.0)

    def test_onset_skips_oversized_values(self):
        # a_j = 2^(j+2) exceeds 2^j everywhere: no onset, inconclusive
        p = profile_from_callable(lambda t: 4.0 * t, 1, 12, from_increasing=True)
        d = msnq_series(p)
        assert d.verdict == VERDICT_INC
        assert d.skipped_terms > 0

    def test_needs_increasing_flag(self):
        p = DyadicProfile(j_min=1, values=np.array([1.0, 2.0]), from_increasing=False)
        with pytest.raises(ValueError):
            msnq_series(p)


class TestProfiles:
    @pytest.mark.parametrize("j_cut", [500_000, 1000])
    @pytest.mark.parametrize("spec", ["geometric:r=2", "power:a=2", "powlog:a=1,b=2"])
    def test_one_pass_profiles_equal_their_levels(self, spec, j_cut):
        # the profiles count and sum every level in one pass; each level
        # is bit for bit the value of its own one-point call (at
        # j_cut = 1000 the levels past about 2^14 reach the cap)
        seq = parse_sequence_spec(spec, j_cut=j_cut)
        want = [big_N(seq, 2.0**j)[0] for j in range(1, 31)]
        assert profile_big_n(seq, 30).values.tolist() == want
        # the term-by-term sup of the partial sums of ln t - ln t_k is the
        # reference; the one pass sums in another order
        for j, got in zip(range(1, 17), want):
            lead = np.cumsum(j * math.log(2.0) - np.log(seq.terms(1, min(j_cut, 2 ** (j + 6)))))
            assert got == pytest.approx(max(0.0, lead.max()), rel=1e-12, abs=1e-12)
        counts = [float(seq.count_leq(2.0**j)) for j in range(1, 31)]
        assert profile_n(seq, 30).values.tolist() == counts


class TestPositivePartDiff:
    def test_matches_dyadic_multiplicities(self):
        from weightlab import dyadic_multiplicities

        seq = parse_sequence_spec("powlog:a=1,b=2")
        p = profile_n(seq, 30)
        b = np.maximum(np.diff(p.values), 0.0)
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
        # terms barely decay over j <= 20,000, so the partial sums pass the
        # trend threshold while no finite tail bound can be formed
        rep = criteria2_report(parse_sequence_spec("geometric:r=1.0000001"), 20_000)
        for d in rep["diagnostics"].values():
            assert d.verdict == VERDICT_INC
            assert d.certificate.startswith("converges analytically")
        loglog = rep["diagnostics"]["loglog_j"]
        assert loglog.partial_sums[-1] > loglog.threshold_used > 0.0

    def test_explicit_three_zeros_finite(self):
        rep = criteria2_report(parse_sequence_spec("explicit:[0.9,2,4]"), 10)
        assert all(d.verdict == VERDICT_CONV for d in rep["diagnostics"].values())


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
        # beta(t) = t/(ln t)^2 on [e^2, T]: admissible; tail supplied
        grid = log_grid(math.e**2, 2.0**24, 2000)
        f = SampledFunction(grid, grid / np.log(grid) ** 2)
        rep = integral_cross_check(f, "nqa", tail=1.0 / (math.log(2.0) ** 2 * 24))
        assert rep["verdict"] == VERDICT_CONV
        assert rep["grid_ok"]

    def test_rejects_nonpositive(self):
        grid = np.linspace(1.0, 10.0, 50)
        with pytest.raises(ValueError):
            integral_cross_check(SampledFunction(grid, np.zeros_like(grid)), "nqa")

    def test_verdict_matches_dyadic_series(self):
        # with the family tail supplied, the quadrature verdict agrees with
        # the dyadic diagnostic on the same profile
        seq = parse_sequence_spec("geometric:r=2")
        p = profile_log_omega(seq, 20)
        dyadic = nqa_series(p)
        w = WeightEvaluator(seq)
        grid = log_grid(1.0, 2.0**20, 2000)
        vals = np.array([w.eval_log_abs_omega(float(t))[0] for t in grid])
        f = SampledFunction(grid, np.maximum(vals, 1e-12))
        rep = integral_cross_check(f, "nqa", tail=p.certs.nqa_tail(20))
        assert rep["verdict"] == dyadic.verdict == VERDICT_CONV
        assert rep["grid_ok"]


class TestPermanence:
    def test_verdict_monotone_in_length(self):
        # enlarging J never downgrades convergent-certified
        seq = parse_sequence_spec("geometric:r=2")
        for J in (10, 20, 40):
            assert msnq_series(profile_n(seq, J)).verdict == VERDICT_CONV
