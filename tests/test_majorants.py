import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weightlab import (
    BetaMajorant,
    ConcaveSeriesMajorant,
    KEvalError,
    LambdaDomainError,
    RationalSeq,
    WeightEvaluator,
    ZeroSequence,
    ExplicitFamily,
    c_k_value,
    lambda_search,
    log_grid,
    parse_sequence_spec,
    s_k_nonneg_sweep,
    s_k_value,
    step_counterexample,
    step_dyadic_tail,
)
import weightlab.majorants as majorants
from weightlab.majorants import c_k_direct, step_threshold_probe
from weightlab.sequences import ZERO_CHUNK
from weightlab.weights import CheckReport


# -- reference: the combinatorial core in Fraction arithmetic, prefix
# products and p-loops straight from the definitions of S_k and C_k

def _ref_prefix_products(c, upto):
    prods = [Fraction(1)]
    for j in range(upto):
        prods.append(prods[-1] * c[j])
    return prods  # prods[m] = prod_{j<=m} c_j


def ref_s_k(c, k):
    prods = _ref_prefix_products(c, k + 2)
    total = Fraction(0)
    for p in range(1, k + 1):
        q = k - p
        coeff = Fraction(1, math.factorial(p) * math.factorial(q)) - Fraction(
            1, math.factorial(p - 1) * math.factorial(q + 1)
        )
        total += coeff * prods[p + 1] * prods[q + 1]
    return total


def ref_c_k(c, k, s_k):
    prods = _ref_prefix_products(c, k + 1)
    return Fraction(1, math.factorial(k)) * (c[0] - c[k + 1]) * prods[k + 1] + s_k


def ref_c_k_direct(c, k):
    prods = _ref_prefix_products(c, k + 2)
    total = Fraction(0)
    for p in range(0, k + 1):
        q = k - p
        w = Fraction(1, math.factorial(p) * math.factorial(q))
        total += w * (prods[p + 1] * prods[q + 1] - prods[p + 2] * prods[q])
    return total


def ref_sweep(trials, k_max, rng_seed):
    factors = (Fraction(1), Fraction(9, 10), Fraction(3, 4), Fraction(1, 2))
    rng = random.Random(rng_seed)
    violations = []
    samples = []
    checked = 0
    for trial in range(trials):
        length = k_max + 2
        start = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        vals = [start]
        for _ in range(length - 1):
            vals.append(vals[-1] * rng.choice(factors))
        c = RationalSeq(tuple(vals)).c
        for k in range(1, k_max + 1):
            s = ref_s_k(c, k)
            ck = ref_c_k(c, k, s)
            checked += 1
            if trial == 0 and k <= 4:
                samples.append({"k": k, "S_k": str(s), "C_k": str(ck)})
            if s < 0:
                violations.append({"trial": trial, "k": k, "kind": "S", "value": str(s)})
            if ck < 0:
                violations.append({"trial": trial, "k": k, "kind": "C", "value": str(ck)})
            if ck != ref_c_k_direct(c, k):
                violations.append({"trial": trial, "k": k, "kind": "C-mismatch"})
    return {
        "trials": trials,
        "k_max": k_max,
        "rng_seed": rng_seed,
        "checked": checked,
        "first_trial_samples": samples,
        "violations": violations,
        "passed": not violations,
    }


def composite_monotonicity_check(alpha_vals, gamma_vals, grid):
    """t -> alpha ln(gamma/alpha) is nondecreasing when alpha, gamma are
    increasing and gamma/alpha >= e on the grid."""
    if np.any(gamma_vals / alpha_vals < math.e * (1 - 1e-12)):
        raise ValueError("needs gamma/alpha >= e on the grid")
    comp = alpha_vals * np.log(gamma_vals / alpha_vals)
    diffs = np.diff(comp)
    worst = float(np.min(diffs)) if len(diffs) else 0.0
    return CheckReport(
        name="composite-product-monotone",
        passed=bool(np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(comp[:-1])))),
        worst_margin=worst,
        details={"points": len(grid)},
    )


def second_divided_differences(grid, values):
    """f[t0,t1,t2] on consecutive triples; <= 0 for concave functions."""
    out = []
    for i in range(len(grid) - 2):
        t0, t1, t2 = grid[i : i + 3]
        f0, f1, f2 = values[i : i + 3]
        d01 = (f1 - f0) / (t1 - t0)
        d12 = (f2 - f1) / (t2 - t1)
        out.append((d12 - d01) / (t2 - t0))
    return np.array(out)


class TestRationalSeq:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            RationalSeq((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RationalSeq((1, 0))


class TestCombinatorialCore:
    def test_s1_vanishes(self):
        for c in (RationalSeq((2, 1, 1)), RationalSeq((7, 3, 2))):
            assert s_k_value(c, 1) == 0

    def test_s2_closed_form(self):
        # S_2 = (1/2) c1^2 c2 (c2 - c3)
        c = RationalSeq((2, 2, 1, 1))
        assert s_k_value(c, 2) == Fraction(1, 2) * 4 * 2 * (2 - 1)
        c = RationalSeq((2, 1, 1, 1))
        assert s_k_value(c, 2) == 0

    def test_s3_s4_closed_forms(self):
        c = RationalSeq((5, 4, 3, 2, 1, Fraction(1, 2), Fraction(1, 3)))
        v = c.c
        assert s_k_value(c, 3) == Fraction(1, 3) * v[0] ** 2 * v[1] * v[2] * (v[1] - v[3])
        expect4 = Fraction(1, 8) * v[0] ** 2 * v[1] * v[2] * v[3] * (v[1] - v[4]) + Fraction(
            1, 12
        ) * v[0] ** 2 * v[1] ** 2 * v[2] * (v[2] - v[3])
        assert s_k_value(c, 4) == expect4

    def test_all_equal_telescopes_to_zero(self):
        c = RationalSeq((Fraction(3, 7),) * 30)
        assert all(s_k_value(c, k) == 0 for k in range(1, 26))

    def test_strictly_decreasing_head_term(self):
        # C_0-analogue: c1(c1 - c2) > 0 for strictly decreasing input
        c = RationalSeq((3, 1, 1))
        assert c_k_direct(c, 0) == Fraction(3) * (3 - 1)

    def test_c_k_recombination_matches_direct(self):
        c = RationalSeq((4, 3, Fraction(5, 2), 2, 1, 1, Fraction(1, 2)))
        for k in range(1, 6):
            assert c_k_value(c, k) == c_k_direct(c, k)

    def test_insufficient_length(self):
        with pytest.raises(ValueError):
            s_k_value(RationalSeq((2, 1)), 1)  # needs k+2 = 3 entries

    @given(
        st.lists(
            st.sampled_from([Fraction(1), Fraction(9, 10), Fraction(3, 4), Fraction(1, 2)]),
            min_size=6,
            max_size=14,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_s_k_nonnegative_random(self, factors):
        vals = [Fraction(2)]
        for f in factors:
            vals.append(vals[-1] * f)
        c = RationalSeq(tuple(vals))
        for k in range(1, len(vals) - 1):
            assert s_k_value(c, k) >= 0
            assert c_k_value(c, k) >= 0

    def test_paired_s_k_matches_the_unpaired_sum(self):
        # _s_num pairs the terms p and k+1-p of the S_k numerator; the plain
        # sum over p = 1..k agrees on 200 random sweep sequences, k <= 60
        rng = random.Random(23)
        for _ in range(200):
            vals = [Fraction(rng.randint(1, 8), rng.randint(1, 4))]
            for _ in range(61):
                vals.append(vals[-1] * rng.choice(majorants._SWEEP_FACTORS))
            _, n, N = majorants._integer_form(RationalSeq(tuple(vals)), 60)
            for k in range(1, 61):
                unpaired = sum(math.comb(k + 1, p) * (k + 1 - 2 * p) * N[p + 1] * N[k + 1 - p]
                               for p in range(1, k + 1))
                assert majorants._s_num(n, majorants._product_row(N, k + 1), k) == unpaired, k

    def test_sweep(self):
        rep = s_k_nonneg_sweep(trials=20, k_max=12, rng_seed=7)
        assert rep["passed"]
        assert rep["checked"] == 20 * 12

    @given(
        st.lists(
            st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_form_matches_reference(self, vals):
        # arbitrary denominators, ties included, not only the sweep's factors
        c = RationalSeq(tuple(sorted(vals, reverse=True)))
        for k in range(0, len(c) - 1):
            assert c_k_direct(c, k) == ref_c_k_direct(c.c, k)
            if k >= 1:
                s = ref_s_k(c.c, k)
                assert s_k_value(c, k) == s
                assert c_k_value(c, k) == ref_c_k(c.c, k, s)


# criterion 9's command, the benchmark's certify inputs for a few seeds,
# the README's command and a long sequence
@pytest.mark.parametrize(
    "trials,k_max,seed",
    [(10, 10, 2), (40, 25, 1), (40, 25, 7), (40, 25, 123), (100, 25, 1), (3, 60, 5)],
)
def test_sweep_report_matches_reference(trials, k_max, seed):
    got = s_k_nonneg_sweep(trials=trials, k_max=k_max, rng_seed=seed)
    assert json.dumps(got) == json.dumps(ref_sweep(trials, k_max, seed))


class TestAlphaMajorant:
    def test_single_zero_closed_form(self):
        m = ConcaveSeriesMajorant(ZeroSequence(ExplicitFamily([1.0]), j_cut=5))
        v, err = m.eval(1.0)
        assert v == pytest.approx(math.log(3) + 2 * math.log(5), abs=1e-12)
        # finite product: exact, no tail
        assert err == 0.0

    def test_limit_at_zero(self):
        m = ConcaveSeriesMajorant(ZeroSequence(ExplicitFamily([1.0]), j_cut=5))
        v, _ = m.eval(1e-14)
        assert v == pytest.approx(math.log(3), abs=1e-10)

    def test_dominates_log_weight(self):
        seq = parse_sequence_spec("geometric:r=2")
        m = ConcaveSeriesMajorant(seq)
        w = WeightEvaluator(seq)
        for t in log_grid(0.5, 1e6, 40):
            lv, lerr = w.eval_log_abs_omega(float(t))
            av, _ = m.eval(float(t))
            assert lv <= av + 1e-12

    def test_concave_on_grid(self):
        seq = parse_sequence_spec("power:a=2")
        assert seq.omega0_flag
        m = ConcaveSeriesMajorant(seq)
        grid = log_grid(1.0, 1e5, 120)
        vals = np.array([m.eval(float(t))[0] for t in grid])
        for i in range(len(grid) - 2):
            t0, t1, t2 = grid[i : i + 3]
            lam = (t2 - t1) / (t2 - t0)
            chord = lam * vals[i] + (1 - lam) * vals[i + 2]
            assert chord <= vals[i + 1] + 1e-9 * abs(vals[i + 1])

    def test_cutoff_error(self):
        seq = parse_sequence_spec("powlog:a=1,b=2", j_cut=100)
        m = ConcaveSeriesMajorant(seq)
        with pytest.raises(KEvalError, match="--j-cut 100"):
            m.eval(1e6)

    def test_monotone(self):
        m = ConcaveSeriesMajorant(parse_sequence_spec("geometric:r=2"))
        vals = [m.eval(float(t))[0] for t in log_grid(0.1, 1e4, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "spec", ["powlog:a=1,b=2", "power:a=2", "geometric:r=2", "explicit:[0.5,1,3,3,40,1e4]"]
    )
    def test_value_does_not_depend_on_earlier_points(self, spec):
        # warmed in ascending order, in descending order and on one far
        # point first; on powlog, t = 1e6 reads past several ZERO_CHUNK pieces
        seq = parse_sequence_spec(spec)
        grid = [3.0, 3e3, 1e5, 1e6]
        fresh = {t: ConcaveSeriesMajorant(seq).eval(t) for t in grid + [3e6]}
        for order in (grid, grid[::-1], [3e6] + grid):
            warm = ConcaveSeriesMajorant(seq)
            assert [warm.eval(t) for t in order] == [fresh[t] for t in order], order
        if spec.startswith("powlog"):
            assert len(warm._cumlog) > 2 * ZERO_CHUNK


class TestBetaMajorant:
    def _setup(self, spec="geometric:r=2"):
        seq = parse_sequence_spec(spec)
        m = ConcaveSeriesMajorant(seq)
        lam = lambda_search(m.eval, 1.0, 1e6)
        return seq, m, BetaMajorant(alpha=m.eval, lam=lam, tail_terms=12)

    def test_beta_exceeds_alpha(self):
        _, m, bm = self._setup()
        for t in log_grid(1.0, 1e6, 50):
            av, aerr = m.eval(float(t))
            bv, _ = bm.eval(float(t))
            assert bv > av + aerr

    def test_lambda_witness_validates(self):
        seq, m, bm = self._setup("power:a=2")
        for t in log_grid(1.0, 1e6, 25):
            bm.eval(float(t))  # raises on domain violation

    def test_lambda_domain_error_names_witness(self):
        _, m, _ = self._setup()
        bad = BetaMajorant(alpha=m.eval, lam=1e6, tail_terms=4)
        with pytest.raises(LambdaDomainError) as exc:
            bad.eval(10.0)
        assert "admissible lam" in str(exc.value)

    def test_lambda_search_constant_alpha(self):
        # alpha == 1: lam = (1+t_lo)/(8e)/2 at the grid minimum
        lam = lambda_search(lambda t: (1.0, 0.0), 1.0, 100.0)
        assert lam == pytest.approx((1.0 + 1.0) / (8 * math.e) / 2.0, rel=1e-6)

    def test_inadmissible_growth_fails_downstream(self):
        # alpha(t) = t^2: the ratio (1+t)/alpha(2et) vanishes at infinity,
        # so a lambda fitted on [1, 100] fails validation far outside
        alpha = lambda t: (t * t, 0.0)
        lam = lambda_search(alpha, 1.0, 100.0)
        assert lam > 0
        bm = BetaMajorant(alpha=alpha, lam=lam, tail_terms=4)
        with pytest.raises(LambdaDomainError):
            bm.eval(1e6)

    def test_monotone_composite(self):
        # alpha ln(gamma/alpha) nondecreasing for increasing alpha, gamma
        grid = log_grid(1.0, 1e4, 64)
        alpha = np.log(1.0 + grid)
        gamma = math.e * (1.0 + grid) ** 0.5 * alpha
        rep = composite_monotonicity_check(alpha, gamma, grid)
        assert rep.passed

    def test_concave_composite(self):
        # concave, increasing alpha and gamma with gamma/alpha >= e keep
        # alpha ln(gamma/alpha) concave: second divided differences <= tol
        grid = log_grid(1.0, 1e4, 80)
        alpha = np.sqrt(grid)
        gamma = math.e * grid**0.7
        comp = alpha * np.log(gamma / alpha)
        sdd = second_divided_differences(grid, comp)
        assert np.all(sdd <= 1e-9 * np.maximum(1.0, np.abs(comp[:-2])))

    def test_powlog_lambda_on_wide_domain(self):
        # alpha(2e * 1e6) needs 500,158 inner-series terms, past the
        # default j_cut
        seq = parse_sequence_spec("powlog:a=1,b=2", j_cut=2_000_000)
        m = ConcaveSeriesMajorant(seq)
        lam = lambda_search(m.eval, 1.0, 1e6, samples=64)
        assert lam > 0
        # re-validation of the domain constraint across [1, 1e6]
        for t in log_grid(1.0, 1e6, 24):
            a2, a2e = m.eval(2.0 * math.e * float(t))
            assert (1.0 + float(t)) / (lam * (a2 + a2e)) > 8.0 * math.e
        # full companion evaluation on the part of the domain the inner
        # series cap supports
        bm = BetaMajorant(alpha=m.eval, lam=lam, tail_terms=4)
        for t in log_grid(1.0, 1e4, 8):
            bv, _ = bm.eval(float(t))
            assert bv > m.eval(float(t))[0]


class TestStepCounterexample:
    def test_thresholds_start_at_e(self):
        st_fn = step_counterexample(6)
        assert st_fn.log_thresholds[0] == 1.0
        with pytest.raises(ValueError):
            step_counterexample(0)

    def test_below_first_threshold(self):
        st_fn = step_counterexample(4)
        assert st_fn.value(2.0) == 0.0

    def test_products_exactly_one(self):
        probe = step_threshold_probe(step_counterexample(6))
        assert probe["all_exactly_one"]
        assert probe["does_not_decay"]

    def test_dyadic_tail_certificate(self):
        st_fn = step_counterexample(6)
        for J in (4, 10, 30):
            bound = step_dyadic_tail(st_fn, J)
            brute = sum(st_fn.value(2.0**j) / 2.0**j for j in range(J + 1, 90))
            assert bound >= brute
