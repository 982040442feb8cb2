"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from weightlab import (
    BetaMajorant,
    ConcaveSeriesMajorant,
    CounterexampleModel,
    RationalSeq,
    WeightEvaluator,
    ZeroSequence,
    coeff_table,
    contradiction_experiment,
    dyadic_multiplicities,
    inf_sup_identity,
    lambda_search,
    log_convexity_check,
    log_grid,
    modulus_bound_check,
    msnq_omega_conditions,
    nqa_series,
    parse_sequence_spec,
    s_k_nonneg_sweep,
    s_k_value,
    sandwich_check,
    scaling_inequality_check,
    schwarz_bound_check,
    shipped_beta_family,
    step_counterexample,
    step_dyadic_tail,
)
from weightlab.coeffs import log_convexity_margins
from weightlab.criteria import (
    VERDICT_CONV,
    VERDICT_DIV,
    integral_cross_check,
)
from weightlab.majorants import beta_dyadic_nqa_tail, step_threshold_probe
from weightlab.sampling import SampledFunction


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


FAMILIES = ("geometric:r=2", "powlog:a=1,b=2", "power:a=2")


def test_criterion_1_exact_combinatorics():
    t0 = time.monotonic()
    sweep = s_k_nonneg_sweep(trials=100, k_max=25, rng_seed=1)
    ok = sweep["passed"]

    c = RationalSeq(tuple(Fraction(9, 10) ** i for i in range(27)))
    ok &= s_k_value(c, 1) == 0
    # closed form S_2 = (1/2) c1^2 c2 (c2 - c3), verified in exact
    # arithmetic (two independent expansions of the same quantity)
    v = c.c
    ok &= s_k_value(c, 2) == Fraction(1, 2) * v[0] ** 2 * v[1] * (v[1] - v[2])
    c_eq = RationalSeq((Fraction(5, 3),) * 27)
    ok &= all(s_k_value(c_eq, k) == 0 for k in range(1, 26))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(1, ok, f"sweep {sweep['checked']} exact checks, 0 violations, "
                  f"closed forms exact, {elapsed:.1f}s < 30s")


def test_criterion_2_coefficient_laws():
    t0 = time.monotonic()
    worst_conv = math.inf
    worst_infsup = 0.0
    sandwich_fail = 0
    points = 0
    for spec in FAMILIES:
        seq = parse_sequence_spec(spec)
        w = WeightEvaluator(seq)
        cache = {}
        for n in (1, 2, 3):
            tab = coeff_table(seq, n, 40)
            conv = log_convexity_check(tab)
            assert conv.passed, (spec, n)
            worst_conv = min(worst_conv, conv.worst_margin)
            for t in log_grid(0.1, 1e6, 50):
                rep = sandwich_check(seq, n, float(t), w, tab, big_table_cache=cache)
                points += 1
                if not rep.passed:
                    sandwich_fail += 1
            if n == 1:
                for r in inf_sup_identity(tab, range(1, 21)):
                    worst_infsup = max(worst_infsup, r.rel_error)
                    assert r.rel_error < 1e-4, (spec, r.k, r.rel_error)
    elapsed = time.monotonic() - t0
    ok = sandwich_fail == 0 and worst_infsup < 1e-4 and elapsed < 60.0
    report(2, ok, f"log-convexity ok (worst margin {worst_conv:.2e}), sandwich "
                  f"{points} pts 0 fail, inf/sup worst rel {worst_infsup:.2e}, "
                  f"{elapsed:.1f}s < 60s")


def test_criterion_3_modulus_and_scaling():
    viol = 0
    for spec in FAMILIES:
        seq = parse_sequence_spec(spec)
        fast = ZeroSequence(seq.family, j_cut=60_000)
        w = WeightEvaluator(fast, tol=1e-6)
        rep = modulus_bound_check(w, samples=1000, rng_seed=17, radius=1e3)
        viol += rep.details["violations"]
        for L in (1.0, 2.0, 3.0):
            rep = scaling_inequality_check(w, L, samples=50, t_lo=1.0, t_hi=1e4)
            viol += rep.details["violations"]
    report(3, viol == 0, f"modulus bound 3000 random z + scaling 450 points, "
                         f"{viol} violations")


def test_criterion_4_classification_concordance():
    geo = msnq_omega_conditions(parse_sequence_spec("geometric:r=2"), 30)
    ok = all(d.verdict == VERDICT_CONV for d in geo["diagnostics"].values())
    ok &= geo["verdicts_agree_all_six"]

    pl = msnq_omega_conditions(parse_sequence_spec("powlog:a=1,b=2"), 25)
    ok &= pl["diagnostics"]["i"].verdict == VERDICT_DIV
    ok &= pl["verdicts_agree_i_to_iv"]

    pl3 = msnq_omega_conditions(parse_sequence_spec("powlog:a=3,b=0"), 25)
    ok &= pl3["diagnostics"]["i"].verdict == VERDICT_CONV

    ratios = []
    for spec, kinds in (("geometric:r=2", ("nqa", "msnq", "loglog")),
                        ("powlog:a=1,b=2", ("nqa",))):
        seq = parse_sequence_spec(spec)
        w = WeightEvaluator(ZeroSequence(seq.family, j_cut=200_000), tol=1e-9)
        grid = log_grid(1.0, 2.0**20, 2500)
        vals = np.array([w.eval_log_abs_omega(float(t))[0] for t in grid])
        f = SampledFunction(grid, np.maximum(vals, 1e-12))
        for kind in kinds:
            rep = integral_cross_check(f, kind)
            ratios.append(rep["ratio"])
            ok &= rep["grid_ok"]
    report(4, ok, f"geometric all-six certified+equivalent; powlog(1,2) "
                  f"divergent with i-iv agreement; powlog(3,0) certified; "
                  f"integral/dyadic ratios {['%.2f' % r for r in ratios]} in [1/4,4]")


def test_criterion_5_counterexample_realization():
    t0 = time.monotonic()
    seq = parse_sequence_spec("powlog:a=1,b=2")
    model = CounterexampleModel(dyadic_multiplicities(seq, 60))
    ok = True
    details = []
    for beta in shipped_beta_family():
        rep = contradiction_experiment(model, beta, scan_density=512)
        ok &= rep.witness_index is not None and rep.witness_index <= 60
        ok &= rep.schwarz_violations == 0
        details.append(f"{beta.name}:J*={rep.witness_index}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(5, ok, f"witnesses {details}, schwarz cross-check clean, "
                  f"{elapsed:.1f}s < 120s")


def test_criterion_6_schwarz_bound():
    seq = parse_sequence_spec("powlog:a=1,b=2")
    model = CounterexampleModel(dyadic_multiplicities(seq, 40))
    viol = 0
    for j in (5, 10, 15):
        for delta in (0.5, 0.1):
            rep = schwarz_bound_check(model, j, delta, samples=200, rng_seed=23)
            viol += rep.details["violations"]
    # closed-form single factor: bound ln(5/2) vs max ln(5/4)
    from weightlab import MultiplicityProfile, minmod_sup

    single = CounterexampleModel(MultiplicityProfile(1, [1], "explicit:[2]"))
    rhs = 2.0 * float(single.ln_w0_dyadic(2)) + math.log(0.5)
    ok = abs(rhs - math.log(2.5)) < 1e-10
    # max of ln|f| on the circle |z-2|=1 is attained on the real axis at 3
    lhs = minmod_sup(single, 2.0, 1.0, scan_density=4001)
    ok &= abs(lhs - math.log(1.25)) < 1e-10
    ok &= viol == 0
    report(6, ok, f"grid j in (5,10,15) x delta (0.5,0.1): {viol} violations; "
                  f"closed form |{rhs - math.log(2.5):.1e}|, |{lhs - math.log(1.25):.1e}| < 1e-10")


def test_criterion_7_majorant_chain():
    seq = parse_sequence_spec("geometric:r=2")
    assert seq.omega0_flag
    m = ConcaveSeriesMajorant(seq)
    w = WeightEvaluator(seq, tol=1e-12)
    lam = lambda_search(m.eval, 1.0, 1e6)
    bm = BetaMajorant(alpha=m.eval, lam=lam, tail_terms=12)

    grid = log_grid(1.0, 1e6, 200)
    chain_ok = True
    alpha_vals = []
    for t in grid:
        t = float(t)
        lv, lerr = w.eval_log_abs_omega(t)
        av, aerr = m.eval(t)
        bv, _ = bm.eval(t)
        chain_ok &= lv <= av + 1e-12 and av + aerr < bv
        alpha_vals.append(av)
    alpha_vals = np.array(alpha_vals)
    worst_concavity = 0.0
    for i in range(len(grid) - 2):
        t0, t1, t2 = grid[i : i + 3]
        lam_c = (t2 - t1) / (t2 - t0)
        viol = (lam_c * alpha_vals[i] + (1 - lam_c) * alpha_vals[i + 2]
                - alpha_vals[i + 1]) / abs(alpha_vals[i + 1])
        worst_concavity = max(worst_concavity, viol)
    conc_ok = worst_concavity <= 1e-9

    beta_profile = np.array([bm.eval(2.0**j)[0] for j in range(1, 41)])
    diag = nqa_series(beta_profile, tail=beta_dyadic_nqa_tail(seq, lam, 40))
    ok = chain_ok and conc_ok and diag.verdict == VERDICT_CONV
    ok &= bool(np.all(np.diff(beta_profile) >= 0))
    report(7, ok, f"ln|w| <= alpha < beta at 200 pts; worst relative concavity "
                  f"violation {worst_concavity:.2e} <= 1e-9; beta dyadic nqa "
                  f"{diag.verdict} (tail {diag.tail_bound:.3g})")


def test_criterion_8_negative_controls():
    st_fn = step_counterexample(6)
    probe = step_threshold_probe(st_fn)
    ok = probe["all_exactly_one"]
    vals = np.array([st_fn.value(2.0**j) for j in range(1, 61)])
    diag = nqa_series(vals, tail=step_dyadic_tail(st_fn, 60))
    ok &= diag.verdict == VERDICT_CONV and bool(np.all(np.diff(vals) >= 0))
    report(8, ok, f"f(t_k) ln t_k / t_k = {probe['products']} exactly 1 while "
                  f"dyadic nqa {diag.verdict}")


def test_criterion_9_determinism(tmp_path):
    from weightlab.cli import main as cli_main
    import contextlib
    import io

    commands = [
        ["weight", "eval", "--seq", "powlog:a=1,b=2", "--grid", "1:1e4:16"],
        ["weight", "coeffs", "--seq", "geometric:r=2", "--n", "2", "--K", "12"],
        ["weight", "checks", "--seq", "power:a=2", "--samples", "60", "--seed", "5"],
        ["criteria", "classify", "--seq", "powlog:a=3,b=0", "--k-max", "2000"],
        ["criteria", "omega6", "--seq", "geometric:r=2", "--J", "15"],
        ["majorant", "alpha", "--seq", "geometric:r=2", "--grid", "1:1e5:24"],
        ["majorant", "beta", "--seq", "geometric:r=2", "--grid", "1:1e5:24"],
        ["majorant", "sk-sweep", "--trials", "10", "--k-max", "10", "--seed", "2"],
        ["majorant", "step"],
        ["cx", "build", "--seq", "powlog:a=1,b=2", "--j-max", "30"],
        ["cx", "dominate", "--seq", "powlog:a=1,b=2", "--j-max", "25",
         "--samples", "100", "--seed", "6", "--radius", "100"],
        ["cx", "schwarz", "--seq", "powlog:a=1,b=2", "--j-max", "25",
         "--j", "5", "--j", "10", "--delta", "0.5", "--samples", "60", "--seed", "8"],
        ["cx", "contradict", "--seq", "powlog:a=1,b=2", "--j-max", "30",
         "--beta", "const:0.001", "--scan-density", "128"],
        ["cx", "scan", "--seq", "powlog:a=1,b=2", "--j-max", "20",
         "--rho", "geometric:r=2", "--t-grid", "2:256:6"],
    ]
    all_ok = True
    for i, cmd in enumerate(commands):
        blobs = []
        for run in (0, 1):
            jpath = tmp_path / f"{i}_{run}.json"
            cpath = tmp_path / f"{i}_{run}.csv"
            argv = cmd + ["--json", str(jpath)]
            if cmd[1] == "contradict":
                argv += ["--csv", str(cpath)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            assert code in (0, 1), (cmd, code)
            blob = jpath.read_bytes()
            if cpath.exists():
                blob += cpath.read_bytes()
            blobs.append(blob)
        all_ok &= blobs[0] == blobs[1]
    report(9, all_ok, f"{len(commands)} commands re-run byte-identical")
