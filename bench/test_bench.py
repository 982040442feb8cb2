"""Tests of the benchmark itself: references against hand-checked values,
checkers against corrupted outputs, tracer and driver plumbing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

wl = workloads.import_weightlab()


def contains(bracket, x, slack=0.0):
    return bracket[0] - slack <= x <= bracket[1] + slack


# ---------------------------------------------------------------------------
# references

def test_power_coefficients_start_with_zeta4():
    c = ref.power4_coeffs(2)
    with mp.workprec(200):
        assert c[0] == 1
        assert abs(c[1] - mp.pi**4 / 90) < mpf(10) ** -55                  # zeta(4)
        assert abs(c[2] - (mp.zeta(4) ** 2 - mp.zeta(8)) / 2) < mpf(10) ** -55  # e_2(1/j^4)


def test_qbinomial_single_factor_and_euler_limit():
    assert ref.qbinomial_coeffs(0.25, 3, N=1) == [1, 0.25, 0, 0]       # 1 + u q
    assert ref.qbinomial_coeffs(0.5, 3, N=2) == [1, 0.75, 0.125, 0]    # (1 + u/2)(1 + u/4)
    euler = ref.qbinomial_coeffs(0.25, 2)
    with mp.workprec(200):
        assert abs(euler[1] - mpf(1) / 3) < mpf(10) ** -55              # sum 4^-j


def test_exact_log_a_squares_the_base_series():
    spec = ref.parse_spec("power:a=2")
    one, two = ref.exact_log_a(spec, 1, 3), ref.exact_log_a(spec, 2, 3)
    with mp.workprec(200):
        assert abs(2 * one[1] - mp.log(mp.pi**4 / 90)) < mpf(10) ** -50
        assert abs(2 * two[1] - mp.log(2 * mp.pi**4 / 90)) < mpf(10) ** -50  # [u^1] P^2 = 2 c_1


def test_real_references_match_independent_closed_forms():
    refs = ref.References()
    # one zero: ln|w(3)| = (1/2) ln(1 + 9/16) = ln(5/4)
    assert contains(refs.real(ref.parse_spec("explicit:[4]"), 3.0), math.log(1.25), 1e-15)
    # power:a=2 at t = 1: (cosh(sqrt2 pi) - cos(sqrt2 pi)) / (2 pi^2)
    x = math.sqrt(2.0) * math.pi
    want = 0.5 * math.log((math.cosh(x) - math.cos(x)) / (2 * math.pi**2))
    assert contains(refs.real(ref.parse_spec("power:a=2"), 1.0), want, 1e-14)
    # geometric:r=2 through mpmath's q-Pochhammer
    with mp.workprec(200):
        want = float(mp.log(mp.qp(-mpf(100) / 4, mpf(1) / 4)) / 2)
    assert contains(refs.real(ref.parse_spec("geometric:r=2"), 10.0), want, 1e-13)


def test_powlog_bracket_is_tight_and_above_partial_sums():
    refs = ref.References()
    spec = ref.parse_spec("powlog:a=1,b=2")
    lo, hi = refs.real(spec, 1.0)
    assert 0 < hi - lo < 1e-10
    with mp.workprec(100):
        partial = float(mp.fsum(mp.log(1 + 1 / mp.mpf(t) ** 2) / 2
                                for t in ref.powlog_terms(1, 2, np.arange(1, 2001))))
    assert partial <= hi
    z_lo, z_hi = refs.complex(spec, complex(1.0, 0.0))
    assert z_lo <= lo and hi <= z_hi   # the complex tail bound is the wider one


def test_geometric_terms_bound_covers_the_evaluator_cutoff():
    from weightlab import weights

    spec, seq = ref.parse_spec("geometric:r=2"), wl.parse_sequence_spec("geometric:r=2")
    w = weights.WeightEvaluator(seq)
    for x in (0.5, 1.0, 1e3, 1e7):
        bound = ref.terms_bound(spec, x, seq.j_cut)
        assert w._choose_cutoff(x)[0] <= bound < 200
        assert w._complex_cutoff(complex(0.6 * x, -0.8 * x))[0] <= bound
    assert ref.terms_bound(ref.parse_spec("power:a=2"), 1e3, 77) == 77


def test_dyadic_counts_match_enumeration():
    tj = ref.powlog_terms(1, 2, np.arange(1, 5000))
    want = [int(np.sum(tj <= 2.0**j)) for j in range(1, 10)]
    got = np.cumsum(ref.dyadic_multiplicities(1, 2, 9)).tolist()
    assert got == want


def test_contradiction_levels_single_zero_by_hand():
    (lv,) = ref.contradiction_levels([1], "const:1", 1)
    assert abs(lv.lhs_partial - 0.5 * math.log(2.0)) < 1e-15            # (1/2) ln(2/1)
    assert abs(lv.rhs_partial - (0.5 * math.log(5.0) + 0.5)) < 1e-15    # ln w0(4) = ln(5)/2
    assert abs(lv.schwarz_rhs - math.log(2.5)) < 1e-15                  # ln 5 + ln(1/2)


# ---------------------------------------------------------------------------
# checkers reject corrupted outputs

def run_and_check(op, corrupt=None):
    out = op.run()
    if corrupt is not None:
        out = corrupt(out)
    tally = workloads.Tally()
    op.check(out, tally)
    return tally


def edit_json(out, fn):
    d = json.loads(out[1])
    fn(d)
    return (out[0], json.dumps(d)) + tuple(out[2:])


@pytest.mark.parametrize("spec", ["explicit:[1,1.5,4,9.25]", "geometric:r=2"])
def test_certify_rejects_shifted_bracket(spec):
    op = workloads.eval_op(ref.References(), wl.parse_sequence_spec(spec), spec, 1.0, 1e4, 8)
    assert run_and_check(op).problems == []

    def shift(delta):
        def fn(d):
            d["points"][3]["log_abs_omega"] += delta
        return lambda out: edit_json(out, fn)

    for delta in (1e-6, -1e-6):
        assert run_and_check(op, shift(delta)).problems


@pytest.mark.parametrize("spec", ["explicit:[1,1.5,4,9.25]", "geometric:r=2"])
def test_certify_rejects_shifted_complex_value(spec):
    op = workloads.complex_op(ref.References(), wl.parse_sequence_spec(spec), spec,
                              [complex(3.0, -2.0), complex(-40.0, 15.5)])
    assert run_and_check(op).problems == []
    assert run_and_check(op, lambda out: [(v + 1e-6, e) for v, e in out]).problems


def scale_entry(n_index, k, factor):
    def fn(out):
        out = list(out)
        out[n_index] = edit_json(out[n_index], lambda d: d["log_a"].__setitem__(
            k, d["log_a"][k] + math.log(factor)))
        return out
    return fn


@pytest.mark.parametrize("spec", ["power:a=2", "geometric:r=2"])
def test_coeffs_rejects_scaled_entry(spec):
    op = workloads.coeffs_op(spec, (1, 2), 12)
    assert run_and_check(op).problems == []
    for n_index in (0, 1):
        assert run_and_check(op, scale_entry(n_index, 5, 1.0 + 1e-9)).problems


def test_counterexample_rejects_witness_off_by_one_and_counts_neg_inf():
    op = workloads.contradict_op("const:0.001")
    tally = run_and_check(op)
    assert tally.problems == [] and (tally.attempted, tally.failed) == (61, 16)

    def off_by_one(out):
        return edit_json(out, lambda d: d["summary"].__setitem__(
            "witness_index", d["summary"]["witness_index"] + 1))

    assert run_and_check(op, off_by_one).problems


def test_counterexample_rejects_changed_multiplicity():
    op = workloads.build_op()
    assert run_and_check(op).problems == []

    def bump(d):
        d["multiplicities"][7] += 1

    assert run_and_check(op, lambda out: edit_json(out, bump)).problems


# ---------------------------------------------------------------------------
# tracer and driver

def test_tracer_wraps_definition_and_cli_binding_and_restores():
    import weightlab.cli as cli
    import weightlab.coeffs as coeffs

    original = coeffs.coeff_table
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert coeffs.coeff_table is cli.coeff_table is not original
        workloads.run_cli(["weight", "coeffs", "--seq", "geometric:r=2", "--K", "6"])
    finally:
        tracer.uninstall()
    assert coeffs.coeff_table is cli.coeff_table is original
    m = tracer.layer_metrics(1)
    assert m["coeffs.table.calls"] == 1 and m["cli.commands"] == 1
    assert not tracer.missing


def test_tracer_counts_capped_evaluations_at_the_sequence_cap():
    from weightlab import weights

    w = weights.WeightEvaluator(wl.parse_sequence_spec("powlog:a=1,b=2", j_cut=1000))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        w.eval_log_abs_omega(1e5)   # needs far more than 1000 terms
        w.eval_log_abs_omega(0.0)   # needs none
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1)
    assert m["weights.eval.calls"] == 2 and m["weights.eval.capped"] == 1


def test_tracer_reports_a_removed_name_as_missing(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (
        ("coeffs.log_poly_mul", "weightlab.coeffs", "_no_such_function", None),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    missing = tracer.missing_metrics()
    assert missing == {"coeffs.log_poly_mul.calls", "coeffs.log_poly_mul.s"}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
