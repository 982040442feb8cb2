"""Batch command-line front end.

Every subcommand mirrors a library operation, writes deterministic JSON
(and CSV where rows are tabular), and exits 0 when all asserted checks
pass, 1 when a check reports violations, 2 on configuration errors.

The flags and `weightlab run --config file.json` take the same options
with the same defaults.  A config file names the command and carries the
flag names without `--`, with `_` for `-`, and a list for a flag that
repeats: {"command": "cx.contradict", "seq": "powlog:a=1,b=2",
"j_max": 60, "scan_density": 128}.  A key the command does not have, or
a value that does not convert to the option's type, is a configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys

from . import __version__
from .coeffs import coeff_table, inf_sup_identity, log_convexity_check
from .counterexample import (
    CounterexampleModel,
    minmod_radius_scan,
    contradiction_experiment,
    domination_check,
    dyadic_multiplicities,
    named_beta,
    schwarz_bound_check,
)
from .criteria import criteria2_report, msnq_omega_conditions
from .majorants import (
    BetaMajorant,
    ConcaveSeriesMajorant,
    beta_dyadic_nqa_tail,
    lambda_search,
    s_k_nonneg_sweep,
    step_counterexample,
    step_threshold_probe,
)
from .reports import CONTRADICTION_COLUMNS, json_text, write_csv, write_report
from .sampling import log_grid
from .sequences import SequenceSpecError, parse_sequence_spec
from .weights import (
    WeightEvaluator,
    modulus_bound_check,
    scaling_inequality_check,
    strong_nqa_tail_check,
)


class ConfigError(ValueError):
    pass


def _seq(p: dict, key: str = "seq"):
    spec = p[key]
    if not spec:
        raise ConfigError(f"missing sequence spec {key!r}")
    try:
        return parse_sequence_spec(spec, j_cut=p["j_cut"])
    except SequenceSpecError as exc:
        raise ConfigError(f"bad sequence spec {spec!r}: {exc}") from exc


def _grid(p: dict, key: str = "grid"):
    text = p[key]
    if text is None:
        raise ConfigError(f"missing grid {key!r} (format lo:hi:n)")
    try:
        lo, hi, n = text.split(":")
        return log_grid(float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: expected lo:hi:n") from exc


# --------------------------------------------------------------------------
# handlers: options dict -> (report dict, rows or None, passed bool)

def h_weight_eval(p: dict):
    seq = _seq(p)
    w = WeightEvaluator(seq, tol=p["tol"])
    ts = p["t"] if p["t"] is not None else [float(x) for x in _grid(p)]
    points = []
    for t in ts:
        v, e = w.eval_log_abs_omega(t)
        points.append({"t": t, "log_abs_omega": v, "err": e})
    report = {"command": "weight.eval", "seq": seq.spec_string(), "points": points}
    return report, None, True


def h_weight_coeffs(p: dict):
    seq = _seq(p)
    n, K = p["n"], p["K"]
    tab = coeff_table(seq, n, K, tol=p["tol"])
    conv = log_convexity_check(tab)
    # a_k > 0 for k up to n times the count of finite zeros and 0 past it:
    # the identity is asked for up to the last positive coefficient
    last_positive = int((tab.log_a > -math.inf).sum()) - 1
    ks = range(1, min(K - 1, p["k_identity"], last_positive) + 1)
    ident = [{"k": r.k, "rel_error": r.rel_error} for r in inf_sup_identity(tab, ks)]
    report = {
        "command": "weight.coeffs",
        "seq": seq.spec_string(),
        "n": n,
        "K": K,
        "log_a": [float(x) for x in tab.log_a],
        "trunc_error_rel": tab.trunc_error_rel,
        "factors_used": tab.factors_used,
        "log_convexity": conv.to_dict(),
        "inf_sup": ident,
    }
    return report, None, conv.passed


def h_criteria_classify(p: dict):
    seq = _seq(p)
    rep = criteria2_report(seq, p["k_max"])
    ok = (not seq.omega0_flag) or rep["verdicts_agree"]
    return {"command": "criteria.classify", **rep}, None, ok


def h_criteria_omega6(p: dict):
    seq = _seq(p)
    rep = msnq_omega_conditions(seq, p["J"], k_max=p["k_max"])
    ok = rep["verdicts_agree_i_to_iv"] and (
        not seq.omega0_flag or rep["verdicts_agree_all_six"]
    )
    return {"command": "criteria.omega6", **rep}, None, ok


def h_weight_checks(p: dict):
    seq = _seq(p)
    w = WeightEvaluator(seq, tol=1e-9)
    scaling = scaling_inequality_check(w, p["L"], samples=p["samples"])
    modulus = modulus_bound_check(
        w, samples=p["samples"], rng_seed=p["seed"], radius=p["radius"]
    )
    c_min, strong = strong_nqa_tail_check(seq, K=p["K"])
    report = {
        "command": "weight.checks",
        "seq": seq.spec_string(),
        "scaling": scaling.to_dict(),
        "modulus_bound": modulus.to_dict(),
        "strong_nqa": strong.to_dict(),
    }
    return report, None, scaling.passed and modulus.passed


def h_majorant_alpha(p: dict):
    seq = _seq(p)
    m = ConcaveSeriesMajorant(seq)
    w = WeightEvaluator(seq, tol=1e-9)
    pts = []
    dominated = True
    for t in _grid(p):
        t = float(t)
        av, aerr = m.eval(t)
        lv, lerr = w.eval_log_abs_omega(t)
        dominated &= lv <= av + 1e-12
        pts.append({"t": t, "alpha": av, "alpha_err": aerr, "log_abs_omega": lv})
    report = {
        "command": "majorant.alpha",
        "seq": seq.spec_string(),
        "omega0_flag": seq.omega0_flag,
        "points": pts,
        "dominates_log_weight": dominated,
    }
    return report, None, dominated


def h_majorant_beta(p: dict):
    seq = _seq(p)
    m = ConcaveSeriesMajorant(seq)
    grid = _grid(p)
    lam = p["lam"] or lambda_search(m.eval, float(grid[0]), float(grid[-1]))
    bm = BetaMajorant(alpha=m.eval, lam=lam, tail_terms=p["tail_terms"])
    pts = []
    above = True
    for t in grid:
        t = float(t)
        bv, berr = bm.eval(t)
        av, aerr = m.eval(t)
        above &= bv > av + aerr
        pts.append({"t": t, "beta": bv, "beta_err": berr, "alpha": av})
    tail = beta_dyadic_nqa_tail(seq, lam, 40)
    report = {
        "command": "majorant.beta",
        "seq": seq.spec_string(),
        "lambda": lam,
        "points": pts,
        "beta_above_alpha": above,
        "dyadic_nqa_tail_at_40": tail,
    }
    return report, None, above


# The sweep's work in units of about 6 us (2-core Xeon, Python 3.11): a
# trial costs about k_max (1 + (k_max/40)^4) units, its big-integer
# products growing like k_max^5 (measured for k_max = 1..250).  The budget
# is about 12 s there; --trials 100 --k-max 200 would take 75 s.
SK_SWEEP_BUDGET = 2_000_000


def h_majorant_sk_sweep(p: dict):
    trials, k_max = p["trials"], p["k_max"]
    work = trials * k_max * (40**4 + k_max**4) // 40**4
    if work > SK_SWEEP_BUDGET:
        raise ConfigError(
            f"majorant sk-sweep: --trials {trials} at --k-max {k_max} is about "
            f"{work:,} units of work, past the budget of {SK_SWEEP_BUDGET:,}; "
            "lower --trials or --k-max"
        )
    rep = s_k_nonneg_sweep(trials=p["trials"], k_max=p["k_max"], rng_seed=p["seed"])
    rep["command"] = "majorant.sk-sweep"
    return rep, None, rep["passed"]


def h_majorant_step(p: dict):
    st = step_counterexample(p["k_max"])
    probe = step_threshold_probe(st)
    report = {
        "command": "majorant.step",
        "log_thresholds": st.log_thresholds,
        "threshold_products": probe["products"],
        "all_exactly_one": probe["all_exactly_one"],
    }
    return report, None, probe["all_exactly_one"]


def _model(p: dict, seq) -> CounterexampleModel:
    return CounterexampleModel(dyadic_multiplicities(seq, p["j_max"]))


def h_cx_build(p: dict):
    seq = _seq(p)
    mult = dyadic_multiplicities(seq, p["j_max"])
    report = {
        "command": "cx.build",
        "seq": seq.spec_string(),
        "j_max": p["j_max"],
        "multiplicities": mult.n,
        "total": mult.total,
    }
    return report, None, True


def h_cx_dominate(p: dict):
    seq = _seq(p)
    w = WeightEvaluator(seq, tol=1e-6)
    rep = domination_check(
        _model(p, seq), w, samples=p["samples"], rng_seed=p["seed"], radius=p["radius"]
    )
    report = {"command": "cx.dominate", "seq": seq.spec_string(), "j_max": p["j_max"],
              "result": rep.to_dict()}
    return report, None, rep.passed


def h_cx_schwarz(p: dict):
    seq = _seq(p)
    model = _model(p, seq)
    results = []
    ok = True
    for j in p["j"]:
        for d in p["delta"]:
            rep = schwarz_bound_check(model, j, d, samples=p["samples"], rng_seed=p["seed"])
            ok &= rep.passed
            results.append(rep.to_dict())
    report = {"command": "cx.schwarz", "seq": seq.spec_string(), "results": results}
    return report, None, ok


def h_cx_contradict(p: dict):
    seq = _seq(p)
    model = _model(p, seq)
    beta = named_beta(p["beta"], seq)
    rep = contradiction_experiment(model, beta, J=p["J"] or None, scan_density=p["scan_density"])
    report = {"command": "cx.contradict", "seq": seq.spec_string(),
              "summary": rep.to_summary()}
    return report, rep.rows, rep.passed_schwarz


def h_cx_scan(p: dict):
    seq = _seq(p)
    model = _model(p, seq)
    rho = _seq(p, "rho") if p["rho"] else seq
    w = WeightEvaluator(rho, tol=1e-6)
    grid = _grid(p, "t_grid")
    rep = minmod_radius_scan(model, w, [float(t) for t in grid])
    report = {"command": "cx.scan", "seq": seq.spec_string(),
              "rho": rho.spec_string(), "scan": rep}
    # failures are findings here, not errors
    return report, None, True


# --------------------------------------------------------------------------
# the options of every command, declared once: option -> default.  The
# default's type is the option's type; a bare type stands for an option
# without a default (None), and a list for a flag that may repeat.  A flag
# is the option name with `-` for `_`.

SEQ = {"seq": str, "j_cut": 500_000}
OUTPUTS = {
    "json": "write the JSON report here (default stdout)",
    "csv": "write tabular rows here (where applicable)",
}

COMMANDS = {
    "weight.eval": (h_weight_eval, {**SEQ, "t": [float], "grid": str, "tol": 1e-12}),
    "weight.coeffs": (h_weight_coeffs,
                      {**SEQ, "n": 1, "K": 20, "tol": 1e-12, "k_identity": 8}),
    "weight.checks": (h_weight_checks, {**SEQ, "L": 2.0, "samples": 200, "seed": 1,
                                        "radius": 1e3, "K": 200}),
    "criteria.classify": (h_criteria_classify, {**SEQ, "k_max": 20_000}),
    "criteria.omega6": (h_criteria_omega6, {**SEQ, "J": 25, "k_max": int}),
    "majorant.alpha": (h_majorant_alpha, {**SEQ, "grid": "1:1e6:64"}),
    "majorant.beta": (h_majorant_beta,
                      {**SEQ, "grid": "1:1e6:64", "lam": float, "tail_terms": 12}),
    "majorant.sk-sweep": (h_majorant_sk_sweep, {"trials": 100, "k_max": 25, "seed": 1}),
    "majorant.step": (h_majorant_step, {"k_max": 6}),
    "cx.build": (h_cx_build, {**SEQ, "j_max": 40}),
    "cx.dominate": (h_cx_dominate, {**SEQ, "j_max": 40, "samples": 500, "seed": 1,
                                    "radius": 1e4}),
    "cx.schwarz": (h_cx_schwarz, {**SEQ, "j_max": 40, "j": [5, 10, 15],
                                  "delta": [0.5, 0.1], "samples": 200, "seed": 1}),
    "cx.contradict": (h_cx_contradict, {**SEQ, "j_max": 60, "beta": "const:0.001",
                                        "J": int, "scan_density": 512}),
    "cx.scan": (h_cx_scan, {**SEQ, "rho": str, "j_max": 40, "t_grid": "2:65536:32"}),
}


def _kind(default) -> tuple:
    """The value type of an option with this default, and whether it repeats."""
    many = isinstance(default, list)
    item = default[0] if many else default
    return (item if isinstance(item, type) else type(item)), many


def _cast(kind: type, value):
    out = kind(value)
    # a config value must already be of the type, or a string that parses
    # as one: 2.5 for an int option or 40 for a spec is an error
    if isinstance(value, bool) or (not isinstance(value, str) and out != value):
        raise ValueError(value)
    return out


def _options(command: str, params: dict) -> dict:
    """Every option of `command`, typed, with its default where `params`
    gives none.  Keys that `command` does not declare are errors."""
    options = {**COMMANDS[command][1], **dict.fromkeys(OUTPUTS, str)}
    unknown = sorted(params.keys() - options.keys())
    if unknown:
        raise ConfigError(f"{command} has no option {unknown[0]!r}")
    out = {}
    for key, default in options.items():
        value = params.get(key)
        kind, many = _kind(default)
        if value is None:
            out[key] = None if default in (kind, [kind]) else default
            continue
        try:
            if many != isinstance(value, list):
                raise TypeError(value)
            out[key] = [_cast(kind, v) for v in value] if many else _cast(kind, value)
        except (TypeError, ValueError):
            what = f"a list of {kind.__name__}" if many else kind.__name__
            raise ConfigError(f"option {key!r} needs {what}, not {value!r}") from None
    return out


def run_command(command: str, params: dict) -> int:
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    p = _options(command, params)
    report, rows, passed = COMMANDS[command][0](p)
    text = json_text(report)
    if p["json"]:
        write_report(p["json"], text)
    else:
        sys.stdout.write(text)
    if p["csv"] and rows is not None:
        buf = io.StringIO()
        write_csv(buf, CONTRADICTION_COLUMNS, rows)
        write_report(p["csv"], buf.getvalue())
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="weightlab", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="group", required=True)
    groups = {}
    for command, (_, options) in COMMANDS.items():
        group, name = command.split(".")
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="sub", required=True)
        p = groups[group].add_parser(name)
        for key, default in options.items():
            kind, many = _kind(default)
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                           action="append" if many else "store", required=key == "seq")
        for key, text in OUTPUTS.items():
            p.add_argument("--" + key, help=text)
    sub.add_parser("run").add_argument("--config", required=True)
    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        if ns.group == "run":
            try:
                with open(ns.config) as fp:
                    params = json.load(fp)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config {ns.config!r}: {exc}") from exc
            if not isinstance(params, dict) or not params.get("command"):
                raise ConfigError("config needs a 'command' field")
            command = params.pop("command")
        else:
            params = vars(ns)
            command = f"{params.pop('group')}.{params.pop('sub')}"
        return run_command(command, params)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
