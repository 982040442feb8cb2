"""Batch command-line front end.

Every subcommand mirrors a library operation, writes deterministic JSON
(and CSV where rows are tabular), and exits 0 when all asserted checks
pass, 1 when a check reports violations, 2 on configuration errors.
A JSON config file (`weightlab run --config file.json`) carries the same
fields as the flags: {"command": "cx.contradict", "seq": "powlog:a=1,b=2",
...}.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .coeffs import coeff_table, inf_sup_identity, log_convexity_check
from .counterexample import (
    CounterexampleModel,
    MinModConfig,
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
from .reports import CONTRADICTION_COLUMNS, json_text, write_csv
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


def _seq(params: dict, key: str = "seq"):
    spec = params.get(key)
    if not spec:
        raise ConfigError(f"missing sequence spec {key!r}")
    try:
        return parse_sequence_spec(spec, j_cut=int(params.get("j_cut", 500_000)))
    except SequenceSpecError as exc:
        raise ConfigError(f"bad sequence spec {spec!r}: {exc}") from exc


def _grid(params: dict, key: str = "grid", default: Optional[str] = None):
    text = params.get(key, default)
    if text is None:
        raise ConfigError(f"missing grid {key!r} (format lo:hi:n)")
    try:
        lo, hi, n = text.split(":")
        return log_grid(float(lo), float(hi), int(n))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad grid {text!r}: expected lo:hi:n") from exc


# --------------------------------------------------------------------------
# handlers: params dict -> (report dict, rows or None, passed bool)

def h_weight_eval(params: dict):
    seq = _seq(params)
    w = WeightEvaluator(seq, tol=float(params.get("tol", 1e-12)))
    if params.get("t") is not None:
        ts = [float(x) for x in params["t"]]
    else:
        ts = [float(x) for x in _grid(params)]
    points = []
    for t in ts:
        v, e = w.eval_log_abs_omega(t)
        points.append({"t": t, "log_abs_omega": v, "err": e})
    report = {"command": "weight.eval", "seq": seq.spec_string(), "points": points}
    return report, None, True


def h_weight_coeffs(params: dict):
    seq = _seq(params)
    n = int(params.get("n", 1))
    K = int(params.get("K", 20))
    tab = coeff_table(seq, n, K, tol=float(params.get("tol", 1e-12)))
    conv = log_convexity_check(tab)
    ident = []
    for k in range(1, min(K - 1, int(params.get("k_identity", 8))) + 1):
        r = inf_sup_identity(tab, k)
        ident.append({"k": k, "rel_error": r.rel_error})
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


def h_criteria_classify(params: dict):
    seq = _seq(params)
    k_max = int(params.get("k_max", 20_000))
    rep = criteria2_report(seq, k_max)
    out = {
        "command": "criteria.classify",
        "spec": rep["spec"],
        "omega0_flag": rep["omega0_flag"],
        "verdicts_agree": rep["verdicts_agree"],
        "diagnostics": {k: d.to_dict() for k, d in rep["diagnostics"].items()},
    }
    ok = (not seq.omega0_flag) or rep["verdicts_agree"]
    return out, None, ok


def h_criteria_omega6(params: dict):
    seq = _seq(params)
    J = int(params.get("J", 25))
    rep = msnq_omega_conditions(seq, J, k_max=params.get("k_max"))
    out = {
        "command": "criteria.omega6",
        "spec": rep["spec"],
        "omega0_flag": rep["omega0_flag"],
        "verdicts_agree_i_to_iv": rep["verdicts_agree_i_to_iv"],
        "verdicts_agree_all_six": rep["verdicts_agree_all_six"],
        "diagnostics": {k: d.to_dict() for k, d in rep["diagnostics"].items()},
    }
    ok = rep["verdicts_agree_i_to_iv"] and (
        not seq.omega0_flag or rep["verdicts_agree_all_six"]
    )
    return out, None, ok


def h_weight_checks(params: dict):
    seq = _seq(params)
    w = WeightEvaluator(seq, tol=float(params.get("tol", 1e-9)))
    L = float(params.get("L", 2.0))
    scaling = scaling_inequality_check(w, L, samples=int(params.get("samples", 50)))
    modulus = modulus_bound_check(
        w, samples=int(params.get("samples", 200)),
        rng_seed=int(params.get("seed", 1)),
        radius=float(params.get("radius", 1e3)),
    )
    c_min, strong = strong_nqa_tail_check(seq, K=int(params.get("K", 200)))
    report = {
        "command": "weight.checks",
        "seq": seq.spec_string(),
        "scaling": scaling.to_dict(),
        "modulus_bound": modulus.to_dict(),
        "strong_nqa": strong.to_dict(),
    }
    return report, None, scaling.passed and modulus.passed


def h_majorant_alpha(params: dict):
    seq = _seq(params)
    m = ConcaveSeriesMajorant(seq)
    w = WeightEvaluator(seq, tol=float(params.get("tol", 1e-9)))
    pts = []
    dominated = True
    for t in _grid(params, default="1:1e6:64"):
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


def h_majorant_beta(params: dict):
    seq = _seq(params)
    m = ConcaveSeriesMajorant(seq)
    grid = _grid(params, default="1:1e6:64")
    lam = float(params["lam"]) if params.get("lam") else lambda_search(
        m.eval, float(grid[0]), float(grid[-1])
    )
    bm = BetaMajorant(alpha=m.eval, lam=lam, tail_terms=int(params.get("tail_terms", 12)))
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


def h_majorant_sk_sweep(params: dict):
    rep = s_k_nonneg_sweep(
        trials=int(params.get("trials", 100)),
        k_max=int(params.get("k_max", 25)),
        rng_seed=int(params.get("seed", 1)),
    )
    rep["command"] = "majorant.sk-sweep"
    return rep, None, rep["passed"]


def h_majorant_step(params: dict):
    st = step_counterexample(int(params.get("k_max", 6)))
    probe = step_threshold_probe(st)
    report = {
        "command": "majorant.step",
        "log_thresholds": st.log_thresholds,
        "threshold_products": probe["products"],
        "all_exactly_one": probe["all_exactly_one"],
    }
    return report, None, probe["all_exactly_one"]


def h_cx_build(params: dict):
    seq = _seq(params)
    j_max = int(params.get("j_max", 40))
    mult = dyadic_multiplicities(seq, j_max)
    report = {
        "command": "cx.build",
        "seq": seq.spec_string(),
        "j_max": j_max,
        "multiplicities": mult.n,
        "total": mult.total,
    }
    return report, None, True


def h_cx_dominate(params: dict):
    seq = _seq(params)
    j_max = int(params.get("j_max", 40))
    model = CounterexampleModel(dyadic_multiplicities(seq, j_max))
    w = WeightEvaluator(seq, tol=float(params.get("tol", 1e-6)))
    rep = domination_check(
        model, w,
        samples=int(params.get("samples", 500)),
        rng_seed=int(params.get("seed", 1)),
        radius=float(params.get("radius", 1e4)),
    )
    report = {"command": "cx.dominate", "seq": seq.spec_string(), "j_max": j_max,
              "result": rep.to_dict()}
    return report, None, rep.passed


def h_cx_schwarz(params: dict):
    seq = _seq(params)
    j_max = int(params.get("j_max", 40))
    model = CounterexampleModel(dyadic_multiplicities(seq, j_max))
    js = [int(x) for x in params.get("j", [5, 10, 15])]
    deltas = [float(x) for x in params.get("delta", [0.5, 0.1])]
    results = []
    ok = True
    for j in js:
        for d in deltas:
            rep = schwarz_bound_check(
                model, j, d,
                samples=int(params.get("samples", 200)),
                rng_seed=int(params.get("seed", 1)),
            )
            ok &= rep.passed
            results.append(rep.to_dict())
    report = {"command": "cx.schwarz", "seq": seq.spec_string(), "results": results}
    return report, None, ok


def h_cx_contradict(params: dict):
    seq = _seq(params)
    j_max = int(params.get("j_max", 60))
    model = CounterexampleModel(dyadic_multiplicities(seq, j_max))
    beta = named_beta(str(params.get("beta", "const:0.001")), seq)
    rep = contradiction_experiment(
        model, beta,
        J=int(params["J"]) if params.get("J") else None,
        scan_density=int(params.get("scan_density", 512)),
        refine_iters=int(params.get("refine_iters", 40)),
    )
    report = {"command": "cx.contradict", "seq": seq.spec_string(),
              "summary": rep.to_summary()}
    return report, rep.rows, rep.passed_schwarz


def h_cx_scan(params: dict):
    seq = _seq(params)
    j_max = int(params.get("j_max", 40))
    model = CounterexampleModel(dyadic_multiplicities(seq, j_max))
    rho = _seq(params, "rho") if params.get("rho") else seq
    w = WeightEvaluator(rho, tol=float(params.get("tol", 1e-6)))
    cfg = MinModConfig(
        c_grid=tuple(float(x) for x in params.get("c_grid", [0.5, 1.0, 2.0, 4.0])),
        c_prime_grid=tuple(float(x) for x in params.get("c_prime_grid", [0.0, 1.0, 10.0])),
        scan_density=int(params.get("scan_density", 1024)),
        refine_iters=int(params.get("refine_iters", 48)),
    )
    grid = _grid(params, "t_grid", default="2:65536:32")
    rep = minmod_radius_scan(model, w, cfg, [float(t) for t in grid])
    report = {"command": "cx.scan", "seq": seq.spec_string(),
              "rho": rho.spec_string(), "scan": rep}
    # failures are findings here, not errors
    return report, None, True


HANDLERS = {
    "weight.eval": h_weight_eval,
    "weight.coeffs": h_weight_coeffs,
    "weight.checks": h_weight_checks,
    "criteria.classify": h_criteria_classify,
    "criteria.omega6": h_criteria_omega6,
    "majorant.alpha": h_majorant_alpha,
    "majorant.beta": h_majorant_beta,
    "majorant.sk-sweep": h_majorant_sk_sweep,
    "majorant.step": h_majorant_step,
    "cx.build": h_cx_build,
    "cx.dominate": h_cx_dominate,
    "cx.schwarz": h_cx_schwarz,
    "cx.contradict": h_cx_contradict,
    "cx.scan": h_cx_scan,
}


def _emit(report: dict, rows, params: dict) -> None:
    text = json_text(report)
    json_path = params.get("json")
    if json_path:
        with open(json_path, "w", newline="") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)
    csv_path = params.get("csv")
    if csv_path and rows is not None:
        with open(csv_path, "w", newline="") as fp:
            write_csv(fp, CONTRADICTION_COLUMNS, rows)


def run_command(command: str, params: dict) -> int:
    handler = HANDLERS.get(command)
    if handler is None:
        raise ConfigError(f"unknown command {command!r}")
    report, rows, passed = handler(params)
    _emit(report, rows, params)
    return 0 if passed else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", help="write the JSON report here (default stdout)")
    p.add_argument("--csv", help="write tabular rows here (where applicable)")
    p.add_argument("--j-cut", type=int, dest="j_cut")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="weightlab", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="group", required=True)

    weight = sub.add_parser("weight").add_subparsers(dest="sub", required=True)
    p = weight.add_parser("eval")
    p.add_argument("--seq", required=True)
    p.add_argument("--t", action="append")
    p.add_argument("--grid")
    p.add_argument("--tol", type=float)
    _add_common(p)
    p = weight.add_parser("coeffs")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--tol", type=float)
    p.add_argument("--k-identity", type=int, dest="k_identity")
    _add_common(p)
    p = weight.add_parser("checks")
    p.add_argument("--seq", required=True)
    p.add_argument("--L", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--radius", type=float, default=1e3)
    p.add_argument("--K", type=int, default=200)
    _add_common(p)

    crit = sub.add_parser("criteria").add_subparsers(dest="sub", required=True)
    p = crit.add_parser("classify")
    p.add_argument("--seq", required=True)
    p.add_argument("--k-max", type=int, dest="k_max")
    _add_common(p)
    p = crit.add_parser("omega6")
    p.add_argument("--seq", required=True)
    p.add_argument("--J", type=int, default=25)
    p.add_argument("--k-max", type=int, dest="k_max")
    _add_common(p)

    maj = sub.add_parser("majorant").add_subparsers(dest="sub", required=True)
    p = maj.add_parser("alpha")
    p.add_argument("--seq", required=True)
    p.add_argument("--grid")
    _add_common(p)
    p = maj.add_parser("beta")
    p.add_argument("--seq", required=True)
    p.add_argument("--grid")
    p.add_argument("--lam", type=float)
    p.add_argument("--tail-terms", type=int, dest="tail_terms")
    _add_common(p)
    p = maj.add_parser("sk-sweep")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--k-max", type=int, dest="k_max", default=25)
    p.add_argument("--seed", type=int, default=1)
    _add_common(p)
    p = maj.add_parser("step")
    p.add_argument("--k-max", type=int, dest="k_max", default=6)
    _add_common(p)

    cx = sub.add_parser("cx").add_subparsers(dest="sub", required=True)
    p = cx.add_parser("build")
    p.add_argument("--seq", required=True)
    p.add_argument("--j-max", type=int, dest="j_max", default=40)
    _add_common(p)
    p = cx.add_parser("dominate")
    p.add_argument("--seq", required=True)
    p.add_argument("--j-max", type=int, dest="j_max", default=40)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--radius", type=float, default=1e4)
    _add_common(p)
    p = cx.add_parser("schwarz")
    p.add_argument("--seq", required=True)
    p.add_argument("--j-max", type=int, dest="j_max", default=40)
    p.add_argument("--j", action="append")
    p.add_argument("--delta", action="append")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    _add_common(p)
    p = cx.add_parser("contradict")
    p.add_argument("--seq", required=True)
    p.add_argument("--j-max", type=int, dest="j_max", default=60)
    p.add_argument("--beta", default="const:0.001")
    p.add_argument("--J", type=int)
    p.add_argument("--scan-density", type=int, dest="scan_density")
    _add_common(p)
    p = cx.add_parser("scan")
    p.add_argument("--seq", required=True)
    p.add_argument("--rho")
    p.add_argument("--j-max", type=int, dest="j_max", default=40)
    p.add_argument("--t-grid", dest="t_grid")
    _add_common(p)

    p = sub.add_parser("run")
    p.add_argument("--config", required=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        if ns.group == "run":
            try:
                with open(ns.config) as fp:
                    cfg = json.load(fp)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {ns.config!r}: {exc}") from exc
            command = cfg.pop("command", None)
            if not command:
                raise ConfigError("config needs a 'command' field")
            return run_command(command, cfg)
        params = {k: v for k, v in vars(ns).items() if v is not None}
        command = f"{ns.group}.{ns.sub}"
        return run_command(command, params)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SequenceSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
