"""Spans and counters around weightlab's layer functions, for the traced run.

The tracer replaces a function by a wrapper in every weightlab module that
binds it (the defining module, `weightlab.cli`, the package namespace), and
methods on their class.  Each call records a span: name, start, end, parent
span and operation id.  Spans stay in memory until the run writes them out.
Hot scalar functions get a call counter instead of a span.  A name that no
longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("weightlab", "weightlab.sequences", "weightlab.weights", "weightlab.coeffs",
           "weightlab.criteria", "weightlab.majorants", "weightlab.counterexample",
           "weightlab.reports", "weightlab.cli")

# (span name, owner, attribute, payload kind); owner is a module or
# "module.Class".  Payloads put one number on the span.
SPANS = (
    ("sequences.parse", "weightlab.sequences", "parse_sequence_spec", None),
    ("sequences.terms", "weightlab.sequences.ZeroSequence", "terms", "range"),
    ("sequences.count_leq", "weightlab.sequences.ZeroSequence", "count_leq", None),
    ("weights.eval", "weightlab.weights.WeightEvaluator", "eval_log_abs_omega", "eval"),
    ("weights.eval_complex", "weightlab.weights.WeightEvaluator", "eval_log_abs_omega_complex", None),
    ("weights.big_N", "weightlab.weights", "big_N", None),
    ("criteria.omega6", "weightlab.criteria", "msnq_omega_conditions", None),
    ("criteria.classify", "weightlab.criteria", "criteria2_report", None),
    ("criteria.index_series", "weightlab.criteria", "_index_series", None),
    ("criteria.profile_log_omega", "weightlab.criteria", "profile_log_omega", None),
    ("majorants.alpha", "weightlab.majorants.ConcaveSeriesMajorant", "eval", None),
    ("majorants.beta", "weightlab.majorants.BetaMajorant", "eval", None),
    ("majorants.lambda_search", "weightlab.majorants", "lambda_search", None),
    ("majorants.sk_sweep", "weightlab.majorants", "s_k_nonneg_sweep", None),
    ("coeffs.table", "weightlab.coeffs", "coeff_table", "factors"),
    ("coeffs.table_log", "weightlab.coeffs", "coeff_table_log", None),
    ("coeffs.log_poly_mul", "weightlab.coeffs", "_log_poly_mul", None),
    ("coeffs.sandwich", "weightlab.coeffs", "sandwich_check", "regime"),
    ("coeffs.inf_sup", "weightlab.coeffs", "inf_sup_identity", None),
    ("coeffs.convexity", "weightlab.coeffs", "log_convexity_check", None),
    ("counterexample.minmod", "weightlab.counterexample", "minmod_sup", "neg_inf"),
    ("counterexample.offsets", "weightlab.counterexample.CounterexampleModel",
     "log_abs_f_offsets", "points"),
    ("counterexample.contradict", "weightlab.counterexample", "contradiction_experiment", None),
    ("counterexample.scan", "weightlab.counterexample", "minmod_radius_scan", None),
    ("counterexample.schwarz", "weightlab.counterexample", "schwarz_bound_check", None),
    ("reports.json", "weightlab.reports", "json_text", None),
    ("reports.csv", "weightlab.reports", "write_csv", None),
    ("cli.command", "weightlab.cli", "run_command", None),
)
COUNTERS = (
    ("sequences.term", "weightlab.sequences.ZeroSequence", "term"),
    ("counterexample.ln_w0_dyadic", "weightlab.counterexample.CounterexampleModel", "ln_w0_dyadic"),
)


def _payload(kind, args, result):
    if kind == "range":
        return args[2] - args[1] + 1
    if kind == "eval":
        # the certified error, and the evaluator's own enumeration cap
        return result[1], args[0].sequence.j_cut
    if kind == "factors":
        return result.factors_used
    if kind == "regime":
        return 1.0 if result.details["regime"] == "table" else 0.0
    if kind == "neg_inf":
        return 1.0 if result == -math.inf else 0.0
    if kind == "points":
        return len(args[2])
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, payload]
        self.counts = Counter()
        self.missing = set()
        self.op = -1
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for name, owner, attr, kind in SPANS:
            self._patch(mods, owner, attr, name, self._span_wrapper(name, kind))
        for name, owner, attr in COUNTERS:
            self._patch(mods, owner, attr, name, self._count_wrapper(name))

    def _patch(self, mods, owner, attr, name, make) -> None:
        if owner in MODULES:
            holder = importlib.import_module(owner)
        else:
            mod_name, _, cls_name = owner.rpartition(".")
            holder = getattr(importlib.import_module(mod_name), cls_name, None)
        original = getattr(holder, attr, None)
        if original is None:
            self.missing.add(name)
            return
        wrapped = make(original)
        # a function is rebound wherever a module imported it; a method
        # lives on its class only
        targets = [m for m in mods if getattr(m, attr, None) is original] if owner in MODULES else [holder]
        for target in targets:
            setattr(target, attr, wrapped)
            self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def _span_wrapper(self, name, kind):
        spans, stack = self.spans, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                if kind:
                    span[5] = _payload(kind, args, result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, name):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def begin_op(self, op_id: int, name: str) -> None:
        """Root span for one benchmark operation; ended by end_op."""
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([f"op:{name}", perf_counter(), 0.0, -1, op_id, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    # -- results ----------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w") as fp:
            for name, start, end, parent, op, payload in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "payload": payload}) + "\n")

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer totals per round: calls, seconds, self seconds, payloads."""
        calls, secs, child, pay = Counter(), defaultdict(float), defaultdict(float), defaultdict(float)
        terms_under = defaultdict(int)
        for name, start, end, parent, _, payload in self.spans:
            calls[name] += 1
            secs[name] += end - start
            if payload is not None and name != "weights.eval":
                pay[name] += payload
            if parent >= 0:
                child[parent] += end - start
                if name == "sequences.terms":
                    terms_under[parent] += payload
        self_s = defaultdict(float)
        capped, err_max = 0, 0.0
        for i, (name, start, end, _, _, payload) in enumerate(self.spans):
            if name in ("weights.eval", "coeffs.sandwich"):
                self_s[name] += end - start - child[i]
            if name == "weights.eval":
                err, j_cut = payload
                err_max = max(err_max, err)
                capped += terms_under[i] >= j_cut
        # metrics other than a layer's calls or seconds
        derived = {
            "sequences.terms.n": pay["sequences.terms"],
            "sequences.term.calls": self.counts["sequences.term"],
            "weights.eval.self_s": self_s["weights.eval"],
            "weights.eval.capped": capped,
            "coeffs.table.factors": pay["coeffs.table"],
            "coeffs.sandwich.self_s": self_s["coeffs.sandwich"],
            "coeffs.sandwich.table_regime": pay["coeffs.sandwich"],
            "coeffs.sandwich.capped": calls["coeffs.sandwich"] - pay["coeffs.sandwich"],
            "counterexample.minmod.neg_inf": pay["counterexample.minmod"],
            "counterexample.offsets.points": pay["counterexample.offsets"],
            "counterexample.ln_w0_dyadic.calls": self.counts["counterexample.ln_w0_dyadic"],
            "cli.commands": calls["cli.command"],
        }
        out = {}
        for name, _, _ in METRICS:
            layer, _, kind = name.rpartition(".")
            if name in derived:
                out[name] = derived[name] / rounds
            elif kind in ("calls", "s"):
                out[name] = (calls[layer] if kind == "calls" else secs[layer]) / rounds
        out["weights.eval.err_max"] = err_max
        return out

    def missing_metrics(self) -> set:
        """Metric names whose wrapped function no longer exists."""
        def source(metric):
            return "cli.command" if metric == "cli.commands" else metric.rsplit(".", 1)[0]
        return {m for m, _, _ in METRICS if source(m) in self.missing}


# name, unit, better
METRICS = (
    ("sequences.parse.s", "s", "lower"),
    ("sequences.terms.calls", "count", "lower"),
    ("sequences.terms.n", "count", "lower"),
    ("sequences.terms.s", "s", "lower"),
    ("sequences.term.calls", "count", "lower"),
    ("sequences.count_leq.calls", "count", "lower"),
    ("sequences.count_leq.s", "s", "lower"),
    ("weights.eval.calls", "count", "lower"),
    ("weights.eval.s", "s", "lower"),
    ("weights.eval.self_s", "s", "lower"),
    ("weights.eval.capped", "count", "lower"),
    ("weights.eval.err_max", "nat", "lower"),
    ("weights.eval_complex.calls", "count", "lower"),
    ("weights.eval_complex.s", "s", "lower"),
    ("weights.big_N.s", "s", "lower"),
    ("criteria.omega6.s", "s", "lower"),
    ("criteria.classify.s", "s", "lower"),
    ("criteria.index_series.s", "s", "lower"),
    ("criteria.profile_log_omega.s", "s", "lower"),
    ("majorants.alpha.calls", "count", "lower"),
    ("majorants.alpha.s", "s", "lower"),
    ("majorants.beta.s", "s", "lower"),
    ("majorants.lambda_search.s", "s", "lower"),
    ("majorants.sk_sweep.s", "s", "lower"),
    ("coeffs.table.calls", "count", "lower"),
    ("coeffs.table.s", "s", "lower"),
    ("coeffs.table.factors", "count", "lower"),
    ("coeffs.table_log.calls", "count", "lower"),
    ("coeffs.table_log.s", "s", "lower"),
    ("coeffs.log_poly_mul.calls", "count", "lower"),
    ("coeffs.log_poly_mul.s", "s", "lower"),
    ("coeffs.sandwich.calls", "count", "lower"),
    ("coeffs.sandwich.s", "s", "lower"),
    ("coeffs.sandwich.self_s", "s", "lower"),
    ("coeffs.sandwich.table_regime", "count", "higher"),
    ("coeffs.sandwich.capped", "count", "lower"),
    ("coeffs.inf_sup.s", "s", "lower"),
    ("coeffs.convexity.s", "s", "lower"),
    ("counterexample.minmod.calls", "count", "lower"),
    ("counterexample.minmod.s", "s", "lower"),
    ("counterexample.minmod.neg_inf", "count", "lower"),
    ("counterexample.offsets.calls", "count", "lower"),
    ("counterexample.offsets.points", "count", "lower"),
    ("counterexample.contradict.s", "s", "lower"),
    ("counterexample.scan.s", "s", "lower"),
    ("counterexample.schwarz.s", "s", "lower"),
    ("counterexample.ln_w0_dyadic.calls", "count", "lower"),
    ("reports.json.s", "s", "lower"),
    ("reports.csv.s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
