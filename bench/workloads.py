"""The benchmark's workloads: seeded inputs, timed operations, output checks.

A workload is a list of operations.  Each operation has a `run` part, which
is timed and calls weightlab's public entry points (the CLI in-process
through `weightlab.cli.main`, or a library function where the CLI has no
command), and a `check` part, which is not timed and compares the output
with the references in `oracles.py` or with properties the mathematics
guarantees.  A round runs every operation once, in order, in one thread.

Workloads:

- certify: ln|w| brackets, `weight checks`, the criteria reports and the
  majorant commands.  Term enumeration in the evaluator dominates.
- coeffs: `weight coeffs` tables and `sandwich_check` with a shared
  big-table cache.  The mpmath coefficient loop and the big-table rebuild
  dominate.
- counterexample: `cx contradict` with the four shipped radii, `cx scan`,
  `cx schwarz` and `cx build`.  `minmod_sup` dominates.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as ref

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

WORKLOADS = ("certify", "coeffs", "counterexample")

def import_weightlab():
    """Import weightlab from the checkout's src/, never from elsewhere."""
    pkg = SRC / "weightlab"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"weightlab sources not found at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import weightlab
    import weightlab.cli  # noqa: F401  (the CLI is an entry point of every workload)

    if Path(weightlab.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"weightlab imported from {weightlab.__file__}, not {pkg}")
    return weightlab


@dataclass
class Tally:
    """Operations attempted and failed, and every check that did not hold."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, Tally], None]


def run_cli(argv: list) -> tuple:
    """`weightlab <argv>` in-process: (exit code, stdout text)."""
    from weightlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))


def _same_grid(got, lo: float, hi: float, n: int) -> bool:
    want = _grid(lo, hi, n)
    return len(got) == n and all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want))


def _load(out, tally: Tally, what: str):
    """The JSON report of a CLI operation.  Its non-finite floats are the
    strings 'inf', '-inf' and 'nan', which float() reads back."""
    code, text = out[0], out[1]
    tally.require(code == 0, f"{what}: exit code {code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        tally.require(False, f"{what}: output is not JSON")
        return None


# ---------------------------------------------------------------------------
# certify

CONVERGENT, DIVERGENT = "convergent", "divergent"
# Known answers: finite products and these closed forms converge on all six
# conditions; powlog a=1,b=2 diverges on (i), (v), (vi) directly and on
# (ii)-(iv) by their equivalence with (i).
KNOWN = {
    "geometric:r=2": CONVERGENT,
    "power:a=2": CONVERGENT,
    "powlog:a=3,b=0": CONVERGENT,
    "powlog:a=1,b=2": DIVERGENT,
}
CONTRADICTS = {CONVERGENT: "divergent-trend", DIVERGENT: "convergent-certified"}


def explicit_spec(rng: random.Random, n: int = 200) -> str:
    """n zeros from 1 up to about 1e6, log-uniform gaps, 6 significant digits."""
    v, vals = 1.0, []
    for _ in range(n):
        v *= math.exp(rng.uniform(0.0, 0.14))
        vals.append(f"{v:.6g}")
    return "explicit:[" + ",".join(vals) + "]"


def eval_op(refs: ref.References, seq, spec: str, lo: float, hi: float, n: int) -> Op:
    """`weight eval` on a log grid; every [value, value+err] must meet the
    reference bracket, the lower side widened by the summation allowance."""
    argv = ["weight", "eval", "--seq", spec, "--grid", f"{lo!r}:{hi!r}:{n}"]
    sp = ref.parse_spec(spec)

    def check(out, tally):
        d = _load(out, tally, f"eval {spec}")
        if d is None:
            return
        pts = d["points"]
        tally.require(_same_grid([p["t"] for p in pts], lo, hi, n), f"eval {spec}: grid")
        for p in pts:
            tally.attempted += 1
            t, v, e = p["t"], float(p["log_abs_omega"]), float(p["err"])
            r_lo, r_hi = refs.real(sp, t)
            allow = ref.summation_allowance(ref.terms_bound(sp, t, seq.j_cut), r_hi)
            tally.require(e >= 0.0 and v - allow <= r_hi and v + e + allow >= r_lo,
                          f"eval {spec} t={t!r}: [{v!r}, +{e!r}] misses [{r_lo!r}, {r_hi!r}]")

    return Op(f"weight eval {sp.family}", lambda: run_cli(argv), check)


def complex_op(refs: ref.References, seq, spec: str, zs: list) -> Op:
    """ln|w(z)| at complex points, a library call (no CLI command prints it).
    |value - exact| <= err must hold up to the summation allowance."""
    sp = ref.parse_spec(spec)

    def run():
        from weightlab import weights

        w = weights.WeightEvaluator(seq)
        return [w.eval_log_abs_omega_complex(z) for z in zs]

    def check(out, tally):
        for z, (v, e) in zip(zs, out):
            tally.attempted += 1
            r_lo, r_hi = refs.complex(sp, z)
            # sum |terms| <= 2 ln w(-i|z|) - ln|w(z)|: positive parts are
            # bounded by ln(1 + |z|/t_j), and the signed sum is the value
            pos = refs.complex(sp, complex(0.0, -abs(z)))[1]
            allow = ref.summation_allowance(ref.terms_bound(sp, abs(z), seq.j_cut),
                                            2.0 * pos - r_lo)
            tally.require(e >= 0.0 and v - e - allow <= r_hi and v + e + allow >= r_lo,
                          f"complex {spec} z={z!r}: {v!r} +- {e!r} misses [{r_lo!r}, {r_hi!r}]")
        tally.require(len(out) == len(zs), f"complex {spec}: point count")

    return Op(f"eval complex {sp.family}", run, check)


def checks_op(spec: str, samples: int, seed: int) -> Op:
    """`weight checks`: the scaling and modulus inequalities are theorems,
    so every sample must pass."""
    argv = ["weight", "checks", "--seq", spec, "--samples", str(samples), "--seed", str(seed)]

    def check(out, tally):
        tally.attempted += 1
        d = _load(out, tally, f"checks {spec}")
        if d is None:
            return
        for key in ("scaling", "modulus_bound"):
            r = d[key]
            tally.require(r["passed"] and r["details"]["violations"] == 0,
                          f"checks {spec}: {key} reports violations")

    return Op(f"weight checks {ref.parse_spec(spec).family}", lambda: run_cli(argv), check)


def _check_diagnostics(diags: dict, known: str, tally: Tally, what: str) -> None:
    for cond, diag in diags.items():
        tally.require(diag["verdict"] != CONTRADICTS[known],
                      f"{what} ({cond}): verdict {diag['verdict']} but the series is {known}")
        ps = diag["partial_sums"]
        tally.require(all(b >= a for a, b in zip(ps, ps[1:])),
                      f"{what} ({cond}): partial sums of nonnegative terms decrease")
        tb = diag["tail_bound"]
        tally.require(tb is None or float(tb) >= 0.0, f"{what} ({cond}): negative tail bound")


def criteria_op(command: str, spec: str, known: str) -> Op:
    argv = ["criteria", command, "--seq", spec]

    def check(out, tally):
        tally.attempted += 1
        d = _load(out, tally, f"{command} {spec}")
        if d is not None:
            _check_diagnostics(d["diagnostics"], known, tally, f"{command} {spec}")

    return Op(f"criteria {command} {ref.parse_spec(spec).family}", lambda: run_cli(argv), check)


def alpha_op(refs: ref.References, seq, lo: float, hi: float, n: int) -> Op:
    """`majorant alpha` on geometric:r=2: ln|w| values are lower bounds,
    alpha + err dominates the exact ln|w| and does not decrease."""
    spec = "geometric:r=2"
    sp = ref.parse_spec(spec)
    argv = ["majorant", "alpha", "--seq", spec, "--grid", f"{lo!r}:{hi!r}:{n}"]

    def check(out, tally):
        tally.attempted += 1
        d = _load(out, tally, "majorant alpha")
        if d is None:
            return
        pts = d["points"]
        tally.require(d["dominates_log_weight"], "majorant alpha: domination flag off")
        tally.require(_same_grid([p["t"] for p in pts], lo, hi, n), "majorant alpha: grid")
        prev = -math.inf
        for p in pts:
            r_lo, r_hi = refs.real(sp, p["t"])
            a, ae, lv = float(p["alpha"]), float(p["alpha_err"]), float(p["log_abs_omega"])
            allow = ref.summation_allowance(ref.terms_bound(sp, p["t"], seq.j_cut), r_hi)
            tally.require(lv - allow <= r_hi and a + ae >= r_lo and a + ae >= prev,
                          f"majorant alpha t={p['t']!r}: alpha {a!r} vs ln|w| [{r_lo!r}, {r_hi!r}]")
            prev = a

    return Op("majorant alpha", lambda: run_cli(argv), check)


def beta_op(lo: float, hi: float, n: int) -> Op:
    argv = ["majorant", "beta", "--seq", "geometric:r=2", "--grid", f"{lo!r}:{hi!r}:{n}"]

    def check(out, tally):
        tally.attempted += 1
        d = _load(out, tally, "majorant beta")
        if d is None:
            return
        tally.require(d["beta_above_alpha"] and float(d["lambda"]) > 0.0, "majorant beta: flags")
        tally.require(_same_grid([p["t"] for p in d["points"]], lo, hi, n), "majorant beta: grid")
        tally.require(all(float(p["beta"]) > float(p["alpha"]) for p in d["points"]),
                      "majorant beta: beta <= alpha")

    return Op("majorant beta", lambda: run_cli(argv), check)


def sweep_op(trials: int, k_max: int, seed: int) -> Op:
    """`majorant sk-sweep`: S_k, C_k >= 0 is a theorem; S_1 = 0 exactly."""
    argv = ["majorant", "sk-sweep", "--trials", str(trials), "--k-max", str(k_max),
            "--seed", str(seed)]

    def check(out, tally):
        tally.attempted += 1
        d = _load(out, tally, "sk-sweep")
        if d is None:
            return
        tally.require(d["passed"] and not d["violations"], "sk-sweep: violations")
        tally.require(d["checked"] == trials * k_max, "sk-sweep: check count")
        s1 = [s for s in d["first_trial_samples"] if s["k"] == 1]
        tally.require(all(s["S_k"] == "0" for s in s1), "sk-sweep: S_1 != 0")

    return Op("majorant sk-sweep", lambda: run_cli(argv), check)


def build_certify(wl, rng: random.Random, refs: ref.References) -> list:
    specs = list(KNOWN) + [explicit_spec(rng)]
    known = dict(KNOWN, **{specs[-1]: CONVERGENT})
    seqs = {s: wl.parse_sequence_spec(s) for s in specs}
    ops = []
    for s in specs:
        ops.append(eval_op(refs, seqs[s], s, round(1.0 + rng.random(), 6), 1e7, 24))
        zs = []
        for _ in range(6):
            r, th = 10 ** rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0 * math.pi)
            zs.append(complex(round(r * math.cos(th), 6), round(r * math.sin(th), 6)))
        ops.append(complex_op(refs, seqs[s], s, zs))
        ops.append(checks_op(s, 8, rng.randrange(1000)))
        ops.append(criteria_op("omega6", s, known[s]))
        ops.append(criteria_op("classify", s, known[s]))
    hi = round(1e6 * (1.0 + rng.random()), 3)
    ops.append(alpha_op(refs, seqs["geometric:r=2"], 1.0, hi, 64))
    ops.append(beta_op(1.0, hi, 64))
    ops.append(sweep_op(40, 25, rng.randrange(1000)))
    return ops


# ---------------------------------------------------------------------------
# coeffs

def _log_concavity_slack(la: list) -> float:
    return 16 * ref.U64 * max(1.0, max(abs(v) for v in la if math.isfinite(v)))


def _check_table(spec: ref.Spec, n: int, K: int, d: dict, base: list, tally: Tally) -> None:
    """One `weight coeffs` table: bounded by the closed form, consistent
    with the n=1 table, log-concave, and the min/sup identity holds."""
    what = f"coeffs {spec.family} n={n}"
    la = [float(v) for v in d["log_a"]]
    tally.require(len(la) == K + 1 and la[0] == 0.0 and d["factors_used"] > 0,
                  f"{what}: table shape")
    slack = _log_concavity_slack(la)
    if spec.family in ("geometric", "power"):
        exact = ref.exact_log_a(spec, n, K)
        for k, (v, x) in enumerate(zip(la, exact)):
            tally.require(v <= float(x) + 4 * ref.U64 * max(1.0, abs(float(x))),
                          f"{what}: ln a_{k} = {v!r} exceeds the exact {float(x)!r}")
    if n > 1:
        # the n=1 entries carry their own float rounding into each product
        for k, (v, x) in enumerate(zip(la, ref.log_a_from_base(base, n))):
            ok = v == float(x) == -math.inf or abs(v - float(x)) <= (n + 2) * slack
            tally.require(ok, f"{what}: ln a_{k} = {v!r}, n-th power of n=1 table gives {float(x)!r}")
    for k in range(1, K):
        if all(math.isfinite(la[i]) for i in (k - 1, k, k + 1)):
            tally.require(2 * la[k] - la[k - 1] - la[k + 1] >= -4 * slack,
                          f"{what}: not log-concave at k={k}")
            # min over t of t^-k sup_p a_p t^p is attained at t = a_{k-1}/a_k
            x = la[k - 1] - la[k]
            top = max(v + (p - k) * x for p, v in enumerate(la) if math.isfinite(v))
            tally.require(abs(math.expm1(top - la[k])) <= 1e-4, f"{what}: inf/sup at k={k}")
    tally.require(all(r["rel_error"] < 1e-4 for r in d["inf_sup"]), f"{what}: reported inf/sup")


def coeffs_op(spec: str, ns: tuple, K: int, tol: float = None) -> Op:
    """`weight coeffs` for each power n; one table per attempted item."""
    sp = ref.parse_spec(spec)
    argvs = [["weight", "coeffs", "--seq", spec, "--n", str(n), "--K", str(K)]
             + (["--tol", repr(tol)] if tol is not None else []) for n in ns]

    def check(out, tally):
        tables = [_load(o, tally, f"coeffs {spec}") for o in out]
        if None in tables:
            return
        base = [float(v) for v in tables[0]["log_a"]]
        for n, d in zip(ns, tables):
            tally.attempted += 1
            _check_table(sp, n, K, d, base, tally)

    return Op(f"weight coeffs {sp.family}", lambda: [run_cli(a) for a in argvs], check)


def sandwich_op(refs: ref.References, seq, spec: str, n: int, tol: float, grid: list) -> Op:
    """`sandwich_check` along a grid with one big-table cache (a library call:
    the CLI has no command).  Every point must pass, and its left side
    sup_p a_p t^p <= |w(t)|^n must hold against the reference."""
    sp = ref.parse_spec(spec)

    def run():
        from weightlab import coeffs, weights

        w = weights.WeightEvaluator(seq)
        table = coeffs.coeff_table(seq, n, 40, tol=tol)
        cache = {}
        reps = [coeffs.sandwich_check(seq, n, t, w, table, big_table_cache=cache).to_dict()
                for t in grid]
        return [float(v) for v in table.log_a], reps

    def check(out, tally):
        la, reps = out
        tally.require(len(reps) == len(grid), "sandwich: point count")
        for t, r in zip(grid, reps):
            tally.attempted += 1
            r_lo, r_hi = refs.real(sp, t)
            top = max(v + p * math.log(t) for p, v in enumerate(la) if math.isfinite(v))
            allow = (n * ref.summation_allowance(ref.terms_bound(sp, t, seq.j_cut), r_hi)
                     + 64 * ref.U64 * (1.0 + abs(top)))
            tally.require(r["passed"] and r["details"]["left_margin"] >= 0.0,
                          f"sandwich t={t!r}: {r['details']['regime']} check failed")
            tally.require(top <= n * r_hi + allow,
                          f"sandwich t={t!r}: ln sup_p a_p t^p = {top!r} > n ln|w| <= {n * r_hi!r}")

    return Op(f"sandwich_check {sp.family}", run, check)


# Factor-count tolerances of the coefficient tables: None keeps weightlab's
# default (1e-12); the others give 2,048 factors, where the defaults would
# take 8,192 (power) and 30,000 (powlog) and a round would last 18 s.
COEFF_TOLS = {"geometric:r=2": None, "power:a=2": 1e-10, "powlog:a=1,b=2": 1e-6}


def build_coeffs(wl, rng: random.Random, refs: ref.References) -> list:
    # every spec is parsed here so that set-up pays for its validation
    seqs = {s: wl.parse_sequence_spec(s) for s in COEFF_TOLS}
    ops = [coeffs_op(s, (1, 2, 3), 40, tol) for s, tol in COEFF_TOLS.items()]
    # Six points from a seeded lo in [0.1, 0.2) to 2e3 use the K=40 table or
    # the big tables of K = 256 and 512, whatever the seed; two seeded points
    # in [2e5, 1e6) are past the big-table cap and take the evaluator bound.
    lo = round(0.1 * (1.0 + rng.random()), 6)
    grid = [float(t) for t in _grid(lo, 2e3, 6)]
    grid += sorted(round(10 ** rng.uniform(math.log10(2e5), 6.0), 3) for _ in range(2))
    # n = 2 so that the big tables are raised to a power (_log_poly_mul)
    spec = "powlog:a=1,b=2"
    ops.append(sandwich_op(refs, seqs[spec], spec, 2, COEFF_TOLS[spec], grid))
    return ops


# ---------------------------------------------------------------------------
# counterexample

CX_SPEC = "powlog:a=1,b=2"
CX_J_MAX = 60
SHIPPED_BETAS = ("const:0.001", "const:0.01", "loglinear:0.001", "trace")


@functools.cache
def cx_multiplicities() -> tuple:
    """n_j of the powlog source from the benchmark's own dyadic counting."""
    a, b = ref.parse_spec(CX_SPEC).params
    return tuple(ref.dyadic_multiplicities(a, b, CX_J_MAX))


def build_op() -> Op:
    argv = ["cx", "build", "--seq", CX_SPEC, "--j-max", str(CX_J_MAX)]

    def check(out, tally):
        tally.attempted += 1
        d = _load(out, tally, "cx build")
        if d is not None:
            mult = list(cx_multiplicities())
            tally.require(d["multiplicities"] == mult and d["total"] == sum(mult),
                          "cx build: multiplicities differ from the dyadic count")

    return Op("cx build", lambda: run_cli(argv), check)


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * (1.0 + abs(y))


def contradict_op(beta: str) -> Op:
    """`cx contradict` with JSON and CSV output.  Each level is one attempted
    item; a level whose minmod_sup is -inf is a counted failure (the scan
    interval collapses below the float spacing of 2^j)."""
    csv_path = OUT / "tmp" / f"contradict-{beta.replace(':', '_')}.csv"
    argv = ["cx", "contradict", "--seq", CX_SPEC, "--j-max", str(CX_J_MAX), "--beta", beta,
            "--csv", str(csv_path)]

    def run():
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        code, text = run_cli(argv)
        return code, text, csv_path.read_text()

    def check(out, tally):
        what = f"cx contradict {beta}"
        d = _load(out, tally, what)
        if d is None:
            return
        mult = cx_multiplicities()
        levels = ref.contradiction_levels(mult, beta, CX_J_MAX)
        rows = list(csv.DictReader(io.StringIO(out[2])))
        tally.require(len(rows) == len(levels), f"{what}: {len(rows)} CSV rows")
        tail = float(rows[-1]["rhs_tail_bound"]) if rows else math.nan
        tally.require(tail >= ref.rhs_tail_lower(mult, beta, CX_J_MAX),
                      f"{what}: rhs_tail_bound {tail!r} below the tail itself")
        rhs_upper = levels[-1].rhs_partial + tail
        witness = next((lv.j for lv in levels if lv.lhs_partial > rhs_upper), None)
        for row, lv in zip(rows, levels):
            tally.attempted += 1
            j, mm = int(row["j"]), float(row["minmod_sup"])
            tally.require(j == lv.j and int(row["n_j"]) == mult[j - 1], f"{what} j={j}: n_j")
            tally.require(_close(float(row["lhs_partial"]), lv.lhs_partial)
                          and _close(float(row["rhs_partial"]), lv.rhs_partial)
                          and _close(float(row["schwarz_rhs"]), lv.schwarz_rhs),
                          f"{what} j={j}: partial sums or Schwarz cap differ from mpmath")
            if mm == -math.inf:
                tally.failed += 1
                continue
            allow = ref.log_abs_f_allowance(mult, j, lv.beta)
            tally.require(mm <= lv.schwarz_rhs + allow,
                          f"{what} j={j}: minmod_sup {mm!r} > Schwarz cap {lv.schwarz_rhs!r}")
        s = d["summary"]
        tally.attempted += 1
        near_tie = witness is not None and _close(levels[witness - 1].lhs_partial, rhs_upper)
        tally.require(s["witness_index"] == witness or near_tie,
                      f"{what}: witness {s['witness_index']} but mpmath gives {witness}")
        tally.require(s["j0"] == 1 and s["j_max"] == CX_J_MAX and s["schwarz_violations"] == 0
                      and _close(float(s["lhs_final"]), levels[-1].lhs_partial)
                      and _close(float(s["rhs_upper"]), rhs_upper), f"{what}: summary")

    return Op(f"cx contradict {beta}", run, check)


SCAN_C = (0.5, 1.0, 2.0, 4.0)
SCAN_C_PRIME = (0.0, 1.0, 10.0)


def scan_op(lo: float, hi: float, n: int) -> Op:
    """`cx scan` with rho = geometric:r=2.  A larger radius c ln|rho| + c'
    widens the interval and lowers the bar -radius, so failures may only
    shrink as c or c' grows."""
    argv = ["cx", "scan", "--seq", CX_SPEC, "--rho", "geometric:r=2",
            "--t-grid", f"{lo!r}:{hi!r}:{n}"]

    def check(out, tally):
        tally.attempted += 1
        d = _load(out, tally, "cx scan")
        if d is None:
            return
        grid = d["scan"]["grid"]
        fails = {(g["c"], g["c_prime"]): set(g["failures"]) for g in grid}
        tally.require(sorted(fails) == sorted((c, cp) for c in SCAN_C for cp in SCAN_C_PRIME),
                      "cx scan: (c, c') grid")
        points = set(float(t) for t in _grid(lo, hi, n))
        for g in grid:
            f = fails[(g["c"], g["c_prime"])]
            tally.require(g["n_checked"] == n and g["all_pass"] == (not f)
                          and all(any(abs(t - p) <= 1e-12 * p for p in points) for t in f),
                          f"cx scan c={g['c']} c'={g['c_prime']}: report fields")
        for i, c in enumerate(SCAN_C):
            for k, cp in enumerate(SCAN_C_PRIME):
                wider = [(SCAN_C[i + 1], cp)] if i + 1 < len(SCAN_C) else []
                wider += [(c, SCAN_C_PRIME[k + 1])] if k + 1 < len(SCAN_C_PRIME) else []
                for key in wider:
                    tally.require(fails[key] <= fails[(c, cp)],
                                  f"cx scan: failures grow from c={c},c'={cp} to {key}")
        tally.require(d["scan"]["any_failures"] == any(fails.values()), "cx scan: any_failures")

    return Op("cx scan", lambda: run_cli(argv), check)


def schwarz_op(js: list, deltas: list, seed: int) -> Op:
    argv = ["cx", "schwarz", "--seq", CX_SPEC, "--seed", str(seed)]
    for j in js:
        argv += ["--j", str(j)]
    for dl in deltas:
        argv += ["--delta", repr(dl)]

    def check(out, tally):
        d = _load(out, tally, "cx schwarz")
        if d is None:
            return
        want = [(j, dl) for j in js for dl in deltas]
        got = d["results"]
        tally.require([(r["details"]["j"], r["details"]["delta"]) for r in got] == want,
                      "cx schwarz: (j, delta) list")
        for r in got:
            tally.attempted += 1
            tally.require(r["passed"] and r["details"]["violations"] == 0
                          and float(r["worst_margin"]) >= 0.0,
                          f"cx schwarz j={r['details']['j']}: Schwarz bound violated")

    return Op("cx schwarz", lambda: run_cli(argv), check)


def build_counterexample(wl, rng: random.Random, refs: ref.References) -> list:
    for s in (CX_SPEC, "geometric:r=2"):
        wl.parse_sequence_spec(s)
    ops = [contradict_op(b) for b in SHIPPED_BETAS]
    ops.append(scan_op(round(2.0 + 2.0 * rng.random(), 6), 65536.0, 16))
    ops.append(schwarz_op(sorted(rng.sample(range(3, 41), 3)), [0.5, 0.1], rng.randrange(1000)))
    ops.append(build_op())
    return ops


BUILDERS = {
    "certify": build_certify,
    "coeffs": build_coeffs,
    "counterexample": build_counterexample,
}


def setup(workload: str, seed: int) -> list:
    """Everything before the first operation: import weightlab, parse every
    sequence spec, build the objects the library calls use, draw inputs."""
    wl = import_weightlab()
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](wl, rng, ref.References())


def check_rounds(ops: list, outputs: list) -> Tally:
    """Check round 1 against the references; every later round must repeat
    it exactly, since reports are deterministic."""
    tally = Tally()
    for op, out in zip(ops, outputs[0]):
        try:
            op.check(out, tally)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            tally.require(False, f"{op.name}: malformed output ({type(exc).__name__}: {exc})")
    for k, outs in enumerate(outputs[1:], start=2):
        for op, first, again in zip(ops, outputs[0], outs):
            tally.require(first == again, f"{op.name}: round {k} output differs from round 1")
    return tally
