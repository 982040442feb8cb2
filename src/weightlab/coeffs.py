"""Coefficient tables for powers of the squared weight.

a_k is the square root of the u^k coefficient in prod_j (1 + u/t_j^2)^n
(indexing by powers of z^2, the only nonzero ones).  One builder makes
every table.  The n = 1 coefficients, the elementary symmetric functions
e_k of the 1/t_j^2, come from a DP in np.longdouble that scales index k
by the product of the k largest factors, so every multiplier is at most 1;
the n-th power is a log-space convolution of that table, also in long
double.  All terms are positive, so nothing cancels, and the rounding
bound is read from np.finfo(np.longdouble).eps, never hard-coded: long
double is plain float64 on some platforms.  trunc_error_rel bounds the
relative error of every a_k: the omitted factors, which shrink it by at
most exp(nK * tail) - 1, plus that rounding bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sequences import ExplicitFamily, ZeroSequence
from .weights import WeightEvaluator, CheckReport

NEG_INF = float("-inf")
FLOAT = np.longdouble
# cap on the factor count of a table of an infinite sequence
MAX_FACTORS = 30_000
# largest degree sandwich_check builds a big table for
K_ADAPT_CAP = 6000


class IdentityInapplicableError(ValueError):
    """Raised when a degenerate table makes the min/sup identity undefined."""


@dataclass
class CoeffTable:
    n: int
    K: int
    log_a: np.ndarray  # ln a_k, -inf where a_k = 0
    trunc_error_rel: float
    factors_used: int


@dataclass(frozen=True)
class _BaseTable:
    """ln e_k for n = 1, in FLOAT, with what the error bound needs."""

    log_e: np.ndarray
    factors_used: int
    tail: float  # sum of the omitted 1/t_j^2
    dp_rounding: int  # DP rounding error of ln e_k, in units of eps
    mag: float  # bound on the magnitude of every logarithm summed


def _pick_factor_count(seq: ZeroSequence, K: int, tol: float) -> tuple[int, float]:
    """Smallest doubling J >= 16 with sum_{j>J} 1/t_j^2 <= tol, then at
    least K + 1 so that every a_k is positive, within the budgets."""
    fam = seq.family
    if isinstance(fam, ExplicitFamily):
        return len(fam.values), 0.0
    cap = min(seq.j_cut, MAX_FACTORS)
    j = 16
    while j < cap and fam.inv_sq_tail(j) > tol:
        j = min(cap, j * 2)
    j = min(cap, max(j, K + 1))
    return j, fam.inv_sq_tail(j)


def _base_table(seq: ZeroSequence, K: int, tol: float) -> _BaseTable:
    """ln e_k, k <= K, of the first J factors 1/t_j^2 (t_j nondecreasing).

    Index k holds E_k = (t_1 ... t_k)^2 e_k / 2^shift_k, e_k the k-th
    elementary symmetric function of the factors so far.  Factor m maps
    E_k to E_k + E_{k-1} (t_k/t_m)^2: every multiplier is at most 1, E_m
    starts at exactly 1, and by Newton's inequalities E_k grows at most
    m-fold.  Once m >= K the multiplier is split as c_k s_m, with
    c_k = (t_k/t_K)^2 and s_m = (t_K/t_m)^2 both at most 1, so a step is
    one scalar and one array product.  Every 16 factors an entry past
    sqrt(max) is scaled into [1/2, 1) by a power of two, which goes into
    shift_k.  An increment too small for FLOAT is below the entry it
    joins by far more than eps.
    """
    j_max, tail = _pick_factor_count(seq, K, tol)
    t = np.fromiter(map(seq.term, range(1, j_max + 1)), dtype=FLOAT, count=j_max)
    t = t[np.isfinite(t)]
    top = min(K, len(t))
    fold_at = np.sqrt(np.finfo(FLOAT).max)
    e = np.zeros(top + 1, dtype=FLOAT)
    e[0] = 1
    shift = np.zeros(top + 1, dtype=np.int64)
    gain = np.ones(top, dtype=FLOAT)  # 2^(shift_{k-1} - shift_k)
    c = (t[:top] / t[top - 1]) ** 2
    cg = c  # c_k 2^(shift_{k-1} - shift_k)
    x = np.empty(top, dtype=FLOAT)
    for m in range(len(t)):
        k = min(m + 1, top)
        if m < top:
            x[:k] = e[:k] * (t[:k] / t[m]) ** 2 * gain[:k]
        else:
            np.multiply(e[:top], (t[top - 1] / t[m]) ** 2, out=x)
            x *= cg
        e[1 : k + 1] += x[:k]
        if m % 16 == 15 and np.max(e) > fold_at:
            big = e > fold_at
            _, s = np.frexp(e[big])
            e[big] = np.ldexp(e[big], -s)
            shift[big] += s
            gain = np.ldexp(FLOAT(1), shift[:-1] - shift[1:])
            cg = c * gain
    log_kept = np.log(e)
    log_offset = shift * np.log(FLOAT(2))
    log_2t = 2 * np.log(t[:top])
    log_e = np.full(K + 1, NEG_INF, dtype=FLOAT)
    log_e[: top + 1] = log_kept + log_offset - np.concatenate(([0], np.cumsum(log_2t)))
    sum_abs = np.concatenate(([0], np.cumsum(np.abs(log_2t))))
    mag = 1.0 + float(np.max(np.abs(log_kept) + np.abs(log_offset) + sum_abs))
    # an increment carries at most 8 roundings (each squared quotient
    # counts 3, each product 1) into a positive sum: E_k after m factors
    # is within gamma_{m + 8k} (Higham, 2nd ed., section 4.2)
    return _BaseTable(log_e, j_max, tail, len(t) + 8 * top, mag)


def _power_table(base: _BaseTable, n: int) -> CoeffTable:
    """The table of the n-th power: the only place a CoeffTable is built.

    The error of ln e_k^n, in units of the FLOAT eps, is at most n times
    that of ln e_k: the DP's, plus (K + 8) mag from the logarithms and the
    offsets.  Each convolution adds at most 4 mag + K + ln((K+1)/eps) + 8.
    Rounding ln a_k to float64 adds one float64 eps times mag.
    """
    log_full = base.log_e
    for _ in range(n - 1):
        log_full = _log_poly_mul(log_full, base.log_e)
    K = len(log_full) - 1
    eps = float(np.finfo(FLOAT).eps)
    mag = max(base.mag, float(np.max(np.abs(log_full[np.isfinite(log_full)]))))
    per_mul = 4 * mag + K + math.log((K + 1) / eps) + 8
    rounding = (eps * (n * (base.dp_rounding + (K + 8) * mag) + (n - 1) * per_mul)
                + float(np.finfo(float).eps) * mag)
    return CoeffTable(
        n=n,
        K=K,
        log_a=(0.5 * log_full).astype(float),
        trunc_error_rel=math.expm1(n * K * base.tail + rounding),
        factors_used=base.factors_used,
    )


def coeff_table(seq: ZeroSequence, n: int, K: int, tol: float = 1e-12) -> CoeffTable:
    """Table of a_0..a_K for the n-th power.

    The factor count J is the smallest doubling from 16 with
    sum_{j>J} 1/t_j^2 <= tol, raised to K + 1 and capped by MAX_FACTORS
    and the sequence budget; an explicit list uses all its zeros.
    """
    if n < 1 or K < 1:
        raise ValueError("need n >= 1 and K >= 1")
    return _power_table(_base_table(seq, K, tol), n)


def coeff_table_log(seq: ZeroSequence, n: int, K: int, cache: dict) -> CoeffTable:
    """coeff_table(seq, n, K) for sandwich_check's big tables, with the
    n = 1 table of degree K kept in cache for every power.  The benchmark's
    tracer (bench/tracing.py) records the big tables under this name."""
    base_key = ("base", K)
    if base_key not in cache:
        cache[base_key] = _base_table(seq, K, 1e-12)
    return _power_table(cache[base_key], n)


def _log_poly_mul(lp: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """ln of the coefficients of the product of two series, truncated at
    the degree of lp, in the dtype of the inputs.  Terms below the largest
    by a factor eps/(K+1) are dropped; together they are below one eps."""
    K = len(lp) - 1
    cut = math.log(float(np.finfo(lp.dtype).eps) / (K + 1))
    out = np.full(K + 1, NEG_INF, dtype=lp.dtype)
    for p in range(K + 1):
        terms = lp[: p + 1] + lq[p::-1]
        m = np.max(terms)
        if m == NEG_INF:
            continue
        out[p] = m + np.log(np.sum(np.exp(terms[terms > m + cut] - m)))
    return out


@dataclass
class SupPolyResult:
    log_value: float
    argmax: int

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


def sup_poly(table: CoeffTable, t: float) -> SupPolyResult:
    """sup_{0<=p<=K} a_p t^p, computed as max_p (ln a_p + p ln t)."""
    if not (t > 0) or not math.isfinite(t):
        raise ValueError("need finite t > 0")
    logs = table.log_a + np.arange(table.K + 1) * math.log(t)
    p = int(np.argmax(logs))
    return SupPolyResult(log_value=float(logs[p]), argmax=p)


@dataclass
class InfSupResult:
    k: int
    log_lhs: float
    log_rhs: float
    minimizer: float

    @property
    def rel_error(self) -> float:
        return abs(math.expm1(self.log_lhs - self.log_rhs))


def inf_sup_identity(table: CoeffTable, k: int, search_grid: int = 96) -> InfSupResult:
    """Numerical check of min_{t>0} t^-k sup_p a_p t^p = a_k.

    The candidate minimizer t* = a_{k-1}/a_k (where the max term switches
    from index k-1 to k) seeds a log-spaced grid that golden-section
    refinement then sharpens.
    """
    if not (1 <= k <= table.K - 1):
        raise IdentityInapplicableError(f"k={k} outside [1, K-1]")
    la = table.log_a
    if la[k] == NEG_INF or la[k - 1] == NEG_INF:
        raise IdentityInapplicableError("identity inapplicable: zero coefficient")

    log_t_star = la[k - 1] - la[k]

    def objective(log_t: float) -> float:
        logs = la + np.arange(table.K + 1) * log_t
        return float(np.max(logs)) - k * log_t

    lo, hi = log_t_star - 3.0, log_t_star + 3.0
    grid = np.linspace(lo, hi, search_grid)
    vals = [objective(x) for x in grid]
    i = int(np.argmin(vals))
    a = grid[max(0, i - 1)]
    b = grid[min(len(grid) - 1, i + 1)]
    # golden-section refinement on [a, b]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    best = min(min(vals), fc, fd, objective(log_t_star))
    return InfSupResult(k=k, log_lhs=best, log_rhs=float(la[k]), minimizer=math.exp(log_t_star))


def log_convexity_margins(table: CoeffTable) -> np.ndarray:
    """2 ln a_k - ln a_{k-1} - ln a_{k+1} for 1 <= k <= K-1 (nan where zero)."""
    la = table.log_a
    out = np.full(table.K - 1, np.nan)
    for k in range(1, table.K):
        if la[k - 1] > NEG_INF and la[k] > NEG_INF and la[k + 1] > NEG_INF:
            out[k - 1] = 2.0 * la[k] - la[k - 1] - la[k + 1]
    return out


def log_convexity_check(table: CoeffTable, slack_factor: float = 3.0) -> CheckReport:
    """a_k^2 >= a_{k-1} a_{k+1} (1 - trunc)^slack_factor on the table."""
    margins = log_convexity_margins(table)
    allowed = slack_factor * math.log1p(-min(table.trunc_error_rel, 0.5)) - 1e-12
    finite = margins[~np.isnan(margins)]
    worst = float(np.min(finite)) if len(finite) else 0.0
    return CheckReport(
        name="log-convexity",
        passed=bool(np.all(finite >= allowed)),
        worst_margin=worst,
        details={"allowed": allowed, "checked": int(len(finite))},
    )


def sandwich_check(
    seq: ZeroSequence,
    n: int,
    t: float,
    w: WeightEvaluator,
    table: CoeffTable,
    big_table_cache: Optional[dict] = None,
) -> CheckReport:
    """Two-sided check of  sup_p a_p t^p <= |w(t)^n| <= sqrt2 sup_p a_p (sqrt2 t)^p.

    Left side: ln sup(table, t) <= n (v(t)+err(t)) + slack; valid for any
    truncation since dropping factors only shrinks the coefficients.

    Right side: n v(t) <= (1/2) ln2 + ln sup(table', sqrt2 t) + slack,
    certified when the max term of the full product sits strictly inside
    the table (detected from the last coefficient ratio).  When the given
    table is too short, a big table of degree K_big up to K_ADAPT_CAP is
    taken from coeff_table_log and kept in big_table_cache.  For larger t
    the weaker evaluator form n v(t) <= (1/2) ln2 + n (v+err)(sqrt2 t) is
    used, and the regime is "sup-capped".
    """
    v_t, err_t = w.eval_log_abs_omega(t)
    y = math.sqrt(2.0) * t
    v_y, err_y = w.eval_log_abs_omega(y)
    tiny = 1e-9

    left = sup_poly(table, t)
    left_slack = n * err_t + math.log1p(table.trunc_error_rel) + tiny
    left_margin = n * v_t + n * err_t + math.log1p(table.trunc_error_rel) + tiny - left.log_value

    rhs_table = table
    peak_ok = _interior_sup(rhs_table, y)
    if not peak_ok and big_table_cache is not None:
        # the max term of the n-th power sits near n * n(y)
        need = n * seq.count_leq(y) + 64
        if need <= K_ADAPT_CAP:
            K_big = max(256, 1 << (need - 1).bit_length())
            key = (n, K_big)
            if key not in big_table_cache:
                big_table_cache[key] = coeff_table_log(seq, n, K_big, big_table_cache)
            rhs_table = big_table_cache[key]
            peak_ok = _interior_sup(rhs_table, y)
    if peak_ok:
        sup_y = sup_poly(rhs_table, y)
        rhs = 0.5 * math.log(2.0) + sup_y.log_value + math.log1p(rhs_table.trunc_error_rel)
        regime = "table"
    else:
        rhs = 0.5 * math.log(2.0) + n * (v_y + err_y)
        regime = "sup-capped"
    right_margin = rhs + tiny - n * v_t

    passed = left_margin >= 0.0 and right_margin >= 0.0
    return CheckReport(
        name="coefficient-sandwich",
        passed=passed,
        worst_margin=min(left_margin, right_margin),
        details={
            "t": t,
            "n": n,
            "regime": regime,
            "left_margin": left_margin,
            "right_margin": right_margin,
            "left_slack": left_slack,
        },
    )


def _interior_sup(table: CoeffTable, y: float) -> bool:
    """Whether the max term of the untruncated product certifiably sits
    at index < K: the coefficient sequence is log-concave after square
    roots, so a strictly falling last ratio pins the peak inside.  A zero
    last coefficient means a finite product, all of it in the table."""
    la = table.log_a
    if la[-1] == NEG_INF or la[-2] == NEG_INF:
        return True
    last_ratio = la[-1] - la[-2] + math.log(y)
    guard = 2.0 * math.log1p(table.trunc_error_rel) + 1e-9
    return last_ratio < -guard
