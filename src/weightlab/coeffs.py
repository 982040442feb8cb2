"""Coefficient tables for powers of the squared weight.

a_k is the square root of the u^k coefficient in prod_j (1 + u/t_j^2)^n
(indexing by powers of z^2, the only nonzero ones).  One builder makes
every table.  The n = 1 coefficients, the elementary symmetric functions
e_k of the 1/t_j^2, come from a DP in np.longdouble that scales index k
by the product of the k largest factors, so every multiplier is at most 1.
The first K factors enter one at a time; the factors past K enter in
blocks of up to BLOCK, each folded in as one product of the state with
the block's polynomial.  The polynomials of CHUNK blocks are formed
together, as a balanced product tree whose levels each multiply adjacent
pairs in one convolution.  The n-th power is a log-space convolution of
that table, also in long double.  All terms are positive, so nothing
cancels, and the rounding bound is read from np.finfo(np.longdouble).eps,
never hard-coded: long double is plain float64 on some platforms.  The DP
is within gamma_{J' + (B + 9) K} (Higham, 2nd ed., section 4.2), J' the
factor count with the last block padded to B.  trunc_error_rel bounds the
relative error of every a_k: the omitted factors, which shrink it by at
most exp(nK * tail) - 1, plus that rounding bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .sampling import zoom_max
from .sequences import ExplicitFamily, TermPrefix, ZeroSequence
from .weights import WeightEvaluator, CheckReport

NEG_INF = float("-inf")
FLOAT = np.longdouble
# cap on the factor count of a table of an infinite sequence
MAX_FACTORS = 30_000
# largest degree sandwich_check builds a big table for
K_ADAPT_CAP = 6000
# factors past K go through the DP this many at a time
BLOCK = 64
# blocks whose polynomials are formed together
CHUNK = 16


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


def _base_table(seq: ZeroSequence, K: int, tol: float) -> _BaseTable:
    """ln e_k, k <= K, of the first J factors 1/t_j^2 (t_j nondecreasing).

    Index k holds E_k = (t_1 ... t_k)^2 e_k / 2^shift_k, e_k the k-th
    elementary symmetric function of the factors so far.  Factor m maps
    E_k to E_k + E_{k-1} (t_k/t_m)^2: every multiplier is at most 1, E_m
    starts at exactly 1, and E_{k-1} <= k E_k, so a factor grows E_k at
    most (k+1)-fold.  The K head factors go one at a time.  The factors
    past K go B at a time: with c_l = (t_l/t_K)^2 and s_m = (t_K/t_m)^2,
    both at most 1, a block with polynomial q = prod_m (1 + s_m v) maps
    E_k to sum_i E_{k-i} W_{k,i} q_i, W_{k,i} = prod_{l=k-i+1..k} c_l
    times the offsets' power of two.  The last block is padded with
    s = 0, an exact factor 1.  The q of CHUNK blocks come from one product
    tree (_block_polys).  Between blocks (and every 16 head factors)
    an entry past fold_at = sqrt(max) is scaled into [1/2, 1) by a power
    of two, which goes into shift_k; B is small enough that (K+1)^B <=
    fold_at/4, so no entry and no W_{k,i} overflows within a block.  An
    increment too small for FLOAT is below the entry it joins by far more
    than eps.
    """
    # the smallest doubling J >= 16 with sum_{j>J} 1/t_j^2 <= tol, then at
    # least K + 1 so that every a_k is positive, within the budgets
    j_max, tail = seq.cutoff(seq.family.inv_sq_tail, tol, 16, min(seq.j_cut, MAX_FACTORS), K + 1)
    t = seq.terms(1, j_max)
    n_finite = int(np.count_nonzero(np.isfinite(t)))  # t is nondecreasing
    if n_finite < j_max and not isinstance(seq.family, ExplicitFamily):
        # a dropped zero would turn positive a_k into -inf
        raise ValueError(
            f"{seq.spec_string()}: t_{n_finite + 1} overflows "
            f"float64, and the table needs {j_max} factors"
        )
    t = t[:n_finite]
    top = min(K, len(t))
    # the head in FLOAT; the tail stays float64 and is widened per chunk
    t_head = t[:top].astype(FLOAT)
    n_tail = len(t) - top
    fold_at = np.sqrt(np.finfo(FLOAT).max)
    B = n_blocks = 0
    if n_tail:
        B = int(min(BLOCK, n_tail, (np.log2(fold_at) - 2) // math.log2(top + 1)))
        n_blocks = -(-n_tail // B)
    # two rows of B zeros and E: a block reads one row and writes the other
    rows = np.zeros((2, B + top + 1), dtype=FLOAT)
    e = rows[0, B:]
    e[0] = 1
    shift = np.zeros(top + 1, dtype=np.int64)
    gain = np.ones(top, dtype=FLOAT)  # 2^(shift_{k-1} - shift_k)
    x = np.empty(top, dtype=FLOAT)
    for m in range(top):
        x[: m + 1] = e[: m + 1] * (t_head[: m + 1] / t_head[m]) ** 2 * gain[: m + 1]
        e[1 : m + 2] += x[: m + 1]
        if m % 16 == 15 and _fold(e, shift, fold_at):
            gain = np.ldexp(FLOAT(1), shift[:-1] - shift[1:])
    if n_blocks:
        c = (t_head / t_head[-1]) ** 2
        W = _block_gains(c, shift, B)
        windows = sliding_window_view(rows, B + 1, axis=1)
        cur = 0
        for first in range(0, n_blocks, CHUNK):
            s = np.zeros((min(CHUNK, n_blocks - first), B), dtype=FLOAT)
            t_m = t[top + first * B : top + (first + len(s)) * B]
            s.flat[: len(t_m)] = (t_head[-1] / t_m) ** 2
            for q in _block_polys(s):
                if _fold(rows[cur, B:], shift, fold_at):
                    W = _block_gains(c, shift, B)
                np.einsum("kj,kj,j->k", windows[cur], W, q[::-1], out=rows[1 - cur, B:])
                cur = 1 - cur
        e = rows[cur, B:]
    log_kept = np.log(e)
    log_offset = shift * np.log(FLOAT(2))
    log_2t = 2 * np.log(t_head)
    log_e = np.full(K + 1, NEG_INF, dtype=FLOAT)
    log_e[: top + 1] = log_kept + log_offset - np.concatenate(([0], np.cumsum(log_2t)))
    sum_abs = np.concatenate(([0], np.cumsum(np.abs(log_2t))))
    mag = 1.0 + float(np.max(np.abs(log_kept) + np.abs(log_offset) + sum_abs))
    # each squared quotient counts 3 roundings, each product and each sum
    # 1 (Higham, 2nd ed., section 4.2).  A head factor gives every path
    # through the DP 1 rounding, and 8 to one that advances.  A block
    # gives B, from its sum of B + 1 terms, and 2B + 8i + 1 <= B + (B + 9)i
    # to one that advances by i >= 1: two products, 4i - 1 in W_{k,i} and
    # 4i + B in q_i, the product tree's count (at most 1 + min(i, 2^l) at
    # level l, the padded terms exact).  So E_k is within
    # gamma_{top + n_blocks B + (B+9)k}.
    per_advance = B + 9 if n_blocks else 8
    return _BaseTable(log_e, j_max, tail, top + n_blocks * B + per_advance * top, mag)


def _fold(e: np.ndarray, shift: np.ndarray, fold_at) -> bool:
    """Scale every entry of e past fold_at into [1/2, 1), adding the power
    of two to shift; whether any was."""
    big = e > fold_at
    if not big.any():
        return False
    _, s = np.frexp(e[big])
    e[big] = np.ldexp(e[big], -s)
    shift[big] += s
    return True


def _block_gains(c: np.ndarray, shift: np.ndarray, B: int) -> np.ndarray:
    """W[k, B - i] = 2^(shift_{k-i} - shift_k) prod_{l=k-i+1..k} c_l, the
    multiplier that carries E_{k-i} to index k across a block, for
    0 <= i <= B (0 for i > k); the columns run in the order of a window
    E_{k-B} .. E_k."""
    top = len(c)
    c_pad = np.concatenate((np.zeros(B, dtype=c.dtype), c))
    W = np.empty((top + 1, B + 1), dtype=c.dtype)
    W[:, B] = 1
    for i in range(1, B + 1):
        np.multiply(W[:, B - i + 1], c_pad[B - i : B - i + top + 1], out=W[:, B - i])
    if shift.any():
        shift_pad = np.concatenate((np.zeros(B, dtype=shift.dtype), shift))
        np.ldexp(W, sliding_window_view(shift_pad, B + 1) - shift[:, None], out=W)
    return W


def _block_polys(s: np.ndarray) -> np.ndarray:
    """Row b holds the coefficients of prod_m (1 + s[b, m] v), lowest power
    first: each entry q_i is positive and at most C(B, i).

    A balanced product tree: B is padded to a power of two with s = 0, an
    exact factor 1, and each level multiplies adjacent pairs of
    polynomials of every row in one convolution.  q_0 = 1 exactly.  Level
    l, whose factors have degree 2^l, adds at most 1 + min(i, 2^l)
    roundings to q_i: one product and the sum, and a product with the
    constant 1 or with a padded term is exact.  Over the ceil(log2 B)
    levels that is at most 4i + B.
    """
    nb, B = s.shape
    q = np.zeros((nb, 1 << (B - 1).bit_length(), 2), dtype=s.dtype)
    q[:, :, 0] = 1
    q[:, :B, 1] = s
    while q.shape[1] > 1:
        d = q.shape[2] - 1
        # the left factor between d zeros each side, read in windows of d + 1
        # (as sliding_window_view would, without its checks)
        pad = np.zeros((nb, q.shape[1] // 2, 3 * d + 1), dtype=s.dtype)
        pad[:, :, d : 2 * d + 1] = q[:, 0::2]
        windows = as_strided(pad, pad.shape[:2] + (2 * d + 1, d + 1), pad.strides + pad.strides[-1:],
                             writeable=False)
        q = np.einsum("bnij,bnj->bni", windows, q[:, 1::2, ::-1])
    return q[:, 0, : B + 1]


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
    try:
        trunc_error_rel = math.expm1(n * K * base.tail + rounding)
    except OverflowError:
        raise ValueError(
            f"J = {base.factors_used} factors (capped at min(j_cut, "
            f"{MAX_FACTORS})) omit a tail sum_(j>J) 1/t_j^2 = {base.tail:.3g}: "
            f"the error bound exp(n K tail) - 1 overflows, so no a_k is certified"
        ) from None
    return CoeffTable(
        n=n,
        K=K,
        log_a=(0.5 * log_full).astype(float),
        trunc_error_rel=trunc_error_rel,
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

    @property
    def rel_error(self) -> float:
        return abs(math.expm1(self.log_lhs - self.log_rhs))


def inf_sup_identity(table: CoeffTable, ks) -> list:
    """Numerical check of min_{t>0} t^-k sup_p a_p t^p = a_k for each k in ks.

    The candidate minimizer t* = a_{k-1}/a_k (where the max term switches
    from index k-1 to k) is evaluated directly, and centres a 96-point grid
    in ln t, +-3 wide, that zoom_max searches for the minimum.  The ks are
    searched together, one zoom_max row each.
    """
    la = table.log_a
    for k in ks:
        if not (1 <= k <= table.K - 1):
            raise IdentityInapplicableError(f"k={k} outside [1, K-1]")
        if la[k] == NEG_INF or la[k - 1] == NEG_INF:
            raise IdentityInapplicableError("identity inapplicable: zero coefficient")
    if not len(ks):
        return []
    k = np.asarray(ks, dtype=int)
    log_t_star = la[k - 1] - la[k]
    p = np.arange(table.K + 1)

    def neg_objective(log_t: np.ndarray) -> np.ndarray:
        """k ln t - max_p (ln a_p + p ln t), the negated objective, row by row."""
        return k[:, None] * log_t - np.max(la + log_t[..., None] * p, axis=-1)

    grid = np.linspace(log_t_star - 3.0, log_t_star + 3.0, 96, axis=-1)
    at_star = -neg_objective(log_t_star[:, None])[:, 0]
    found = -zoom_max(neg_objective, grid)
    best = np.where(at_star < found, at_star, found)  # as min(found, at_star)
    return [InfSupResult(k=int(kk), log_lhs=float(b), log_rhs=float(la[kk]))
            for kk, b in zip(k, best)]


def log_convexity_margins(table: CoeffTable) -> np.ndarray:
    """2 ln a_k - ln a_{k-1} - ln a_{k+1} for 1 <= k <= K-1 (nan where zero)."""
    la = table.log_a
    with np.errstate(invalid="ignore"):
        margins = 2.0 * la[1:-1] - la[:-2] - la[2:]
    zero = la == NEG_INF
    margins[zero[:-2] | zero[1:-1] | zero[2:]] = np.nan
    return margins


def log_convexity_check(table: CoeffTable) -> CheckReport:
    """a_k^2 >= a_{k-1} a_{k+1} (1 - trunc)^3 on the table."""
    margins = log_convexity_margins(table)
    allowed = 3.0 * math.log1p(-min(table.trunc_error_rel, 0.5)) - 1e-12
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
    used, and the regime is "sup-capped".  `w` must evaluate `seq`: the
    two must have the same key.
    """
    if w.sequence.key != seq.key:
        # (parameters, j_cut): two sequences may print the same spec string
        raise ValueError(f"sandwich_check: the evaluator is of {w.sequence.spec_string()} "
                         f"{w.sequence.key[1:]}, the tables of {seq.spec_string()} {seq.key[1:]}")
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
        need = n * TermPrefix.of(seq).count_leq(y) + 64
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
