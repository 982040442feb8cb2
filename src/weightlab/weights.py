"""Evaluation of ln|w| for canonical products w(z) = prod (1 + iz/t_j).

A point z (real t is z = t + 0i) sums the zeros t_1..t_J, where the
family's tail bound sets J (capped by j_cut), in two ways:

- its head, every t_j <= |z|/_EPS rounded up to a _SERIES_BLOCK boundary,
  and the last incomplete block, by the log of each factor;
- the complete blocks past the head by the power series
  ln|1 + iz/t_j| = Re sum_k (-1)^(k+1) (iz/t_j)^k / k, cut after
  k = _ORDER, from sums of t_j^-k computed once per block.  What the cut
  omits is at most
  |z|^(K+1) sum_j t_j^-(K+1) / ((K+1)(1 - _EPS)), K = _ORDER.

err is the bound on the zeros past J plus that remainder.  At a real
point every omitted term is nonnegative and the cut series ends on a
negative term, so eval_log_abs_omega returns (value, err) with the true
ln|w(t)| inside [value, value + err].  Complex-argument sums can err
either way; there |true - value| <= err.

Accumulation is in fixed order, bit-deterministic and thread-count
independent: one float64 sum per ZERO_CHUNK logs, one correctly rounded
sum over the far blocks, Neumaier-compensated across the parts.  The
zeros and the blocks' power sums are kept on the process's TermPrefix of
the sequence, which every evaluator of it shares.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .sequences import SERIES_BLOCK as _SERIES_BLOCK
from .sequences import SERIES_ORDER as _ORDER
from .sequences import ZERO_CHUNK, ExplicitFamily, TermPrefix, ZeroSequence

NEG_INF = float("-inf")
# the far-zero series: a zero is far from z once |z|/t_j <= _EPS; it keeps
# _ORDER terms, from the power sums the TermPrefix keeps per _SERIES_BLOCK
# zeros
_EPS = 2.0**-6
_SERIES_COEF = np.array([(-1.0) ** (k + 1) / k for k in range(1, _ORDER + 1)])


def _check_finite_real(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"argument must be finite, got {t!r}")
    return t


def _finite_result(x, value: float, err: float) -> tuple[float, float]:
    """(value, err), or ValueError once float64 overflow made either one
    inf or nan (t^2/t_j^2 overflows past t ~ 1e154 for t_1 ~ 1)."""
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ValueError(
            f"ln|w| at {x!r} overflows float64 (value {value!r}, err {err!r})"
        )
    return value, err


def _compensated_sum(parts) -> float:
    """Neumaier-compensated sum of the floats in parts, in their order."""
    total = comp = 0.0
    for part in parts:
        s = total + part
        comp += (total - s) + part if abs(total) >= abs(part) else (part - s) + total
        total = s
    return total + comp


@dataclass
class WeightEvaluator:
    """Truncated evaluator of ln|w| with a certified tail bound.

    The enumeration length at argument t is the smallest J with
    (t^2/2) * sum_{j>J} 1/t_j^2 <= tol (capped by sequence.j_cut); the
    actual certified bound at the chosen J, plus the far-zero series'
    remainder, is reported as err.  The zeros and their power sums are read
    from TermPrefix.of(sequence) in every call; sums of logs run in two
    scratch rows of ZERO_CHUNK entries.
    """

    sequence: ZeroSequence
    tol: float = 1e-12

    def __post_init__(self):
        self._scratch = np.empty((2, ZERO_CHUNK))  # pages are touched on use

    def _cutoff(self, point, x: float, bound) -> tuple[int, float]:
        """J and bound(J), bound(J) bounding what the zeros past J add: from
        past the last zero <= x, at least 16, doubled until bound(J) <= tol.
        The zeros <= x are counted on the prefix when it reaches past x or
        holds all j_cut of them.  x is about 8|point|, and a closed-form
        family cannot count up to x = inf, where ln|w(point)| overflows
        float64; an explicit list is taken whole, uncounted."""
        seq = self.sequence
        n = 0
        if not isinstance(seq.family, ExplicitFamily):
            if x == math.inf:
                raise ValueError(f"ln|w| at {point!r} overflows float64 (8|z| = inf)")
            n = TermPrefix.of(seq).count_leq(x, seq.j_cut)
        return seq.cutoff(bound, self.tol, max(16, n), seq.j_cut)

    def _choose_cutoff(self, t: float) -> tuple[int, float]:
        """J and tail bound for the real log-sum: from past the last zero
        <= 8t, doubled until (t^2/2) sum_{j>J} 1/t_j^2 <= tol."""
        fam = self.sequence.family
        return self._cutoff(t, 8.0 * t, lambda j: 0.5 * t * t * fam.inv_sq_tail(j))

    def eval_log_abs_omega(self, t: float) -> tuple[float, float]:
        """(value, err): value <= ln|w(t)| <= value + err.

        ln|w(t)| = (1/2) sum_j ln(1 + t^2/t_j^2); the tail past J is
        bounded by (t^2/2) sum_{j>J} 1/t_j^2 since ln(1+x) <= x.  A factor
        whose t^2/t_j^2 overflows is -2 ln t_j + ln(t_j^2 + t^2).  Raises
        ValueError when float64 overflow leaves value or err non-finite.
        """
        t = _check_finite_real(t)
        if t < 0:
            raise ValueError("argument must be nonnegative")
        if t == 0.0:
            return 0.0, 0.0
        j_max, err = self._choose_cutoff(t)

        def log_chunk(tj, rows):
            r = np.divide(t, tj, out=rows[0])
            return np.log1p(np.multiply(r, r, out=r), out=r)

        def scaled_log(tj):
            return np.log(tj * tj + t * t) - 2.0 * np.log(tj)

        value, rem = self._log_sum(complex(t, 0.0), t, j_max, log_chunk, scaled_log)
        return _finite_result(t, value, err + rem)

    def _log_sum(self, z: complex, r: float, j_max: int, log_chunk, scaled_log
                 ) -> tuple[float, float]:
        """(value, series remainder bound) of ln|w(z)| over the finite
        t_1..t_{j_max}, r = |z|: (1/2) the sum of log_chunk(tj, scratch
        rows) over ZERO_CHUNK-term chunks of the head and of the last
        incomplete block, plus the series over the complete blocks between
        them; value -inf when log_chunk returns None (an exact zero).  In a
        chunk whose sum comes out non-finite, scaled_log(tj) recomputes the
        non-finite logs (a zero far below |z|); other chunks take no extra
        pass."""
        zeros = TermPrefix.of(self.sequence)
        terms = zeros.finite(j_max)
        b = _SERIES_BLOCK
        n = len(terms) // b  # complete blocks
        h = -(-int(terms.searchsorted(r / _EPS, "right")) // b) if n else 0  # head blocks
        runs = (terms,) if h >= n else (terms[: h * b], terms[n * b :])
        parts = []
        for run in runs:
            for start in range(0, len(run), ZERO_CHUNK):
                tj = run[start : start + ZERO_CHUNK]
                # an overflow reaches the result as inf or nan, which callers reject
                with np.errstate(over="ignore"):
                    logs = log_chunk(tj, self._scratch[:, : len(tj)])
                    if logs is None:
                        return NEG_INF, 0.0
                    part = float(np.sum(logs))
                    if not math.isfinite(part):
                        bad = ~np.isfinite(logs)
                        logs[bad] = scaled_log(tj[bad])
                        part = float(np.sum(logs))
                parts.append(0.5 * part)
        if h >= n:
            return _compensated_sum(parts), 0.0
        far, rem = self._series(z, r, zeros, h, n)
        return _compensated_sum(parts + [far]), rem

    def _series(self, z: complex, r: float, zeros: TermPrefix, lo: int, hi: int
                ) -> tuple[float, float]:
        """Re sum_{k <= _ORDER} (-1)^(k+1) (iz)^k P_k / k, P_k the sum of
        t_j^-k over the complete blocks lo..hi-1 of zeros, and the bound
        r^(K+1) P_(K+1) / ((K+1)(1 - _EPS)) on what the cut omits.  Block b
        enters as (iz/s_b)^k times its scaled sums, |iz/s_b| < 2 _EPS, so
        nothing overflows; the blocks' values are summed correctly rounded."""
        scale, powsums = zeros.power_sums(hi, self._scratch)
        w = (1j * z) / scale[lo:hi]
        pw = np.cumprod(np.broadcast_to(w, (_ORDER + 1, hi - lo)), axis=0)  # w^1..w^(K+1)
        sums = powsums[:, lo:hi]
        value = math.fsum(np.sum(_SERIES_COEF[:, None] * pw[:_ORDER].real * sums[:_ORDER], axis=0))
        rem = math.fsum(np.abs(pw[_ORDER]) * sums[_ORDER]) / ((_ORDER + 1) * (1.0 - _EPS))
        return value, rem

    def _complex_cutoff(self, z: complex) -> tuple[int, float]:
        """J and two-sided tail bound for the complex log-sum.

        Factor: ln|1+iz/t_j| = (1/2) ln(1 + u_j) with
        u_j = (|z|^2 - 2 Im(z) t_j)/t_j^2, |u_j| <= |z|^2/t_j^2 + 2|Im z|/t_j.
        For t_j large enough that |u_j| <= 1/2, |(1/2) ln(1+u_j)| <= |u_j|,
        so the tail is bounded by |z|^2 S2(J) + 2|Im z| S1(J).
        """
        fam = self.sequence.family
        r = math.hypot(z.real, z.imag)
        b = abs(z.imag)
        return self._cutoff(z, max(8.0 * r, 2.0),
                            lambda j: r * r * fam.inv_sq_tail(j) + 2.0 * b * fam.inv_tail(j))

    def eval_log_abs_omega_complex(self, z: complex) -> tuple[float, float]:
        """(value, err) with |ln|w(z)| - value| <= err; -inf at an exact zero.

        |1 + iz/t_j|^2 = (1 - Im z/t_j)^2 + (Re z/t_j)^2, or, where that
        overflows, t_j^-2 ((t_j - Im z)^2 + (Re z)^2).  Any other non-finite
        value or err (float64 overflow) raises ValueError.
        """
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"argument must be finite, got {z!r}")
        if z == 0:
            return 0.0, 0.0
        j_max, err = self._complex_cutoff(z)
        a, b = z.real, z.imag

        def log_chunk(tj, rows):
            # (1 - b/tj)^2 + (a/tj)^2
            sq = np.subtract(1.0, np.divide(b, tj, out=rows[0]), out=rows[0])
            sq_a = np.divide(a, tj, out=rows[1])
            np.add(np.multiply(sq, sq, out=sq), np.multiply(sq_a, sq_a, out=sq_a), out=sq)
            return None if np.any(sq == 0.0) else np.log(sq, out=sq)

        def scaled_log(tj):
            return np.log((tj - b) ** 2 + a * a) - 2.0 * np.log(tj)

        value, rem = self._log_sum(z, math.hypot(a, b), j_max, log_chunk, scaled_log)
        return (NEG_INF, 0.0) if value == NEG_INF else _finite_result(z, value, err + rem)


def big_N(seq: ZeroSequence, t):
    """(N(t), argmax) with N(t) = ln max(1, sup_k t^k/(t_1...t_k)), t finite
    and > 0: a float and an int for one t, an array and a list for an array.

    The summands ln t - ln t_j are nonnegative exactly while t_j <= t, so
    the sup over k <= cap = seq.term_cap is attained at k = min(n(t), cap),
    where N(t) = k ln t - sum_{j<=k} ln t_j; the argmax is 0 when N(t) = 0.
    All points share one cumulative sum of ln t_j over the TermPrefix, in
    ZERO_CHUNK-term pieces from j = 1, so a point's value does not depend on
    the other points."""
    ts = np.array(t, dtype=float).reshape(-1)
    bad = ts[~np.isfinite(ts)]
    if bad.size:
        raise ValueError(f"argument must be finite, got {float(bad[0])!r}")
    if (ts <= 0).any():
        raise ValueError("argument must be positive")
    cap = seq.term_cap
    ks = np.array([min(k, cap) for k in seq.count_leq(ts)], dtype=np.int64)
    k_top = int(ks.max(initial=0))
    tj = TermPrefix.of(seq).finite(k_top)  # t_j <= t is finite for j <= k
    cum = np.zeros(len(ks))  # sum_{j<=k} ln t_j per point
    done = 0.0
    for start in range(0, k_top, ZERO_CHUNK):
        logs = np.cumsum(np.log(tj[start : start + ZERO_CHUNK]))
        at = (ks > start) & (ks <= start + ZERO_CHUNK)
        cum[at] = done + logs[ks[at] - start - 1]
        done += float(logs[-1])
    values = np.maximum(0.0, ks * np.log(ts) - cum)
    argmax = np.where(values > 0.0, ks, 0).tolist()
    return (values, argmax) if np.ndim(t) else (float(values[0]), argmax[0])


@dataclass
class CheckReport:
    """Outcome of a sampled inequality check."""

    name: str
    passed: bool
    worst_margin: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "details": self.details,
        }


def scaling_inequality_check(
    w: WeightEvaluator,
    L: float,
    samples: int = 50,
    t_lo: float = 1.0,
    t_hi: float = 1e4,
) -> CheckReport:
    """Check ln|w(L t)| <= L^2 ln|w(t)| on a log grid, L >= 1.

    margin(t) = L^2 v(t) - v(Lt); since v(Lt) <= ln|w(Lt)| <= L^2 ln|w(t)|
    <= L^2 (v(t) + err(t)), a margin below -L^2 err(t) is a real violation.
    """
    if L < 1.0:
        raise ValueError("scaling check needs L >= 1")
    from .sampling import log_grid

    grid = log_grid(t_lo, t_hi, samples)
    worst = math.inf
    worst_t = None
    violations = 0
    for t in grid:
        v_t, err_t = w.eval_log_abs_omega(float(t))
        v_lt, _ = w.eval_log_abs_omega(float(L * t))
        margin = L * L * v_t - v_lt
        if margin < worst:
            worst, worst_t = margin, float(t)
        if margin < -(L * L * err_t):
            violations += 1
    return CheckReport(
        name="scaling-inequality",
        passed=violations == 0,
        worst_margin=worst,
        details={"L": L, "worst_t": worst_t, "violations": violations},
    )


def modulus_bound_check(
    w: WeightEvaluator, samples: int, rng_seed: int, radius: float = 1e3
) -> CheckReport:
    """Check ln|w(z)| <= ln w(-i|z|) at random z in a disk.

    Slack is the sum of the two certified truncation errors; a -inf value
    on the left passes trivially.
    """
    import random

    rng = random.Random(rng_seed)
    worst = math.inf
    violations = 0
    for _ in range(samples):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        z = cmath.rect(r, theta)
        lhs, err_l = w.eval_log_abs_omega_complex(z)
        if lhs == NEG_INF:
            continue
        rhs, err_r = w.eval_log_abs_omega_complex(complex(0.0, -abs(z)))
        margin = rhs - lhs
        worst = min(worst, margin)
        if margin < -(err_l + err_r):
            violations += 1
    return CheckReport(
        name="modulus-bound",
        passed=violations == 0,
        worst_margin=worst,
        details={"samples": samples, "violations": violations, "radius": radius},
    )


def strong_nqa_tail_check(seq: ZeroSequence, K: int) -> tuple[float, CheckReport]:
    """c_min = max_{k<=K} (t_k/k)(sum_{j>=k} 1/t_j), with a certified tail.

    The sums past K are closed with the family's inv_tail bound.  A finite,
    stabilized c_min certifies sum_{j>=k} 1/t_j <= c k/t_k up to level K.
    When the maximum over k <= K exceeds the one over k <= K/2 (it has not
    stabilized), the report flags "sufficient condition not certified".
    """
    tail_K = seq.family.inv_tail(K)
    terms = seq.terms(1, K).tolist()
    # t_k sum_{j>=k} 1/t_j = s_k + t_k tail_K with s_k = sum_{j=k..K} t_k/t_j
    # from the quotients t_k/t_(k+1) <= 1: s_k = 1 + (t_k/t_(k+1)) s_(k+1).
    # No 1/t_j is formed, so a subnormal zero does not overflow.
    ratios = np.zeros(K)
    s, t_next = 0.0, math.inf
    for k in range(K, 0, -1):
        t_k = terms[k - 1]
        if math.isfinite(t_k):
            s = 1.0 + t_k / t_next * s
            ratios[k - 1] = (s + t_k * tail_K) / k
        t_next = t_k
    c_min = float(np.max(ratios))
    k_at = int(np.argmax(ratios)) + 1
    half = float(np.max(ratios[: max(1, K // 2)]))
    stabilized = c_min <= half * (1.0 + 1e-9)
    details = {
        "K": K,
        "c_min": c_min,
        "argmax_k": k_at,
        "certified": stabilized,
    }
    if not stabilized:
        details["status"] = "sufficient condition not certified"
    return c_min, CheckReport(
        name="strong-nqa-tail",
        passed=math.isfinite(c_min),
        worst_margin=c_min,
        details=details,
    )
