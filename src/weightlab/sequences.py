"""Zero sequences: closed-form families, exact counting, certified tail bounds.

A zero sequence is a nondecreasing sequence 0 < t_1 <= t_2 <= ... (entries may
be +inf from some index on, meaning a finite product).  Four families ship:

    geometric:r=<r>          t_j = r^j,  r > 1
    power:a=<a>              t_j = j^a,  a > 1
    powlog:a=<a>,b=<b>       t_j = j (ln j)^a (lnln j)^b for j >= 3,
                             t_1 = t_2 = t_3;  needs a > 1, or a = 1 and b > 1
    explicit:[v1,v2,...]     finite nondecreasing list, +inf beyond

Each family defines t_j once, as a numpy expression over an array of indices
(`_at`).  Enumeration, single terms and the exact zero count n(t) all read
it, so n(t) counts exactly the zeros that every sum includes.  Each family
also carries analytic tail bounds for the sums its series diagnostics need.
Every tail-bound method documents the inequality it uses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from math import lgamma
from typing import Optional

import numpy as np

from .tails import (
    TINY,
    inv_log_pow_tail,
    inv_loglog_pow_tail,
    log_pow_integral,
    log_pow_over_pow_tail,
    poly_geom_tail,
)

LN2 = math.log(2.0)


class SequenceSpecError(ValueError):
    """Malformed sequence spec string; carries the offending position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class DivergenceCertificate:
    """Analytic witness that a nonnegative series diverges."""

    reason: str


# the zero count reads t_j at float indices up to 2^1023, the largest power
# of two below 2^1024, which no longer converts to a float
_TOP = 2.0 ** (sys.float_info.max_exp - 1)
_ONE_BITS, _TOP_BITS = np.array([1.0, _TOP]).view(np.int64)
_INNER = np.arange(1, 64)  # a search cell's inner points, in steps
# the search's cells after eight rounds: 1023 * 2^52 bit patterns split 64
# ways eight times, 16,368 each.  The ninth round splits a cell at steps of
# ceil(16,368/64) = 256 patterns, 3e-14 to 6e-14 of the index; its points
# about a cell's start, from the last one of the cell before (-240) to the
# second one of the cell after:
_CELL = int(_TOP_BITS - _ONE_BITS) >> 48
_NINTH = np.concatenate(([63 * 256 - _CELL], 256 * np.arange(64), [_CELL, _CELL + 256]))
# below 2^45 one index spans at least 256 bit patterns, a ninth-round step
_INT_SEED = 2.0**44
# a seed's four bracket ends about the estimate: three candidate cells
_AROUND = np.arange(-2.0, 2.0)
_LO_HI = np.array([-1, 0])
_SPAN_BITS = np.array([_ONE_BITS, _TOP_BITS])
_LN_MAX = math.log(sys.float_info.max)
# x and 1/x square to normal floats for 1/_SQ_SAFE <= x <= _SQ_SAFE
_SQ_SAFE = 1e150
# zeros per piece of every pass over t_j: a kept prefix's fills, the
# evaluator's log sums, the N profile and the index series
ZERO_CHUNK = 2**15
# the evaluator's far-zero series keeps SERIES_ORDER terms (even, so a
# real point's cut series lies below its sum); a TermPrefix keeps the sums
# of t_j^-k, k = 1..SERIES_ORDER+1, per SERIES_BLOCK zeros
SERIES_BLOCK = 1 << 12
SERIES_ORDER = 8


def _last_index(x: float) -> int:
    """The largest integer j with float(j) == x, for an integer-valued x >= 1:
    past 2^53, j rounds to the nearest float, ties to an even mantissa."""
    ulp = int(math.ulp(x))
    return int(x) + ulp // 2 - (int(x) // ulp) % 2 if ulp > 1 else int(x)


def index_terms(cond: str, tj: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The terms of the index series of `cond` at the zeros tj, indices jj:
    i : ln^+(t_j/j)/t_j,  v : ln^+ln(j)/t_j,  vi : ln^+ln(t_j)/t_j,
    and 0 where t_j = +inf.  The one definition of these terms."""
    finite = np.isfinite(tj)
    with np.errstate(divide="ignore", invalid="ignore"):
        if cond == "i":
            return np.where(finite, np.maximum(0.0, np.log(tj / jj)) / tj, 0.0)
        if cond == "v":
            lg = np.where(jj >= 3, np.log(np.log(np.maximum(jj, 3.0))), 0.0)
            return np.where(finite, np.maximum(0.0, lg) / tj, 0.0)
        if cond == "vi":
            lt = np.where(tj > 1.0, np.log(tj), 1.0)
            return np.where(finite & (tj > 1.0), np.maximum(0.0, np.log(lt)) / tj, 0.0)
    raise ValueError(f"unknown condition {cond!r}")


class Family:
    """Base class: exact enumeration plus certified tail bounds.  Each
    family sets params, the tuple of exact floats that define its t_j."""

    params: tuple

    # the first index at which omega0_flag reads t_j/j
    _ratio_from = 1

    # -- enumeration ------------------------------------------------------
    def _at(self, j: np.ndarray) -> np.ndarray:
        """t_j at an array of integer-valued float indices j >= 1; an index
        past 2^53 is the float it rounds to.  The one definition of t_j."""
        raise NotImplementedError

    def terms(self, j_from: int, j_to: int) -> np.ndarray:
        """t_j for j in [j_from, j_to]."""
        return self._at(np.arange(j_from, j_to + 1, dtype=float))

    def _index_estimate(self, t: np.ndarray) -> Optional[np.ndarray]:
        """A float index x with t_x close to each threshold t >= t_1, from
        the family's closed form, or None.  count_leq checks what it
        brackets, so the estimate needs no error bound."""
        return None

    def _seed(self, flat: np.ndarray, first: float) -> tuple[np.ndarray, np.ndarray]:
        """count_leq's first cells: a verified bracket about the family's
        estimate, else [1, 2^1023].

        Below 2^44 the candidates are [m, m+1] for the three integers m
        about the estimate: a closed cell.  Past it they are the three
        cells of the search's ninth round about it, from which the search
        goes on exactly as from [1, 2^1023].  Either way the search from
        [1, 2^1023] would reach the same count: t at the checked ends is on
        the right side of the threshold, and t is nondecreasing over steps
        of a ninth-round cell (240 or 256 bit patterns): float rounding in
        _at moves t by far less than a cell's relative step of 3e-14 or
        more.
        """
        x = self._index_estimate(np.maximum(flat, first))
        if x is None:
            return np.full(flat.shape, _ONE_BITS), np.full(flat.shape, _TOP_BITS)
        p = np.floor(x) + 1.0  # the first index past the estimate
        ends = (p + _AROUND).view(np.int64)
        far = p[:, 0] > _INT_SEED
        if far.any():
            cell, within = np.divmod(x[far].view(np.int64) - _ONE_BITS, _CELL)
            ends[far] = _ONE_BITS + cell * _CELL + _NINTH[within // 256 + np.arange(len(_AROUND))]
        ends = np.minimum(np.maximum(ends, _ONE_BITS), _TOP_BITS)
        # the search's rule: the cell ends at the first end past the
        # threshold; it holds the threshold if the first end does not pass
        # it and the last does
        ok = self._at(np.floor(ends.view(float))) <= flat
        got = ok[:, :1] > ok[:, -1:]  # t at x(lo) <= threshold < t at x(hi)
        at = np.arange(0, ends.size, len(_AROUND)) + ok.argmin(axis=1)
        cells = np.where(got, ends.ravel()[at[:, None] + _LO_HI], _SPAN_BITS)
        return cells[:, :1], cells[:, 1:]

    def count_leq(self, t):
        """Exact n(t) = #{j : t_j <= t}: an int for one threshold, a list of
        ints for an array of them.  Each count n has t_n <= t < t_{n+1}.

        The search runs over the bit patterns b of the floats x in
        [1, 2^1023], which order like the floats, and reads t at the
        integer floor(x), so t is nondecreasing in b.  It starts from a
        verified closed-form bracket (_seed), or from [1, 2^1023] where
        there is none.  Each step splits every cell [lo, hi] into 64 and
        keeps the part before the first inner point where t exceeds the
        threshold.  A cell is closed once its two indices are adjacent
        integers, or adjacent floats past 2^53; each round takes only the
        rows whose cells are still open.
        """
        flat = np.array(t, dtype=float).reshape(-1, 1)
        if np.isnan(flat).any():
            raise ValueError("zero count n(t) needs a number, got nan")
        first, last = self._at(np.array([1.0, _TOP]))
        if (flat >= last).any():
            raise ValueError(
                f"zero count n({flat[flat >= last][0]:g}) reaches 2^1023, and the next "
                "index bracket 2^1024 no longer converts to a float"
            )
        below = flat < first  # no zero, and a cell closed from the start
        lo, hi = self._seed(flat, first)
        x_lo = np.floor(lo.view(float))
        live = ~below & (hi - lo != 1) & (np.floor(hi.view(float)) - x_lo != 1)
        rows = np.flatnonzero(live)  # the rows whose cells are open
        lo, hi, flat = lo[rows], hi[rows], flat[rows]
        while rows.size:
            step = (hi - lo + 63) >> 6
            ok = self._at(np.floor((lo + step * _INNER).view(float))) <= flat
            c = ok.cumprod(axis=1).sum(axis=1, keepdims=True)
            lo, hi = lo + step * c, np.minimum(hi, lo + step * (c + 1))
            x = np.floor(lo.view(float))
            shut = ((hi - lo == 1) | (np.floor(hi.view(float)) - x == 1))[:, 0]
            if shut.any():
                # a closed cell leaves the search with its lower index
                x_lo[rows[shut]] = x[shut]
                live = ~shut
                rows, lo, hi, flat = rows[live], lo[live], hi[live], flat[live]
        counts = [0 if z else _last_index(x) for z, x in zip(below.flat, x_lo.flat)]
        return counts if np.ndim(t) else counts[0]

    # -- certified tails ---------------------------------------------------
    def _head(self, k_from: int, k0: int, summand) -> float:
        """sum of summand(k, t_k) over k_from < k <= k0; 0 when empty."""
        if k_from >= k0:
            return 0.0
        k = np.arange(k_from + 1, k0 + 1, dtype=float)
        return float(np.sum(summand(k, self._at(k))))

    def inv_tail(self, k_from: int) -> float:
        """Upper bound for sum_{k > k_from} 1/t_k."""
        raise NotImplementedError

    def inv_sq_tail(self, k_from: int) -> float:
        """Upper bound for sum_{k > k_from} 1/t_k^2."""
        raise NotImplementedError

    def cum_log_lower(self, m: int) -> float:
        """Lower bound for sum_{k <= m} ln t_k."""
        raise NotImplementedError

    # -- classification ----------------------------------------------------
    def index_series_tail(self, cond: str, k_from: int) -> Optional[float]:
        """Certified bound for sum_{k > k_from} of the index series of
        `cond`, or None: the terms up to the family's _index_onset summed
        exactly by index_terms, the rest bounded by _index_far_tail."""
        k0 = max(k_from, self._index_onset)
        far = self._index_far_tail(cond, k0)
        if far is None:
            return None
        return self._head(k_from, k0, lambda k, tk: index_terms(cond, tk, k)) + far

    def _index_far_tail(self, cond: str, k0: int) -> Optional[float]:
        """Analytic bound for sum_{k > k0} of the index series of `cond`,
        k0 >= _index_onset, or None where none is known."""
        return None

    def index_series_divergence(self, cond: str) -> Optional[DivergenceCertificate]:
        return None

    def dyadic_nqa_tail(self, profile: str, J: int) -> float:
        """Certified bound for the nqa tail sum_{j>J} P(2^j)/2^j, profile P
        in {"n", "N", "lnw"}.

        sum_{j>J} P(2^j)/2^j <= 2 int_T^inf P(t)/t^2 dt at T = 2^(J+1);
        for P = n the integral is n(T)/T + sum_{t_k > T} 1/t_k, and for
        P = N or ln|w| (N <= ln|w|) the closed form of
        int_T^inf ln(1+t^2/a^2)/t^2 dt gives
        ln|w|-majorant(T)/T + n(T)/T + (pi/2) sum_{t_k>T} 1/t_k.
        """
        T = 2.0 ** (J + 1)
        nT = self.count_leq(T)
        if profile == "n":
            return 2.0 * (nT / T + self.inv_tail(nT))
        g = self._log_weight_majorant(J + 1, nT)
        return 2.0 * (g / T + nT / T + 0.5 * math.pi * self.inv_tail(nT))

    def dyadic_weighted_tail(self, profile: str, j_from: int) -> Optional[float]:
        """Certified tail of the msnq series sum_{j > j_from} (P(2^j)/2^j) w(j).

        profile in {"n", "N", "lnw"}, and w(j) = ln(2^j / P(2^(j+1)))
        clamped at 0.  Returns None when no certificate is available.
        """
        return None

    def dyadic_divergence(self, profile: str) -> Optional[DivergenceCertificate]:
        return None

    def spec_string(self) -> str:
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------
    def _log_weight_majorant(self, j: int, n: int) -> float:
        """Upper bound for ln|w(2^j)| usable inside tail sums, n = n(2^j).

        ln prod (1+t^2/t_k^2)^(1/2) <= sum_{t_k <= t} (ln sqrt(2) + ln(t/t_k))
        + (t^2/2) sum_{t_k > t} 1/t_k^2, evaluated at t = 2^j with exact
        counting and the family lower bound on the cumulated logs.
        """
        t = 2.0**j
        head = n * (0.5 * LN2 + j * LN2) - self.cum_log_lower(n)
        extra = 0.5 * t * t * self.inv_sq_tail(n)
        return head + extra

    def _msnq_weight_bound(self, profile: str, j: int, n_low: int) -> float:
        """Upper bound for ln(2^j / P(2^(j+1))) in a term with P(2^j) > 0,
        from the exact count n_low = n(2^(j+1)/e), clamped at 0:
        negative-log terms never enter the diagnostics.

        P(t) >= n(t/e) holds for P = n (n is nondecreasing), P = N (each
        factor t/t_k >= e contributes at least 1) and P = ln|w| (each zero
        t_k <= t/e contributes (1/2) ln(1 + t^2/t_k^2) >= (1/2) ln(1 + e^2)
        > 1).  With no such zero, the first one still gives n(2^(j+1)) >= 1,
        N(2^(j+1)) >= ln 2 (P(2^j) > 0 means t_1 < 2^j) and ln|w(2^(j+1))|
        >= (1/2) ln(1 + 4^(j+1)/t_1^2).
        """
        if n_low >= 1 or profile == "n":
            ln_p = math.log(max(n_low, 1))
        elif profile == "N":
            ln_p = math.log(LN2)
        else:
            # q = 2^(j+1)/t_1 < e here.  (1/2) ln(1 + q^2) >= q^2/4 for
            # q^2 <= 2.5, taken in logs where q^2 would leave the normal range
            q = 2.0 ** (j + 1) / self.terms(1, 1)[0]
            ln_p = math.log(0.5 * math.log1p(q**2)) if q >= 1 / _SQ_SAFE else 2.0 * (math.log(q) - LN2)
        return max(0.0, j * LN2 - ln_p)

    def _dyadic_terms_upper(self, profile: str, j_from: int, j_to: int) -> list:
        """Upper bounds for the msnq-series terms at levels j_from..j_to,
        from exact counts n(2^j) and n(2^(j+1)/e) of every level in one call."""
        levels = np.arange(j_from, j_to + 1, dtype=float)
        if not len(levels):
            return []
        # 2^j (2/e) is 2^(j+1)/e to the bit, and finite at j = 1023
        counts = self.count_leq(np.concatenate((2.0**levels, 2.0**levels * (2.0 / math.e))))
        out = []
        for j, n, n_low in zip(range(j_from, j_to + 1), counts, counts[len(levels):]):
            p_up = float(n) if profile == "n" else self._log_weight_majorant(j, n)
            out.append(p_up / 2.0**j * self._msnq_weight_bound(profile, j, n_low))
        return out


class GeometricFamily(Family):
    """t_j = r^j with r > 1."""

    def __init__(self, r: float):
        if not (r > 1.0) or not math.isfinite(r):
            raise SequenceSpecError("geometric family needs r > 1")
        self.r = float(r)
        self.params = (self.r,)
        self._lnr = math.log(self.r)
        self._r2 = self.r**2 if self.r <= _SQ_SAFE else math.inf

    def _at(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.r**j

    def _index_estimate(self, t: np.ndarray) -> np.ndarray:
        return np.log(t) / self._lnr

    def inv_tail(self, k_from: int) -> float:
        return self._power_tail(1, k_from)

    def inv_sq_tail(self, k_from: int) -> float:
        return self._power_tail(2, k_from)

    def _power_tail(self, p: int, k_from: int) -> float:
        """sum_{k > K} r^-pk = r^-pK / (r^p - 1), exact.  Where that
        underflows, or r^p overflows, its logarithm -p(K+1) ln r -
        ln(1 - r^-p) is exponentiated instead, and a result below the float
        range is the smallest positive float."""
        tail = self.r ** (-p * k_from) / ((self.r if p == 1 else self._r2) - 1.0)
        if tail > 0:
            return tail
        log_tail = -p * (k_from + 1) * self._lnr - math.log(-math.expm1(-p * self._lnr))
        return max(math.exp(log_tail), TINY)

    def cum_log_lower(self, m: int) -> float:
        # exact: sum_{k<=m} k ln r = m(m+1) ln(r) / 2
        return 0.5 * m * (m + 1) * self._lnr

    _index_onset = 2

    def _index_far_tail(self, cond: str, k0: int) -> float:
        # terms <= c k^p (ln k)^q r^-k for k > k0 >= 2, so ln k >= 1
        if cond == "i":
            # ln(t_k/k) <= k ln r
            return poly_geom_tail(self._lnr, 1, 0, 1.0 / self.r, k0 + 1)
        if cond == "v":
            # lnln k <= ln k
            return poly_geom_tail(1.0, 0, 1, 1.0 / self.r, k0 + 1)
        # ln ln t_k = ln(k ln r) <= ln k + |ln ln r| <= (1+|ln ln r|) ln k
        return poly_geom_tail(1.0 + abs(math.log(self._lnr)), 0, 1, 1.0 / self.r, k0 + 1)

    def log_weight_quadratic(self, j0: int) -> float:
        """q with ln|w(2^j)| <= q j^2 for every j >= j0 >= 1.

        n(2^j) <= j ln2/ln r + 1, and the leftover tail term is bounded by
        r^2/(2(r^2-1)) since t_(n+1) > t forces r^-2n < r^2/t^2, so
        ln|w(2^j)| <= (j ln2/ln r + 1)(j + 0.5) ln2 + r^2/(2(r^2-1)).
        """
        # 1/2 where r^2 overflows: r^2/(2(r^2-1)) rounds to it there
        c_sq = self._r2 / (2.0 * (self._r2 - 1.0)) if self._r2 < math.inf else 0.5
        return (LN2 / self._lnr + 1.0 / j0) * (1.0 + 0.5 / j0) * LN2 + c_sq / j0**2

    def dyadic_weighted_tail(self, profile: str, j_from: int) -> float:
        # the msnq weight is at most j ln 2
        j0 = max(j_from + 1, 3)
        head = sum(self._dyadic_terms_upper(profile, j_from + 1, j0 - 1))
        if profile == "n":
            # n(2^j) <= (ln2/ln r + 1/j0) j
            return head + poly_geom_tail((LN2 / self._lnr + 1.0 / j0) * LN2, 2, 0, 0.5, j0)
        # N <= ln|w|
        return head + poly_geom_tail(self.log_weight_quadratic(j0) * LN2, 3, 0, 0.5, j0)

    def spec_string(self) -> str:
        return f"geometric:r={self.r:g}"


class PowerFamily(Family):
    """t_j = j^a with a > 1."""

    def __init__(self, a: float):
        if not (a > 1.0) or not math.isfinite(a):
            raise SequenceSpecError("power family needs a > 1")
        self.a = float(a)
        self.params = (self.a,)

    def _at(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return j**self.a

    def _index_estimate(self, t: np.ndarray) -> np.ndarray:
        return t ** (1.0 / self.a)

    def inv_tail(self, k_from: int) -> float:
        # sum_{k>K} k^-a <= integral_K^inf x^-a dx = K^(1-a)/(a-1), K >= 1
        k = max(k_from, 1)
        return k ** (1.0 - self.a) / (self.a - 1.0)

    def inv_sq_tail(self, k_from: int) -> float:
        k = max(k_from, 1)
        return k ** (1.0 - 2.0 * self.a) / (2.0 * self.a - 1.0)

    def cum_log_lower(self, m: int) -> float:
        # exact: a * ln(m!)
        return self.a * lgamma(m + 1.0)

    _index_onset = 3

    def _index_far_tail(self, cond: str, k0: int) -> float:
        # terms <= c ln k / k^a for k > k0 >= 3
        if cond == "i":
            # ln(t_k/k) = (a-1) ln k
            return log_pow_over_pow_tail(self.a - 1.0, 1, self.a, k0)
        if cond == "v":
            return log_pow_over_pow_tail(1.0, 1, self.a, k0)
        # ln ln t_k = ln a + ln ln k <= (ln a + 1) ln k for k >= 3
        return log_pow_over_pow_tail(abs(math.log(self.a)) + 1.0, 1, self.a, k0)

    def dyadic_weighted_tail(self, profile: str, j_from: int) -> float:
        j0 = max(j_from + 1, 3, math.ceil(2.0 * self.a))
        head = sum(self._dyadic_terms_upper(profile, j_from + 1, j0 - 1))
        x = 2.0 ** (1.0 / self.a - 1.0)  # n(2^j)/2^j <= x^j
        if profile == "n":
            return head + poly_geom_tail(LN2, 1, 0, x, j0)
        # ln|w(2^j)| <= 2^(j/a)(j ln2 + ln2/2) + C 2^(j/a) where the leftover
        # square tail uses n(2^j) >= 2^(j/a) - 1 >= 2^(j/a)/2 for j >= 2a:
        # (1/2) 4^j inv_sq_tail(n) <= 2^(2a-2)/(2a-1) * 2^(j/a).
        c = LN2 + (0.5 * LN2 + 2.0 ** (2.0 * self.a - 2.0) / (2.0 * self.a - 1.0)) / j0
        return head + poly_geom_tail(c * LN2, 2, 0, x, j0)

    def spec_string(self) -> str:
        return f"power:a={self.a:g}"


class PowLogFamily(Family):
    """t_j = m (ln m)^a (lnln m)^b with m = max(j, 3); a > 1, or a = 1, b > 1."""

    def __init__(self, a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b)) or b < 0:
            raise SequenceSpecError("powlog family needs finite a and b >= 0")
        if not (a > 1.0 or (a == 1.0 and b > 1.0)):
            raise SequenceSpecError(
                "powlog family needs a > 1, or a = 1 with b > 1, "
                "so that sum 1/t_j converges"
            )
        self.a = float(a)
        self.b = float(b)
        self.params = (self.a, self.b)
        # first index from which t_k >= k, i.e. (ln k)^a (lnln k)^b >= 1;
        # k = 16 has ln k > 1 and lnln k > 1, so it is at most 16
        k = np.arange(1.0, 17.0)
        tk = self._at(k)
        self._k_geq_index = int(np.argmax(tk >= k)) + 1
        # exact corrections: cumulated min(0, ln t_k - ln k) over k < k_geq_index
        below = slice(0, self._k_geq_index - 1)
        self._neg_log = np.cumsum(np.concatenate(
            ([0.0], np.minimum(0.0, np.log(tk[below]) - np.log(k[below])))))
        # count_leq's estimate: t_1..t_4096, and ln t_x = y + a ln y + b lnln y
        # at y = ln x from ln 4096 to the float range's top in steps of 1/4
        self._first_zeros = self._at(np.arange(1.0, 4097.0))
        self._y_grid = np.arange(math.log(4096.0), _LN_MAX + 0.5, 0.25)
        ly = np.log(self._y_grid)
        self._ln_t_grid = self._y_grid + self.a * ly + self.b * np.log(ly)

    # the clamped head t_1 = t_2 = t_3 makes t_j/j fall up to j = 3
    _ratio_from = 3

    def _at(self, j: np.ndarray) -> np.ndarray:
        m = np.maximum(j, 3.0)
        with np.errstate(over="ignore"):
            lm = np.log(m)
            out = lm**self.a
            out *= m
            np.log(lm, out=lm)
            lm **= self.b
            out *= lm
        return out

    def _index_estimate(self, t: np.ndarray) -> np.ndarray:
        """The count itself below t_4096.  Past it, the root y of
        g(y) = y + a ln y + b lnln y - ln t (ln t_x at x = e^y) read off the
        grid, then one Newton step in y, and one in x on _at itself, which
        takes the estimate past the rounding of y."""
        a, b, head = self.a, self.b, self._first_zeros
        x = head.searchsorted(t, "right").astype(float)
        far = t >= head[-1]
        if far.any():
            tf = t[far]
            L = np.log(tf)
            y = np.interp(L, self._ln_t_grid, self._y_grid)
            ly = np.log(y)
            slope = 1.0 + (a + b / ly) / y  # g'(y), the log-derivative of t_x
            y -= (y + a * ly + b * np.log(ly) - L) / slope
            xf = np.floor(np.exp(y))
            x[far] = xf * (1.0 + (tf / self._at(xf) - 1.0) / slope)
        return x

    # -- tail bounds --------------------------------------------------------
    def inv_tail(self, k_from: int) -> float:
        """sum_{k>K} 1/t_k via u = ln x substitution.

        For a > 1:  <= (lnln K)^-b * integral_{ln K}^inf u^-a du-like bound
        done through log_pow_integral(0, a, ln K) after pulling the
        decreasing (ln u)^-b factor out at u = ln K.
        For a = 1, b > 1:  = (lnln K)^(1-b)/(b-1) exactly as an integral.
        """
        k0 = max(k_from, 4)
        head = self._head(k_from, k0, lambda k, tk: 1.0 / tk)
        if self.a > 1.0:
            pull = math.log(math.log(k0)) ** (-self.b) if self.b else 1.0
            return head + pull * log_pow_integral(0, self.a, math.log(k0))
        return head + inv_loglog_pow_tail(1.0, self.b, k0)

    def inv_sq_tail(self, k_from: int) -> float:
        """Terms 1/t_k^2 <= (ln K)^-2a (lnln K)^-2b / k^2 for k > K >= 4."""
        k0 = max(k_from, 4)
        head = self._head(k_from, k0, lambda k, tk: 1.0 / tk**2)
        pull = math.log(k0) ** (-2 * self.a) * math.log(math.log(k0)) ** (-2 * self.b)
        return head + pull / k0  # sum_{k>k0} k^-2 <= 1/k0

    def cum_log_lower(self, m: int) -> float:
        """lgamma(m+1) plus the exact negative early corrections.

        ln t_k >= ln k for k >= k_geq_index, and the finitely many indices
        below it contribute exactly their (negative) differences.
        """
        return lgamma(m + 1.0) + float(self._neg_log[min(m, self._k_geq_index - 1)])

    @property
    def msnq_convergent(self) -> bool:
        # sum ln(t_j/j)/t_j ~ sum lnln j/(j (ln j)^a (lnln j)^b):
        # converges iff a > 1, or a = 1 and b > 2.
        return self.a > 1.0 or self.b > 2.0

    _index_onset = 16

    def _index_far_tail(self, cond: str, k0: int) -> Optional[float]:
        if not self.msnq_convergent:
            return None
        lk = math.log(k0)
        llk = math.log(lk)
        if cond == "i":
            # ln(t_k/k) = a lnln k + b lnlnln k <= (a+b) lnln k for k >= 16
            coeff = self.a + self.b
        elif cond == "v":
            coeff = 1.0
        else:
            # ln ln t_k <= ln(2 ln k) <= ln 2 + lnln k <= (1+ln2/llk) lnln k
            coeff = 1.0 + LN2 / llk
        if self.a > 1.0:
            # sum lnln k/(k (ln k)^a (lnln k)^b)
            #   <= (lnln k0)^-b * integral_{ln k0}^inf ln(u)/u^a du
            pull = llk ** (-self.b) if self.b else 1.0
            return coeff * pull * log_pow_integral(1, self.a, lk)
        # a = 1, b > 2: terms = coeff/(k ln k (lnln k)^(b-1))
        return inv_loglog_pow_tail(coeff, self.b - 1.0, k0)

    def index_series_divergence(self, cond: str) -> Optional[DivergenceCertificate]:
        if self.msnq_convergent:
            return None
        # a = 1 and 1 < b <= 2
        return DivergenceCertificate(
            reason=(
                f"terms >= lnln(k)/(k ln(k) (lnln k)^{self.b:g}) = "
                f"1/(k ln k (lnln k)^{self.b - 1:g}) for k >= 16; since "
                f"{self.b - 1:g} <= 1 the comparison integral "
                "int dx/(x ln x lnln x) = lnlnln x diverges"
            ),
        )

    def dyadic_weighted_tail(self, profile: str, j_from: int) -> Optional[float]:
        """Certified tail for sum_{j>J} (P(2^j)/2^j) w(j), msnq-convergent case.

        Bridge terms up to j2 >= 64 use exact counts.  Past j2, with
        t = 2^j and u = j ln 2, two analytic steps bound n = n(t):
          n >= M = t/((ln t)^a (lnln t)^b) - 1, since t_(n+1) > t and
            n + 1 <= t (t_k >= 2k here), so t < (n+1) (ln t)^a (lnln t)^b;
          n <= t/((ln M)^a (lnln M)^b), since t_n <= t and n >= M.
        With cum_log_lower and the msnq weight bound they give the term
        bound C (ln u)^(q-b) / u^a, q = 1 for n and 2 for N and ln|w|, with
        every slowly varying factor frozen at j2, where it is monotone in
        the safe direction.
        """
        if not self.msnq_convergent:
            return None
        # powers of ln u in the term bound: one from the msnq weight, one
        # more from an N or ln|w| profile
        q = 2 if profile in ("N", "lnw") else 1
        if self.a == 1.0 and self.b - q <= 1.0:
            # a = 1: terms <= coeff/(u (ln u)^(b-q)) need b - q > 1
            return None
        j2 = max(j_from, 64)
        # kappa1: ln M >= kappa1 * u with u = j ln2, for j > j2;
        # the correction (a ln u + b lnln u + 2)/u decreases in u, so the
        # value at u2 dominates.  Grow j2 until the correction is < 1/2;
        # past level 1023 no zero count exists, and there is no certificate.
        while True:
            u2 = (j2 + 1) * LN2
            corr = (self.a * math.log(u2) + self.b * math.log(math.log(u2)) + 2.0) / u2
            if corr < 0.5:
                break
            if j2 >= 1023:
                return math.inf
            j2 = min(2 * j2, 1023)
        total = sum(self._dyadic_terms_upper(profile, j_from + 1, j2))
        kappa1 = 1.0 - corr
        # P(2^j)/2^j for P = n: n_up(2^j)/2^j <= 1/((ln M)^a (lnln M)^b)
        # with ln M >= kappa1 u and lnln M >= kap_log ln u
        # (both frozen at u2 where the ratios are monotone the safe way).
        kap_log = math.log(kappa1 * u2) / math.log(u2)  # increases to 1
        base_c = kappa1 ** (-self.a) * kap_log ** (-self.b)
        lu2, llu2 = math.log(u2), math.log(math.log(u2))
        # lnw-profile amplification: ln|w(2^j)|/n(2^j) <= u - ln n + 4 + c_sq
        #   <= a ln u + b lnln u + 4 + base_c-ish <= prof_c * ln u
        prof_c = (self.a * lu2 + self.b * llu2 + 4.0 + base_c) / lu2
        # msnq weight <= a ln u + b lnln u + 5 <= w_c * ln u (frozen at u2)
        w_c = (self.a * lu2 + self.b * llu2 + 5.0) / lu2
        coeff = base_c
        if profile in ("N", "lnw"):
            coeff *= prof_c
        coeff *= w_c
        # remaining power of (ln u): q - b could be negative; fold negative
        # powers into the constant at u2 ((ln u)^-s decreasing)
        s = self.b
        q_eff = q - s
        if q_eff <= 0:
            coeff *= math.log(u2) ** q_eff
            q_int = 0
        else:
            q_int = math.ceil(q_eff)
            coeff *= math.log(u2) ** (q_eff - q_int)  # <= 1 adjustment, exact power split
        if self.a > 1.0:
            # sum_{j>j2} coeff (ln u_j)^q_int / u_j^a, u_j = j ln2 + ln2:
            # (ln u_j) <= ln(2j) <= (1+ln2/ln j2) ln j and u_j >= j ln2
            c2 = coeff * LN2 ** (-self.a) * (1.0 + LN2 / math.log(j2)) ** q_int
            return total + log_pow_over_pow_tail(c2, q_int, self.a, j2)
        # a = 1, b > 2: terms <= coeff / (u (ln u)^(s-q)), s - q > 1 (above)
        s_eff = s - q
        kap = 1.0 + math.log(LN2) / math.log(j2)  # ln(j ln2) >= kap ln j
        c2 = coeff / LN2 * kap ** (-s_eff)
        return total + inv_log_pow_tail(c2, s_eff, j2)

    def dyadic_divergence(self, profile: str) -> Optional[DivergenceCertificate]:
        if self.msnq_convergent:
            return None
        return DivergenceCertificate(
            reason=(
                "sum ln(t_j/j)/t_j diverges for this family (integral "
                "comparison; see the index-series certificate), and the "
                "distribution, max-term and log-weight profiles inherit "
                "divergence of the dyadic sums weighted by ln(2^j/P(2^(j+1))) "
                "through the standard two-sided dyadic/integral comparisons"
            ),
        )

    def spec_string(self) -> str:
        return f"powlog:a={self.a:g},b={self.b:g}"


class ExplicitFamily(Family):
    """Finite nondecreasing list of zeros; t_j = +inf past the list, so w is
    a finite product and every tail past the list is exactly 0."""

    def __init__(self, values):
        vals = [float(v) for v in values]
        if not vals:
            raise SequenceSpecError("explicit family needs at least one value")
        if vals[0] <= 0:
            raise SequenceSpecError("zeros must be positive", 0)
        for i in range(1, len(vals)):
            if vals[i] < vals[i - 1]:
                raise SequenceSpecError(
                    f"non-monotone explicit list: t_{i+1} < t_{i}", i
                )
        self.values = vals
        self.params = tuple(vals)
        self._padded = np.array(vals + [math.inf])
        self._index_onset = len(vals)  # every index-series term is summed

    def _at(self, j: np.ndarray) -> np.ndarray:
        return self._padded[np.minimum(j, len(self.values) + 1).astype(np.intp) - 1]

    def count_leq(self, t):
        """n(t), one search of the list; the +inf past it are no zeros, and
        neither is a listed inf, so n(inf) counts the finite values."""
        flat = np.minimum(np.ravel(t), sys.float_info.max)
        if np.isnan(flat).any():
            raise ValueError("zero count n(t) needs a number, got nan")
        counts = self._padded.searchsorted(flat, "right").tolist()
        return counts if np.ndim(t) else counts[0]

    def inv_tail(self, k_from: int) -> float:
        if k_from >= len(self.values):
            return 0.0
        return sum(1.0 / v for v in self.values[k_from:])

    def inv_sq_tail(self, k_from: int) -> float:
        if k_from >= len(self.values):
            return 0.0
        # (1/v)^2 where v^2 may overflow; a term below the float range
        # counts as the smallest positive float
        return sum(1.0 / v**2 if v <= _SQ_SAFE else max((1.0 / v) ** 2, TINY)
                   for v in self.values[k_from:])

    def cum_log_lower(self, m: int) -> float:
        m = min(m, len(self.values))
        return sum(math.log(v) for v in self.values[:m])

    def _index_far_tail(self, cond: str, k0: int) -> float:
        return 0.0

    def dyadic_weighted_tail(self, profile: str, j_from: int) -> float:
        # P(2^j) <= m (j ln2 + ln sqrt2 + max(0, -ln t_1)), m = len(values),
        # and the msnq weight is at most j ln 2
        m = len(self.values)
        c = 0.5 * LN2 + max(0.0, -math.log(self.values[0]))
        j0 = max(j_from + 1, 3)
        head = sum(self._dyadic_terms_upper(profile, j_from + 1, j0 - 1))
        if profile == "n":
            return head + poly_geom_tail(m * LN2, 1, 0, 0.5, j0)
        return head + poly_geom_tail(m * (LN2 + c / j0) * LN2, 2, 0, 0.5, j0)

    def spec_string(self) -> str:
        inner = ",".join(f"{v:g}" for v in self.values)
        return f"explicit:[{inner}]"


@dataclass
class ZeroSequence:
    """A zero sequence: a family plus an enumeration budget for sums.

    j_cut (the CLI's --j-cut) caps every term-wise enumeration of a
    closed-form family: the evaluators' cutoff, the N profile, a
    coefficient table's factor count and the concave majorant's inner
    series, which raises KEvalError past it.  An explicit list is taken
    whole (term_cap).  Counting is exact regardless.

    omega0_flag says that t_j/j is nondecreasing from the family's
    _ratio_from on: from j = 3 for powlog, whose clamped head
    t_1 = t_2 = t_3 makes the ratio fall, and from j = 1 otherwise.
    Convergence depends only on tails, so that is enough for conditions v
    and vi to agree with i-iv.  The flag is derived, not set: validate
    reads it off the prefix it checks, t_1..t_min(j_cut, 4096) or the
    whole explicit list.  Past that prefix no family turns down again:
    ln(r^j/j) = j ln r - ln j is convex in j, so a geometric ratio that has
    stopped falling keeps rising; j^a/j = j^(a-1) for a > 1 and
    (ln j)^a (lnln j)^b for j >= 3, a, b >= 0 are nondecreasing; and past an
    explicit list t_j/j = +inf.
    """

    family: Family
    j_cut: int = 500_000
    omega0_flag: bool = field(init=False)

    def __post_init__(self):
        if self.j_cut < 1:
            raise ValueError("j_cut must be positive")
        self.validate()

    # prefix length used for invariant validation
    _CHECK_PREFIX = 4096

    @property
    def term_cap(self) -> int:
        """How many terms a term-wise sum reads: the whole explicit list, or
        j_cut of a closed-form family."""
        fam = self.family
        return len(fam.values) if isinstance(fam, ExplicitFamily) else self.j_cut

    def validate(self) -> None:
        """t_j > 0 and nondecreasing on the checked prefix; sets omega0_flag."""
        fam = self.family
        explicit = isinstance(fam, ExplicitFamily)
        t = fam.terms(1, self.term_cap if explicit else min(self.j_cut, self._CHECK_PREFIX))
        nonpos = ~(t > 0)
        bad = nonpos.copy()
        bad[1:] |= t[1:] < t[:-1]
        if bad.any():
            j = int(np.argmax(bad)) + 1
            if nonpos[j - 1]:
                raise SequenceSpecError(f"t_{j} <= 0", j)
            raise SequenceSpecError(f"t_{j} < t_{j-1}", j)
        ratio = (t / np.arange(1, len(t) + 1))[fam._ratio_from - 1:]
        self.omega0_flag = not np.any(ratio[1:] < ratio[:-1] * (1.0 - 1e-15))

    def term(self, j: int) -> float:
        return float(self.family._at(np.array([float(j)]))[0])

    def terms(self, j_from: int, j_to: int) -> np.ndarray:
        return self.family.terms(j_from, j_to)

    def count_leq(self, t):
        return self.family.count_leq(t)

    def cutoff(self, bound, tol: float, start: int, cap: int,
               at_least: int = 0) -> tuple[int, float]:
        """(J, bound(J)) for the first J of start, 2 start, 4 start, ...
        with bound(J) <= tol, raised to at_least, never past cap.  bound(J)
        bounds what the terms past J add; an explicit list is taken whole,
        with nothing omitted."""
        if isinstance(self.family, ExplicitFamily):
            return len(self.family.values), 0.0
        j = min(start, cap)
        while j < cap and bound(j) > tol:
            j = min(cap, 2 * j)
        j = min(cap, max(j, at_least))
        return j, bound(j)

    @property
    def key(self) -> tuple:
        """The exact identity of the sequence: its family's class and float
        parameters, and j_cut.  spec_string() is no identity: it prints
        parameters to 6 significant digits."""
        return (type(self.family), self.family.params, self.j_cut)

    def spec_string(self) -> str:
        return self.family.spec_string()


class TermPrefix:
    """The process's kept t_1, t_2, ... of one sequence, each enumerated
    once, and the power sums of its complete SERIES_BLOCK blocks.

    TermPrefix.of(seq) is the way in.  It returns the table held for
    seq.key, or drops the held table and starts a new one, so the process
    holds the table of one sequence.  Readers (the evaluators, the concave
    majorant, the N profile and the index series) ask for it in every call
    and keep no reference, so sequences in turn evict each other.

    - An entry depends only on (sequence, index).  The prefix grows in
      place to a power of two in fixed pieces, 16, 16, 32, ... up to
      ZERO_CHUNK, then ZERO_CHUNK each, so an entry comes from one terms()
      call whatever the order of the requests; and a block's power sums
      are reductions over its own zeros.  No result depends on which
      reader came first.
    - A view from finite() must not outlive the call that took it: growth
      resizes the prefix in place, and any reader of the sequence grows it.
    - A table is for one thread.

    The prefix stops at the sequence's term_cap, or with the piece that
    holds its first inf.
    """

    _held: Optional["TermPrefix"] = None

    def __init__(self, seq: ZeroSequence):
        self.seq = seq
        self.values = np.empty(0)
        self.n_fin = 0  # entries before the first inf
        # per complete block b: s_b = 2^e <= its first zero, and in column b
        # the sums of (s_b/t_j)^k for k = 1..SERIES_ORDER+1
        self.scale = np.empty(0)
        self.powsums = np.empty((SERIES_ORDER + 1, 0))

    @classmethod
    def of(cls, seq: ZeroSequence) -> "TermPrefix":
        """The process's table of seq: the held one when it is of seq.key,
        else a new one, built after the held one is dropped."""
        held = cls._held
        if held is None or (held.seq is not seq and held.seq.key != seq.key):
            held = cls._held = None  # the old table is freed before the new one grows
            held = cls._held = cls(seq)
        return held

    def finite(self, j_max: int) -> np.ndarray:
        """The finite t_1..t_{j_max}, first as t_j is nondecreasing: a view
        of the prefix, which no later growth may outlive."""
        t = self.values
        have = len(t)
        if have < j_max and self.n_fin == have:
            grow = 1 << max(4, (max(j_max, 2 * have) - 1).bit_length())
            new = min(self.seq.term_cap, grow)
            t.resize(new, refcheck=False)
            start = have
            while start < new:
                stop = min(new, max(16, 2 * start) if start < ZERO_CHUNK else start + ZERO_CHUNK)
                t[start:stop] = self.seq.terms(start + 1, stop)
                self.n_fin = start + int(np.searchsorted(t[start:stop], math.inf))
                if self.n_fin < stop:
                    t.resize(stop, refcheck=False)
                    break
                start = stop
        return t[: min(j_max, self.n_fin)]

    def count_leq(self, x: float, cap: float = math.inf) -> int:
        """n(x), counted on the prefix when it reaches past x or holds cap
        zeros (the count is then at least cap), else by the sequence."""
        n = int(self.values.searchsorted(x, "right"))
        return self.seq.count_leq(x) if n == len(self.values) < cap else n

    def power_sums(self, n_blocks: int, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(scale, powsums), extended to the first n_blocks complete blocks,
        which finite() must hold already; ZERO_CHUNK zeros per numpy call in
        the caller's scratch, two rows of ZERO_CHUNK entries.  A block's
        sums are row reductions over its own zeros, so they do not depend
        on the grouping."""
        have = len(self.scale)
        if have < n_blocks:
            b = SERIES_BLOCK
            tb = self.values[have * b : n_blocks * b].reshape(-1, b)
            scale = np.ldexp(1.0, np.frexp(tb[:, 0])[1] - 1)  # 2^e <= each block's first zero
            sums = np.empty((SERIES_ORDER + 1, len(tb)))
            x, p = scratch.reshape(2, -1, b)
            for i in range(0, len(tb), len(x)):
                group = tb[i : i + len(x)]
                m = len(group)
                xg = np.divide(scale[i : i + m, None], group, out=x[:m])
                pg = p[:m]
                np.copyto(pg, xg)
                np.add.reduce(pg, axis=1, out=sums[0, i : i + m])
                for k in range(1, SERIES_ORDER + 1):
                    np.add.reduce(np.multiply(pg, xg, out=pg), axis=1, out=sums[k, i : i + m])
            self.scale = np.concatenate((self.scale, scale))
            self.powsums = np.concatenate((self.powsums, sums), axis=1)
        return self.scale, self.powsums


def _parse_kv(body: str, offset: int) -> dict:
    out = {}
    pos = offset
    for part in body.split(","):
        if "=" not in part:
            raise SequenceSpecError(f"expected key=value, got {part!r}", pos)
        key, val = part.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise SequenceSpecError(f"bad number {val!r}", pos + len(key) + 1)
        pos += len(part) + 1
    return out


def parse_sequence_spec(text: str, j_cut: int = 500_000) -> ZeroSequence:
    """Parse `family:params` into a ZeroSequence.

    Grammar (ASCII, comma-separated key=value, no significant whitespace):
        geometric:r=<real> | powlog:a=<real>,b=<real> | power:a=<real>
        | explicit:[v1,v2,...]
    The omega0 flag is derived from the prefix check (ZeroSequence).
    """
    if not text.isascii():
        raise SequenceSpecError("sequence spec must be ASCII", 0)
    text = text.strip()
    if ":" not in text:
        raise SequenceSpecError("missing ':' separator", len(text))
    head, body = text.split(":", 1)
    offset = len(head) + 1
    if head == "geometric":
        kv = _parse_kv(body, offset)
        if set(kv) != {"r"}:
            raise SequenceSpecError("geometric needs exactly r=<real>", offset)
        fam: Family = GeometricFamily(kv["r"])
    elif head == "power":
        kv = _parse_kv(body, offset)
        if set(kv) != {"a"}:
            raise SequenceSpecError("power needs exactly a=<real>", offset)
        fam = PowerFamily(kv["a"])
    elif head == "powlog":
        kv = _parse_kv(body, offset)
        if set(kv) != {"a", "b"}:
            raise SequenceSpecError("powlog needs a=<real>,b=<real>", offset)
        fam = PowLogFamily(kv["a"], kv["b"])
    elif head == "explicit":
        if not (body.startswith("[") and body.endswith("]")):
            raise SequenceSpecError("explicit needs [v1,v2,...]", offset)
        inner = body[1:-1]
        if not inner:
            raise SequenceSpecError("explicit list is empty", offset + 1)
        vals = []
        pos = offset + 1
        for piece in inner.split(","):
            try:
                vals.append(float(piece))
            except ValueError:
                raise SequenceSpecError(f"bad number {piece!r}", pos)
            pos += len(piece) + 1
        try:
            fam = ExplicitFamily(vals)
        except SequenceSpecError as exc:
            raise SequenceSpecError(str(exc), offset) from exc
    else:
        raise SequenceSpecError(f"unknown family {head!r}", 0)

    return ZeroSequence(family=fam, j_cut=j_cut)
