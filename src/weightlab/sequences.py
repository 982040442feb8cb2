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
    inv_log_pow_tail,
    inv_loglog_pow_tail,
    log_pow_integral,
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

    series: str
    reason: str


# the zero count reads t_j at float indices up to 2^1023, the largest power
# of two below 2^1024, which no longer converts to a float
_TOP = 2.0 ** (sys.float_info.max_exp - 1)
_ONE_BITS, _TOP_BITS = np.array([1.0, _TOP]).view(np.int64)
_INNER = np.arange(1, 64)  # a search cell's inner points, in steps


def _last_index(x: float) -> int:
    """The largest integer j with float(j) == x, for an integer-valued x >= 1:
    past 2^53, j rounds to the nearest float, ties to an even mantissa."""
    ulp = int(math.ulp(x))
    return int(x) + ulp // 2 - (int(x) // ulp) % 2 if ulp > 1 else int(x)


class Family:
    """Base class: exact enumeration plus certified tail bounds."""

    name = "base"

    # -- enumeration ------------------------------------------------------
    def _at(self, j: np.ndarray) -> np.ndarray:
        """t_j at an array of integer-valued float indices j >= 1; an index
        past 2^53 is the float it rounds to.  The one definition of t_j."""
        raise NotImplementedError

    def terms(self, j_from: int, j_to: int) -> np.ndarray:
        """t_j for j in [j_from, j_to]."""
        return self._at(np.arange(j_from, j_to + 1, dtype=float))

    def count_leq(self, t):
        """Exact n(t) = #{j : t_j <= t}: an int for one threshold, a list of
        ints for an array of them.  Each count n has t_n <= t < t_{n+1}.

        The search runs over the bit patterns b of the floats x in
        [1, 2^1023], which order like the floats, and reads t at the
        integer floor(x), so t is nondecreasing in b.  Each step splits
        every cell [lo, hi] into 64 and keeps the part before the first
        inner point where t exceeds the threshold.  A cell is closed once
        its two indices are adjacent integers, or adjacent floats past
        2^53; further steps keep the lower index of a closed cell.
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
        lo = np.full(flat.shape, _ONE_BITS)  # t at x(lo) <= threshold < t at x(hi)
        hi = np.full(flat.shape, _TOP_BITS)
        while True:
            x_lo = np.floor(lo.view(float))
            if ((hi - lo == 1) | (np.floor(hi.view(float)) - x_lo == 1) | below).all():
                break
            step = (hi - lo + 63) >> 6
            ok = self._at(np.floor((lo + step * _INNER).view(float))) <= flat
            c = ok.cumprod(axis=1).sum(axis=1, keepdims=True)
            lo, hi = lo + step * c, np.minimum(hi, lo + step * (c + 1))
        counts = [0 if z else _last_index(x) for z, x in zip(below.flat, x_lo.flat)]
        return counts if np.ndim(t) else counts[0]

    # -- certified tails ---------------------------------------------------
    def inv_tail(self, k_from: int) -> float:
        """Upper bound for sum_{k > k_from} 1/t_k."""
        raise NotImplementedError

    def inv_sq_tail(self, k_from: int) -> float:
        """Upper bound for sum_{k > k_from} 1/t_k^2."""
        raise NotImplementedError

    def cum_log_lower(self, m: int) -> float:
        """Lower bound for sum_{k <= m} ln t_k."""
        raise NotImplementedError

    def n_lower(self, t: float) -> float:
        return float(self.count_leq(t))

    # -- classification ----------------------------------------------------
    @property
    def msnq_convergent(self) -> Optional[bool]:
        """True/False when the family's msNQA status is known analytically."""
        return None

    def omega0_tail_claim(self) -> Optional[bool]:
        """Whether t_j/j is nondecreasing beyond any finite prefix."""
        return None

    def index_series_tail(self, cond: str, k_from: int) -> Optional[float]:
        """Certified tail for the index series of `cond`, or None."""
        return None

    def index_series_divergence(self, cond: str) -> Optional[DivergenceCertificate]:
        return None

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
        if n == 0:
            extra = 0.5 * t * t * self.inv_sq_tail(0)
            return extra
        head = n * (0.5 * LN2 + j * LN2) - self.cum_log_lower(n)
        extra = 0.5 * t * t * self.inv_sq_tail(n)
        return head + extra

    def _msnq_weight_bound(self, j: int) -> float:
        """Upper bound for ln(2^j / P(2^(j+1))), any profile P >= c0 * n.

        Uses P(t) >= min(1, ln(2)/2) * n(t/e) which holds for P = n (n is
        nondecreasing), P = N (N(t) >= n(t/e), each factor t/t_k >= e
        contributes at least 1), and P = ln|w| (each zero <= t contributes
        at least ln(2)/2).  Clamped at 0: negative-log terms never enter
        the diagnostics.
        """
        n_low = self.n_lower(2.0 ** (j + 1) / math.e)
        if n_low < 1.0:
            return j * LN2
        return max(0.0, j * LN2 - math.log(0.5 * LN2 * n_low))

    def _dyadic_terms_upper(self, profile: str, j_from: int, j_to: int) -> list:
        """Upper bounds for the msnq-series terms at levels j_from..j_to,
        via exact counts of every level in one call."""
        levels = range(j_from, j_to + 1)
        counts = self.count_leq(2.0 ** np.array(levels, dtype=float)) if levels else []
        out = []
        for j, n in zip(levels, counts):
            p_up = float(n) if profile == "n" else self._log_weight_majorant(j, n)
            out.append(p_up / 2.0**j * self._msnq_weight_bound(j))
        return out


class GeometricFamily(Family):
    """t_j = r^j with r > 1."""

    name = "geometric"

    def __init__(self, r: float):
        if not (r > 1.0) or not math.isfinite(r):
            raise SequenceSpecError("geometric family needs r > 1")
        self.r = float(r)
        self._lnr = math.log(self.r)

    def _at(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return self.r**j

    def inv_tail(self, k_from: int) -> float:
        # sum_{k > K} r^-k = r^-K / (r - 1), exact
        return self.r ** (-k_from) / (self.r - 1.0)

    def inv_sq_tail(self, k_from: int) -> float:
        return self.r ** (-2 * k_from) / (self.r**2 - 1.0)

    def cum_log_lower(self, m: int) -> float:
        # exact: sum_{k<=m} k ln r = m(m+1) ln(r) / 2
        return 0.5 * m * (m + 1) * self._lnr

    def n_lower(self, t: float) -> float:
        return max(0.0, math.log(t) / self._lnr - 1.0) if t >= 1.0 else 0.0

    @property
    def msnq_convergent(self) -> bool:
        return True

    def omega0_tail_claim(self) -> bool:
        # r^(j+1)/(j+1) >= r^j/j iff r >= 1 + 1/j; true for all j >= j0,
        # the prefix check covers the finitely many early indices.
        return True

    def index_series_tail(self, cond: str, k_from: int) -> float:
        k0 = max(k_from + 1, 3)
        if cond == "i":
            # ln(t_k/k) <= k ln r, so terms <= (k ln r) r^-k
            return poly_geom_tail(self._lnr, 1, 0, 1.0 / self.r, k0)
        if cond == "v":
            # lnln k <= ln k
            return poly_geom_tail(1.0, 0, 1, 1.0 / self.r, k0)
        if cond == "vi":
            # ln ln t_k = ln(k ln r) <= ln k + |ln ln r| <= (1+|ln ln r|) ln k
            c = 1.0 + abs(math.log(self._lnr))
            return poly_geom_tail(c, 0, 1, 1.0 / self.r, k0)
        raise ValueError(f"unknown condition {cond!r}")

    def _profile_majorant_coeffs(self) -> tuple[float, float, float]:
        """(A, B, C) with ln|w(2^j)| <= (A j + B) * (j ln2 + ln2/2) + C.

        n(2^j) <= j ln2/ln r + 1 and the leftover tail term is bounded by
        r^2/(2(r^2-1)) since t_(n+1) > t forces r^-2n < r^2/t^2.
        """
        a = LN2 / self._lnr
        c_sq = self.r**2 / (2.0 * (self.r**2 - 1.0))
        return a, 1.0, c_sq

    def dyadic_weighted_tail(self, profile: str, j_from: int) -> float:
        j0 = max(j_from + 1, 3)
        head = sum(self._dyadic_terms_upper(profile, j_from + 1, j0 - 1))
        a, b, c_sq = self._profile_majorant_coeffs()
        if profile == "n":
            # terms <= (a j + b)/2^j * w(j), and w <= j ln 2
            return head + poly_geom_tail((a + b / j0) * LN2, 2, 0, 0.5, j0)
        # N <= ln|w|; quadratic majorant q(j) = (a j + b)(j+0.5) ln2 + c_sq
        q_coeff = (a + b / j0) * (1.0 + 0.5 / j0) * LN2 + c_sq / j0**2
        return head + poly_geom_tail(q_coeff * LN2, 3, 0, 0.5, j0)

    def spec_string(self) -> str:
        return f"geometric:r={self.r:g}"


class PowerFamily(Family):
    """t_j = j^a with a > 1."""

    name = "power"

    def __init__(self, a: float):
        if not (a > 1.0) or not math.isfinite(a):
            raise SequenceSpecError("power family needs a > 1")
        self.a = float(a)

    def _at(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return j**self.a

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

    def n_lower(self, t: float) -> float:
        return max(0.0, t ** (1.0 / self.a) - 1.0) if t > 0 else 0.0

    @property
    def msnq_convergent(self) -> bool:
        return True

    def omega0_tail_claim(self) -> bool:
        # j^a/j = j^(a-1) nondecreasing for a >= 1
        return True

    def index_series_tail(self, cond: str, k_from: int) -> float:
        from .tails import log_pow_over_pow_tail

        k0 = max(k_from, 3)
        if cond == "i":
            # ln(t_k/k) = (a-1) ln k
            return log_pow_over_pow_tail(self.a - 1.0, 1, self.a, k0)
        if cond == "v":
            return log_pow_over_pow_tail(1.0, 1, self.a, k0)
        if cond == "vi":
            # ln ln t_k = ln a + ln ln k <= (ln a + 1) ln k for k >= 3
            return log_pow_over_pow_tail(abs(math.log(self.a)) + 1.0, 1, self.a, k0)
        raise ValueError(f"unknown condition {cond!r}")

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

    name = "powlog"

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
        # first index from which t_k >= k, i.e. (ln k)^a (lnln k)^b >= 1;
        # k = 16 has ln k > 1 and lnln k > 1, so it is at most 16
        k = np.arange(1.0, 17.0)
        tk = self._at(k)
        self._k_geq_index = int(np.argmax(tk >= k)) + 1
        self._t_geq = float(tk[self._k_geq_index - 1])
        # exact corrections: cumulated min(0, ln t_k - ln k) over k < k_geq_index
        below = slice(0, self._k_geq_index - 1)
        self._neg_log = np.cumsum(np.concatenate(
            ([0.0], np.minimum(0.0, np.log(tk[below]) - np.log(k[below])))))

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

    # -- tail bounds --------------------------------------------------------
    def _head(self, k_from: int, k0: int, summand) -> float:
        """sum of summand(k, t_k) over k_from < k <= k0; 0 when empty."""
        if k_from >= k0:
            return 0.0
        k = np.arange(k_from + 1, k0 + 1, dtype=float)
        return float(np.sum(summand(k, self._at(k))))

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

    def _polylog(self, t: float) -> float:
        lt = math.log(t)
        return lt**self.a * math.log(lt) ** self.b

    def n_lower(self, t: float) -> float:
        """n(t) >= t/((ln t)^a (lnln t)^b) - 1 for t >= T0.

        t_(n+1) > t and n+1 <= t (valid past the t_k >= k onset) give
        (n+1) (ln t)^a (lnln t)^b >= (n+1)(ln(n+1))^a(...)^b > t.
        """
        t0 = max(math.e**1.1, self._t_geq)
        if t <= math.exp(math.e) or t <= t0:
            return float(self.count_leq(t))
        # evaluated at t+1 since only n+1 <= t+1 is guaranteed
        return max(0.0, t / self._polylog(t + 1.0) - 1.0)

    @property
    def msnq_convergent(self) -> bool:
        # sum ln(t_j/j)/t_j ~ sum lnln j/(j (ln j)^a (lnln j)^b):
        # converges iff a > 1, or a = 1 and b > 2.
        return self.a > 1.0 or self.b > 2.0

    def omega0_tail_claim(self) -> bool:
        # t_j/j = (ln j)^a (lnln j)^b nondecreasing in j for a, b >= 0
        return True

    def index_series_tail(self, cond: str, k_from: int) -> Optional[float]:
        if not self.msnq_convergent and cond in ("i", "v", "vi"):
            return None
        k0 = max(k_from, 16)

        def summand(k, tk):
            num = np.log(tk / k) if cond == "i" else np.log(np.log(k if cond == "v" else tk))
            return np.maximum(0.0, num) / tk

        head = self._head(k_from, k0, summand)
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
            return head + coeff * pull * log_pow_integral(1, self.a, lk)
        # a = 1, b > 2: terms = coeff/(k ln k (lnln k)^(b-1))
        return head + inv_loglog_pow_tail(coeff, self.b - 1.0, k0)

    def index_series_divergence(self, cond: str) -> Optional[DivergenceCertificate]:
        if self.msnq_convergent:
            return None
        # a = 1 and 1 < b <= 2
        return DivergenceCertificate(
            series=cond,
            reason=(
                f"terms >= lnln(k)/(k ln(k) (lnln k)^{self.b:g}) = "
                f"1/(k ln k (lnln k)^{self.b - 1:g}) for k >= 16; since "
                f"{self.b - 1:g} <= 1 the comparison integral "
                "int dx/(x ln x lnln x) = lnlnln x diverges"
            ),
        )

    def dyadic_weighted_tail(self, profile: str, j_from: int) -> Optional[float]:
        """Certified tail for sum_{j>J} (P(2^j)/2^j) w(j), msnq-convergent case.

        Analytic part past j2: with u = j ln 2,
          P(2^j)/2^j <= lnw-majorant/2^j <= C1 (ln u)^(q0)/u^(a-eps-free form)
        assembled from n(t) <= t/((ln M)^a (lnln M)^b) with M = n_lower(t)
        (t_n <= t gives n <= t/((ln n)^a (lnln n)^b), and n >= M),
        cum_log_lower and the msnq weight bound;
        all slowly-varying correction factors are frozen at j2 where they
        are monotone in the safe direction.  Bridge terms up to j2 use the
        exact count.
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
        # kappa1: ln(n_lower(2^j)) >= kappa1 * u with u = j ln2, for j > j2;
        # the correction (a ln u + b lnln u + 2)/u decreases in u, so the
        # value at u2 dominates.  Grow j2 until the correction is < 1/2.
        while True:
            u2 = (j2 + 1) * LN2
            corr = (self.a * math.log(u2) + self.b * math.log(math.log(u2)) + 2.0) / u2
            if corr < 0.5:
                break
            j2 *= 2
        total = sum(self._dyadic_terms_upper(profile, j_from + 1, j2))
        kappa1 = 1.0 - corr
        # P(2^j)/2^j for P = n: n_up(2^j)/2^j <= 1/((ln M)^a (lnln M)^b)
        # with M = n_lower(2^j), ln M >= kappa1 u and lnln M >= kap_log ln u
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
            from .tails import log_pow_over_pow_tail

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
            series=f"dyadic-{profile}-msnq",
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

    name = "explicit"

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
        self._padded = np.array(vals + [math.inf])

    def _at(self, j: np.ndarray) -> np.ndarray:
        return self._padded[np.minimum(j, len(self.values) + 1).astype(np.intp) - 1]

    def count_leq(self, t):
        # the +inf past the list are no zeros, so n(inf) is the list's length
        return super().count_leq(np.minimum(t, sys.float_info.max))

    def inv_tail(self, k_from: int) -> float:
        if k_from >= len(self.values):
            return 0.0
        return sum(1.0 / v for v in self.values[k_from:])

    def inv_sq_tail(self, k_from: int) -> float:
        if k_from >= len(self.values):
            return 0.0
        return sum(1.0 / v**2 for v in self.values[k_from:])

    def cum_log_lower(self, m: int) -> float:
        m = min(m, len(self.values))
        return sum(math.log(v) for v in self.values[:m])

    @property
    def msnq_convergent(self) -> bool:
        return True

    def omega0_tail_claim(self) -> bool:
        # +inf/j is nondecreasing, so only the finite prefix matters
        return True

    def index_series_tail(self, cond: str, k_from: int) -> float:
        total = 0.0
        for k in range(max(k_from + 1, 2), len(self.values) + 1):
            tk = self.values[k - 1]
            if cond == "i":
                total += max(0.0, math.log(tk / k)) / tk
            elif cond == "v":
                total += max(0.0, math.log(math.log(k))) / tk if k >= 3 else 0.0
            else:
                total += max(0.0, math.log(math.log(tk))) / tk if tk > 1.0 else 0.0
        return total

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

    j_cut (the CLI's --j-cut) caps every term-wise enumeration: the
    evaluators' cutoff, a coefficient table's factor count and the concave
    majorant's inner series, which raises KEvalError past it.  Counting
    is exact regardless.  omega0_flag asserts t_j/j is
    nondecreasing, verified on the enumerated prefix and by family tail
    knowledge.
    """

    family: Family
    j_cut: int = 500_000
    omega0_flag: bool = field(default=False)

    def __post_init__(self):
        if self.j_cut < 1:
            raise ValueError("j_cut must be positive")
        self.validate()

    # prefix length used for invariant validation
    _CHECK_PREFIX = 4096

    def _check_terms(self) -> np.ndarray:
        """The prefix the invariants are checked on: t_1..t_min(j_cut, 4096),
        or the whole explicit list."""
        fam = self.family
        if isinstance(fam, ExplicitFamily):
            return fam.terms(1, len(fam.values))
        return fam.terms(1, min(self.j_cut, self._CHECK_PREFIX))

    def validate(self) -> None:
        t = self._check_terms()
        nonpos = ~(t > 0)
        bad = nonpos.copy()
        bad[1:] |= t[1:] < t[:-1]
        if bad.any():
            j = int(np.argmax(bad)) + 1
            if nonpos[j - 1]:
                raise SequenceSpecError(f"t_{j} <= 0", j)
            raise SequenceSpecError(f"t_{j} < t_{j-1}", j)
        if self.omega0_flag and not self.check_omega0_prefix():
            raise SequenceSpecError("omega0_flag set but t_j/j decreases on prefix")

    def check_omega0_prefix(self) -> bool:
        t = self._check_terms()
        ratio = t / np.arange(1, len(t) + 1)
        if np.any(ratio[1:] < ratio[:-1] * (1.0 - 1e-15)):
            return False
        tail = self.family.omega0_tail_claim()
        return bool(tail) if tail is not None else True

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

    def spec_string(self) -> str:
        return self.family.spec_string()


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
    The omega0 flag is set automatically from the prefix check plus family
    tail knowledge.
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

    seq = ZeroSequence(family=fam, j_cut=j_cut, omega0_flag=False)
    seq.omega0_flag = seq.check_omega0_prefix()
    return seq
