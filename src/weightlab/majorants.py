"""Explicit majorants: the concave log-series bound, its companion, and the
exact combinatorial inequality underlying concavity.

The combinatorial core works over exact rationals: for a nonincreasing
positive sequence c_1 >= c_2 >= ... the quantity

    S_k = sum_{p=1..k, q=k-p} (1/(p! q!) - 1/((p-1)!(q+1)!))
          * prod_{j<=p+1} c_j * prod_{j<=q+1} c_j

is nonnegative, vanishes identically when all c_j coincide, and satisfies
S_1 = 0 and S_2 = (1/2) c_1^2 c_2 (c_2 - c_3).  Together with
C_k = (1/k!)(c_1 - c_{k+2}) prod_{j<=k+1} c_j + S_k >= 0 this is exactly
the second-derivative positivity that makes ln(sum prod(c_j) t^k / k!)
concave, hence the concavity of the series majorant below when t_j/j is
nondecreasing (there c_j = j/t_j is nonincreasing).

Every term shares one denominator, so the sums run on exact integers.
With d the lcm of the denominators of c_1..c_{k+2}, n_j = d c_j and
N_m = n_1...n_m, and since 1/(p! q!) - 1/((p-1)!(q+1)!) =
C(k+1, p)(k+1-2p)/(k+1)!, the numerators over (k+1)! d^(k+2) > 0 are

    S_k: sum_{p=1..k} C(k+1, p)(k+1-2p) N_{p+1} N_{k+1-p}, which, as
         the terms p and k+1-p have opposite weights, is
         sum_{p <= (k+1)/2} C(k+1, p)(k+1-2p) N_p N_{k+1-p} (n_{p+1} - n_{k+2-p})
    C_k: (k+1)(n_1 - n_{k+2}) N_{k+1} + the S_k numerator
    C_k straight from its double sum (the independent check):
         (k+1) sum_{p=0..k} C(k, p)(N_{p+1} N_{k+1-p} - N_{p+2} N_{k-p})

so signs and equalities are decided on the numerators alone.  Every
product there is N_a N_b with a + b = k+1 (S_k) or k+2 (the double sum),
so a sweep forms each one once and both sums read it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .sampling import log_grid
from .sequences import ZERO_CHUNK, ExplicitFamily, TermPrefix, ZeroSequence

LN3 = math.log(3.0)


@dataclass(frozen=True)
class RationalSeq:
    """Nonincreasing positive rationals c_1 >= c_2 >= ... > 0."""

    c: tuple

    def __post_init__(self):
        vals = tuple(Fraction(x) for x in self.c)
        if not vals:
            raise ValueError("empty sequence")
        if any(v <= 0 for v in vals):
            raise ValueError("entries must be positive")
        for i in range(1, len(vals)):
            if vals[i] > vals[i - 1]:
                raise ValueError(f"sequence increases at position {i + 1}")
        object.__setattr__(self, "c", vals)

    def __len__(self) -> int:
        return len(self.c)


def _integer_form(c: RationalSeq, k: int) -> tuple[int, list, list]:
    """(d, n, N) for c_1..c_{k+2}: d the lcm of their denominators,
    n[j-1] = d c_j and N[i] = n_1...n_i (N[0] = 1), all integers."""
    if len(c) < k + 2:
        raise ValueError(f"need at least {k + 2} entries, have {len(c)}")
    head = c.c[: k + 2]
    d = math.lcm(*(x.denominator for x in head))
    n = [x.numerator * (d // x.denominator) for x in head]
    N = [1]
    for v in n:
        N.append(N[-1] * v)
    return d, n, N


def _product_row(N: list, m: int) -> list:
    """[N_a N_(m-a) for a = 0..m]: the row is symmetric, so each product is
    formed once and read from both ends."""
    half = [N[a] * N[m - a] for a in range(m // 2 + 1)]
    return half + half[(m - 1) // 2 :: -1]


def _s_num(n: list, row: list, k: int) -> int:
    """(k+1)! d^(k+2) S_k, its terms p and k+1-p paired; row is
    _product_row(N, k+1)."""
    return sum(math.comb(k + 1, p) * (k + 1 - 2 * p) * row[p] * (n[p] - n[k + 1 - p])
               for p in range(1, (k + 1) // 2 + 1))


def _c_num(n: list, N: list, k: int, s_num: int) -> int:
    """(k+1)! d^(k+2) C_k from the S_k numerator."""
    return (k + 1) * (n[0] - n[k + 1]) * N[k + 1] + s_num


def _c_direct_num(row: list, k: int) -> int:
    """(k+1)! d^(k+2) C_k straight from its double sum; row is
    _product_row(N, k+2)."""
    return (k + 1) * sum(math.comb(k, p) * (row[p + 1] - row[p + 2]) for p in range(k + 1))


def _value(num: int, d: int, k: int) -> Fraction:
    """The rational num / ((k+1)! d^(k+2))."""
    return Fraction(num, math.factorial(k + 1) * d ** (k + 2))


def s_k_value(c: RationalSeq, k: int) -> Fraction:
    """Exact S_k; requires c_1..c_{k+2} (matching the C_k companion)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d, n, N = _integer_form(c, k)
    return _value(_s_num(n, _product_row(N, k + 1), k), d, k)


def c_k_value(c: RationalSeq, k: int) -> Fraction:
    """Exact C_k = (1/k!)(c_1 - c_{k+2}) prod_{j<=k+1} c_j + S_k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d, n, N = _integer_form(c, k)
    return _value(_c_num(n, N, k, _s_num(n, _product_row(N, k + 1), k)), d, k)


def c_k_direct(c: RationalSeq, k: int) -> Fraction:
    """Independent expansion of C_k straight from its double-sum definition."""
    d, _, N = _integer_form(c, k)
    return _value(_c_direct_num(_product_row(N, k + 2), k), d, k)


_SWEEP_FACTORS = (Fraction(1), Fraction(9, 10), Fraction(3, 4), Fraction(1, 2))


def s_k_nonneg_sweep(trials: int, k_max: int, rng_seed: int) -> dict:
    """Exact-arithmetic sweep: S_k >= 0 and C_k >= 0 for random sequences.

    Sequences are cumulative products of factors from {1, 9/10, 3/4, 1/2}
    (ties included on purpose: the strict cases hinge on whether some
    c_k > c_{k+1}).  Any violation is recorded; exact integers make the
    check its own oracle.  Only a reported value becomes a Fraction.
    """
    if k_max < 1 or trials < 1:
        raise ValueError("need trials >= 1 and k_max >= 1")
    rng = random.Random(rng_seed)
    violations = []
    samples = []
    checked = 0
    for trial in range(trials):
        length = k_max + 2
        start = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        vals = [start]
        for _ in range(length - 1):
            vals.append(vals[-1] * rng.choice(_SWEEP_FACTORS))
        seq = RationalSeq(tuple(vals))
        d, n, N = _integer_form(seq, k_max)
        # S_k reads the products N_a N_b with a + b = k+1, and the direct
        # C_k those with a + b = k+2, which S_(k+1) reads next: each
        # product is formed once per trial
        row = _product_row(N, 2)
        for k in range(1, k_max + 1):
            s_row, row = row, _product_row(N, k + 2)
            s = _s_num(n, s_row, k)
            ck = _c_num(n, N, k, s)
            checked += 1
            if trial == 0 and k <= 4:
                # exact rationals serialize as numerator/denominator strings
                samples.append({"k": k, "S_k": str(_value(s, d, k)),
                                "C_k": str(_value(ck, d, k))})
            if s < 0:
                violations.append({"trial": trial, "k": k, "kind": "S",
                                   "value": str(_value(s, d, k))})
            if ck < 0:
                violations.append({"trial": trial, "k": k, "kind": "C",
                                   "value": str(_value(ck, d, k))})
            if ck != _c_direct_num(row, k):
                violations.append({"trial": trial, "k": k, "kind": "C-mismatch"})
    return {
        "trials": trials,
        "k_max": k_max,
        "rng_seed": rng_seed,
        "checked": checked,
        "first_trial_samples": samples,
        "violations": violations,
        "passed": not violations,
    }


class KEvalError(ValueError):
    """The inner series needs more terms than the sequence's j_cut."""


def _log1pexp(y: float) -> float:
    """ln(1 + e^y), overflow-safe."""
    return max(y, 0.0) + math.log1p(math.exp(-abs(y)))


@dataclass
class ConcaveSeriesMajorant:
    """alpha(t) = ln 3 + 2 ln(1 + sum_k (4t)^k/(t_1...t_k)).

    Increasing; concave whenever t_j/j is nondecreasing.  Evaluation is a
    log-sum-exp over k with the cutoff chosen so the term ratio
    4t/t_{k+1} stays below 1/2, giving a geometric tail bound.
    The returned value is a lower bound; value+err an upper bound.  The
    cutoff is at most the sequence's j_cut, and an argument that needs
    more terms raises KEvalError; an explicit list has no such cap, since
    its terms past the list are 0.  The zeros are read from the process's
    TermPrefix of the sequence, and the sums of their logs are kept here,
    extended in ZERO_CHUNK pieces counted from index 1, so alpha(t) does
    not depend on the points evaluated before.
    """

    sequence: ZeroSequence
    _cumlog: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._cumlog = np.zeros(1)  # cumlog[k] = sum_{i<=k} ln t_i, finite t_i
        fam = self.sequence.family
        self._cap = math.inf if isinstance(fam, ExplicitFamily) else self.sequence.j_cut

    def _ensure_cumlog(self, k: int) -> None:
        """Extend cumlog to index k, or to the last finite t_j, one
        ZERO_CHUNK piece at a time: a piece's long-double sums start from
        the float64 sum before it, at a fixed index."""
        while len(self._cumlog) <= k:
            have = len(self._cumlog) - 1
            tj = TermPrefix.of(self.sequence).finite(min(have + ZERO_CHUNK, self._cap))[have:]
            if not len(tj):
                return
            ext = self._cumlog[-1] + np.cumsum(np.log(tj).astype(np.longdouble))
            self._cumlog = np.concatenate([self._cumlog, np.asarray(ext, dtype=float)])

    # extra indices past the ratio-1/2 cutoff: the omitted tail is then at
    # most 2^-_EXTRA of the last kept term, keeping the sampled function
    # smooth across cutoff switches (each term ratio beyond 2x is < 1/2)
    _EXTRA = 48

    def eval(self, t: float) -> tuple[float, float]:
        if not (t > 0) or not math.isfinite(t):
            raise ValueError("need finite t > 0")
        x = 4.0 * t
        n = TermPrefix.of(self.sequence).count_leq(2.0 * x, self.sequence.term_cap)
        k_star = n + self._EXTRA
        if k_star + 1 > self._cap:
            raise KEvalError(
                f"alpha({t:g}) needs at least {k_star + 1} inner-series terms, more than "
                f"--j-cut {self.sequence.j_cut}"
            )
        self._ensure_cumlog(k_star + 1)
        cum = self._cumlog[1 : k_star + 2]
        if len(cum) < k_star + 1:  # no zero is left: the log sums are inf
            cum = np.concatenate((cum, np.full(k_star + 1 - len(cum), math.inf)))
        lnx = math.log(x)
        # inner-series terms for k = 1..k_star (the empty product is the
        # "1 +" handled by log1p below)
        ks = np.arange(1, k_star + 1)
        exponents = ks * lnx - cum[:k_star]
        m = float(np.max(exponents))
        if math.isfinite(m):
            log_s = m + math.log(float(np.sum(np.exp(exponents - m))))
        else:
            log_s = float("-inf")
        log_1ps = _log1pexp(log_s)  # ln(1 + S_K)
        # tail: terms past k_star decay at ratio <= 1/2, so the remainder
        # is at most twice the next term; err = 2 ln(1 + tail/(1+S_K)).
        if math.isfinite(cum[k_star]):
            log_next = (k_star + 1) * lnx - float(cum[k_star])
            tail_over = 2.0 * math.exp(min(log_next - log_1ps, 700.0))
        else:
            tail_over = 0.0
        value = LN3 + 2.0 * log_1ps
        err = 2.0 * math.log1p(tail_over)
        return value, err


class LambdaDomainError(ValueError):
    """(1+t)/(lam*alpha(2et)) dipped to 8e or below."""


@dataclass
class BetaMajorant:
    """beta(t) = 6 a(2et) ln((1+t)/(lam a(2et))) + 8 sum_j a(2^j e t)/4^j.

    a is an increasing concave majorant with a(0+) >= 0, so a(2x) <= 2a(x)
    and the series tail past J is at most 8 a(2^J e t) 4^-J.  Every
    evaluation validates (1+t)/(lam a(2et)) > 8e and reports the largest
    admissible lam at the failing point otherwise.
    """

    alpha: Callable[[float], tuple]
    lam: float
    tail_terms: int = 12

    def _alpha2(self, t: float):
        return self.alpha(2.0 * math.e * t)

    def eval(self, t: float) -> tuple[float, float]:
        if not (t > 0) or not math.isfinite(t):
            raise ValueError("need finite t > 0")
        a2, a2_err = self._alpha2(t)
        ratio_low = (1.0 + t) / (self.lam * (a2 + a2_err))
        if not ratio_low > 8.0 * math.e:
            lam_max = (1.0 + t) / (8.0 * math.e * (a2 + a2_err))
            raise LambdaDomainError(
                f"(1+t)/(lam a(2et)) = {ratio_low:.6g} <= 8e at t = {t:g}; "
                f"largest admissible lam there is {lam_max:.6g}"
            )
        main_low = 6.0 * a2 * math.log((1.0 + t) / (self.lam * (a2 + a2_err)))
        series = 0.0
        last = (a2, a2_err)
        for j in range(1, self.tail_terms + 1):
            aj, aj_err = self.alpha(2.0**j * math.e * t)
            series += 8.0 * aj / 4.0**j
            last = (aj, aj_err)
        tail = 8.0 * (last[0] + last[1]) / 4.0**self.tail_terms
        err_main = 6.0 * (a2 + a2_err) * math.log(
            (1.0 + t) / (self.lam * a2)
        ) - main_low
        return main_low + series, err_main + tail


def beta_dyadic_nqa_tail(seq: ZeroSequence, lam: float, j_from: int) -> Optional[float]:
    """Certified tail of sum_{j>J} beta(2^j)/2^j for the companion majorant.

    Chain of bounds:
      alpha(t) <= ln3 + 2 ln2 + 2 Nup(8t)  (the inner series is at most
        twice its largest term after the 2^-k split), where
      Nup(y) = max_k (k ln y - sum_{i<=k} ln t_i) and the cumulated logs
        are replaced by their family lower bound;
      ln((1+t)/(lam alpha)) <= ln(1+t) + max(0, ln(1/(lam ln3))) since
        alpha >= ln3;
      sum_j alpha(2^j e t)/4^j <= 2 alpha(e t)   (concavity doubling).
    Family envelopes for Nup: geometric r gives (ln y)^2/(2 ln r)
    (complete the square); power a gives a y^(1/a) (via lgamma >= k ln k - k).
    Other families return None.
    """
    from .sequences import GeometricFamily, PowerFamily
    from .tails import poly_geom_tail

    fam = seq.family
    k0 = LN3 + 2.0 * math.log(2.0)
    c_lam = max(0.0, math.log(1.0 / (lam * LN3)))
    j0 = max(j_from + 1, 4)
    ln2 = math.log(2.0)
    if isinstance(fam, GeometricFamily):
        lnr = math.log(fam.r)
        y2 = math.log(16.0 * math.e) + j0 * ln2  # ln(8 * 2e * 2^j)
        y1 = math.log(8.0 * math.e) + j0 * ln2
        expr = 6.0 * (k0 + y2 * y2 / lnr) * (j0 * ln2 + 1.0 + c_lam) + 8.0 * (
            k0 + y1 * y1 / lnr
        )
        return poly_geom_tail(expr / j0**3, 3, 0, 0.5, j0)
    if isinstance(fam, PowerFamily):
        a = fam.a
        d2 = 2.0 * a * (16.0 * math.e) ** (1.0 / a)
        d1 = 2.0 * a * (8.0 * math.e) ** (1.0 / a)
        x = 2.0 ** (1.0 / a)
        expr = 6.0 * (k0 + d2 * x**j0) * (j0 * ln2 + 1.0 + c_lam) + 8.0 * (
            k0 + d1 * x**j0
        )
        return poly_geom_tail(expr / (j0 * x**j0), 1, 0, x / 2.0, j0)
    return None


def lambda_search(alpha: Callable[[float], tuple], t_lo: float, t_hi: float,
                  samples: int = 256) -> float:
    """A witness lam with (1+t)/(lam a(2et)) > 8e on the sampled domain.

    lam = min over the grid of (1+t)/a(2et) divided by 8e, halved as a
    safety margin; errors if the ratio is unbounded below by 0.
    """
    grid = log_grid(t_lo, t_hi, samples)
    best = math.inf
    for t in grid:
        a2, a2_err = alpha(2.0 * math.e * float(t))
        if not a2 + a2_err > 0:
            raise ValueError("alpha must be positive on the domain")
        best = min(best, (1.0 + float(t)) / (a2 + a2_err))
    if not math.isfinite(best) or best <= 0:
        raise ValueError("ratio (1+t)/alpha(2et) unbounded on domain")
    return best / (8.0 * math.e) / 2.0


@dataclass
class StepFunction:
    """Right-continuous step function: 0 before the first threshold, then
    value_k on [thr_k, thr_{k+1}).  Thresholds and values carry exact log
    forms so threshold identities evaluate without rounding."""

    log_thresholds: list
    log_values: list

    def __post_init__(self):
        if len(self.log_thresholds) != len(self.log_values):
            raise ValueError("thresholds/values length mismatch")
        if any(b <= a for a, b in zip(self.log_thresholds, self.log_thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    def value(self, t: float) -> float:
        if t <= 0:
            raise ValueError("need t > 0")
        lt = math.log(t)
        idx = -1
        for i, lth in enumerate(self.log_thresholds):
            if lth <= lt:
                idx = i
            else:
                break
        return 0.0 if idx < 0 else math.exp(self.log_values[idx])

    def threshold_products(self) -> list:
        """f(t_k) ln(t_k)/t_k at each threshold, via exact log cancellation."""
        out = []
        for lth, lval in zip(self.log_thresholds, self.log_values):
            out.append(math.exp(lval + math.log(lth) - lth))
        return out


def step_counterexample(k_max: int = 6) -> StepFunction:
    """Steps f(t) = thr_k / ln(thr_k) at thr_k = e^(k^2), k = 1..k_max.

    The first threshold is e; sum 1/ln(thr_k) = sum 1/k^2 converges, so the
    dyadic diagnostic of the trace is convergent-certified, while
    f(thr_k) ln(thr_k)/thr_k = 1 exactly at every threshold (computed via
    the exact log forms: the exponent cancels symbolically).
    """
    if k_max < 1:
        raise ValueError("step counterexample needs k_max >= 1")
    log_thr = [float(k * k) for k in range(1, k_max + 1)]
    log_vals = [lth - math.log(lth) for lth in log_thr]
    return StepFunction(log_thresholds=log_thr, log_values=log_vals)


def step_dyadic_tail(step: StepFunction, j_from: int) -> float:
    """Certified tail of sum_j f(2^j)/2^j for a step trace.

    Grouping dyadic points by the active step: the points with 2^j in
    [thr_k, thr_{k+1}) contribute at most (thr_k/ln thr_k) * 2/thr_k
    = 2/ln(thr_k), and only steps with thr_{k+1} > 2^j_from matter.
    """
    total = 0.0
    for i, lth in enumerate(step.log_thresholds):
        hi = (
            step.log_thresholds[i + 1]
            if i + 1 < len(step.log_thresholds)
            else math.inf
        )
        if hi <= j_from * math.log(2.0):
            continue
        total += 2.0 / lth
    return total


def step_threshold_probe(step: StepFunction) -> dict:
    """f(thr_k) ln(thr_k)/thr_k at thresholds (exact log cancellation)."""
    prods = step.threshold_products()
    return {
        "products": prods,
        "all_exactly_one": all(p == 1.0 for p in prods),
        "does_not_decay": all(p >= 0.5 for p in prods),
    }

