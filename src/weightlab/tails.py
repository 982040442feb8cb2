"""Certified upper bounds for series tails.

Every function here returns a rigorous upper bound for an infinite tail,
derived from a closed form, a geometric-ratio argument, or an integral
comparison with an explicit antiderivative.  No bound is heuristic; the
inequality each one relies on is stated in its docstring.
"""

from __future__ import annotations

import math


def poly_geom_tail(coeff: float, p: float, q: float, x: float, j_from: int) -> float:
    """Upper bound for sum_{j >= j_from} coeff * j^p * ln(j)^q * x^j.

    Requires 0 < x < 1, p, q >= 0, j_from >= 3.  Term ratios
    x * ((j+1)/j)^p * (ln(j+1)/ln j)^q decrease in j, so the ratio at
    j_from dominates; when it is < 1 the tail is bounded by the first
    term times 1/(1 - ratio).  If the ratio at j_from is >= 1 the start
    index is advanced until it drops below 1 (it tends to x < 1).  If it
    is still >= 1 after 10,000 steps (x very close to 1), the result is
    +inf: no finite bound, so no certificate.
    """
    if coeff == 0.0:
        return 0.0
    if not 0.0 < x < 1.0 or p < 0 or q < 0 or j_from < 3:
        raise ValueError("poly_geom_tail: invalid parameters")

    def summand(j: int) -> float:
        return coeff * j**p * math.log(j) ** q * x**j

    j = j_from
    head = 0.0
    while True:
        ratio = x * ((j + 1) / j) ** p * (math.log(j + 1) / math.log(j)) ** q
        if ratio < 1.0:
            return head + summand(j) / (1.0 - ratio)
        head += summand(j)
        j += 1
        if j > j_from + 10_000:
            return math.inf


def log_pow_integral(q: int, p: float, lower: float) -> float:
    """Exact value of integral_{lower}^inf (ln u)^q / u^p du for p > 1, q in {0,1,2,3}.

    With L = ln(lower) and c = p - 1:
        integral = lower^(-c) * sum_{i=0..q} (q!/(q-i)!) * L^(q-i) / c^(i+1).
    Valid for lower >= 1.
    """
    if p <= 1.0 or lower < 1.0 or q not in (0, 1, 2, 3):
        raise ValueError("log_pow_integral: need p > 1, lower >= 1, q <= 3")
    c = p - 1.0
    ln_l = math.log(lower)
    total = 0.0
    fact = 1.0
    for i in range(q + 1):
        total += fact * ln_l ** (q - i) / c ** (i + 1)
        fact *= q - i
    return lower**(-c) * total


def log_pow_over_pow_tail(coeff: float, q: int, p: float, j_from: int) -> float:
    """Upper bound for sum_{j > j_from} coeff * (ln j)^q / j^p with p > 1, q >= 0.

    The summand decreases once ln j >= q/p, so for j_from >= e^(q/p) the
    tail is bounded by the integral from j_from.  For smaller start
    indices the finitely many pre-onset terms are added explicitly.
    """
    if coeff == 0.0:
        return 0.0
    if p <= 1.0 or q < 0 or j_from < 1:
        raise ValueError("log_pow_over_pow_tail: need p > 1, j_from >= 1")
    onset = max(j_from + 1, 3, math.ceil(math.exp(q / p)))
    head = sum(coeff * math.log(j) ** q / j**p for j in range(j_from + 1, onset))
    return head + coeff * log_pow_integral(q, p, float(onset - 1))


def inv_log_pow_tail(coeff: float, s: float, j_from: int) -> float:
    """Upper bound for sum_{j > j_from} coeff / (j * (ln j)^s) with s > 1.

    Integral comparison: the summand decreases for j >= 2, and
    integral_J^inf du/(u (ln u)^s) = (ln J)^(1-s)/(s-1).
    """
    if coeff == 0.0:
        return 0.0
    if s <= 1.0 or j_from < 2:
        raise ValueError("inv_log_pow_tail: need s > 1, j_from >= 2")
    return coeff * math.log(j_from) ** (1.0 - s) / (s - 1.0)


def inv_loglog_pow_tail(coeff: float, s: float, j_from: int) -> float:
    """Upper bound for sum_{j > j_from} coeff / (j * ln j * (lnln j)^s), s > 1.

    integral_J^inf du/(u ln u (lnln u)^s) = (lnln J)^(1-s)/(s-1); the
    summand decreases for j >= 3 and the bound needs lnln j_from > 0,
    i.e. j_from >= 3.
    """
    if coeff == 0.0:
        return 0.0
    if s <= 1.0 or j_from < 3:
        raise ValueError("inv_loglog_pow_tail: need s > 1, j_from >= 3")
    return coeff * math.log(math.log(j_from)) ** (1.0 - s) / (s - 1.0)


def index_weighted_half_pow_tail(j_from: int, m: int = 1) -> float:
    """Exact sum_{j >= j_from} j^m / 2^j for m in {0, 1, 2}.

    m=0: 2^(1-j0); m=1: (j0+1)/2^(j0-1); m=2: (j0^2+2 j0+3)/2^(j0-1).
    """
    j0 = j_from
    if m == 0:
        return 2.0 ** (1 - j0)
    if m == 1:
        return (j0 + 1.0) / 2.0 ** (j0 - 1)
    if m == 2:
        return (j0 * j0 + 2.0 * j0 + 3.0) / 2.0 ** (j0 - 1)
    raise ValueError("index_weighted_half_pow_tail: m must be 0, 1 or 2")
