"""Reference computations for the benchmark's output checks.

Nothing here imports weightlab.  Every value is computed from the
mathematical definitions in the README (the zero sequences, the canonical
product w(z) = prod (1 + iz/t_j), the coefficient series, the dyadic model)
by code that shares nothing with the package under test:

- explicit lists and the geometric family: mpmath products at 200 bits;
- power:a=2: the closed form prod (1 + w/j^2) = sinh(pi sqrt w)/(pi sqrt w);
- powlog: a float64 enumeration of 2^21 terms summed in long double, with an
  a-priori rounding bound, and an integral-test bracket for the tail;
- coefficient tables: Euler's q-series and the closed form of
  prod (1 + u/j^4), raised to the n-th power in mpmath;
- the dyadic model: exact zero counts by bisection in mpmath, and the
  contradiction sums at 200 bits.

Brackets are (lo, hi) pairs with lo <= exact <= hi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpc, mpf

U64 = 2.0**-53
U_LD = float(np.finfo(np.longdouble).eps) / 2.0
PREC = 200
LN2 = math.log(2.0)

# Enumerated prefix for powlog references; t_j past it exceeds 2e8.
POWLOG_M = 1 << 21
# Relative error of one float64 term ln(1 + (t/t_j)^2): the closed-form t_j
# (a few logs and powers, amplified near lnln 3 = 0.094) and the log1p
# itself stay well inside 128 ulp.
TERM_REL = 128 * U64


def gamma(n: int, u: float = U64) -> float:
    """Higham's gamma_n = n u / (1 - n u): bound on a recursive n-term sum."""
    return n * u / (1.0 - n * u)


# ---------------------------------------------------------------------------
# sequence specs (own parser for the README grammar)

@dataclass(frozen=True)
class Spec:
    family: str
    params: tuple


def parse_spec(text: str) -> Spec:
    head, body = text.split(":", 1)
    if head == "explicit":
        return Spec("explicit", tuple(float(v) for v in body.strip("[]").split(",")))
    kv = dict(part.split("=") for part in body.split(","))
    if head == "powlog":
        return Spec(head, (float(kv["a"]), float(kv["b"])))
    return Spec(head, (float(kv["r" if head == "geometric" else "a"]),))


def powlog_terms(a: float, b: float, j) -> np.ndarray:
    """t_j = m (ln m)^a (lnln m)^b with m = max(j, 3), float64."""
    m = np.maximum(np.asarray(j, dtype=float), 3.0)
    lm = np.log(m)
    return m * lm**a * np.log(lm) ** b


def powlog_mp(a: float, b: float, x) -> mpf:
    m = max(mpf(x), 3)
    return m * mp.log(m) ** a * mp.log(mp.log(m)) ** b


# ---------------------------------------------------------------------------
# ln|w(z)| references

def _tiny(v) -> float:
    return 2.0**-150 * (1.0 + abs(float(v)))


def _mp_bracket(v) -> tuple:
    return float(v) - _tiny(v), float(v) + _tiny(v)


def _explicit_log_abs(values, z: complex) -> mpf:
    with mp.workprec(PREC):
        zz = mpc(z.real, z.imag)
        acc = mpf(0)
        for v in values:
            factor = abs(1 + 1j * zz / mpf(v))
            if factor == 0:
                return mpf("-inf")
            acc += mp.log(factor)
        return acc


def _geometric_log_abs(r: float, z: complex) -> tuple:
    """Product up to |z|/r^J < 2^-220; the rest is at most 2|z| r^-J/(r-1)."""
    with mp.workprec(PREC):
        zz = mpc(z.real, z.imag)
        rr = mpf(r)
        acc = mpf(0)
        j = 1
        while True:
            q = zz / rr**j
            factor = abs(1 + 1j * q)
            if factor == 0:
                return float("-inf"), float("-inf")
            acc += mp.log(factor)
            if abs(q) < mpf(2) ** -220:
                break
            j += 1
        tail = 2 * abs(zz) * rr**-j / (rr - 1)
        return float(acc - tail) - _tiny(acc), float(acc + tail) + _tiny(acc)


def _power2_log_abs(z: complex) -> mpf:
    """ln|prod (1 + iz/j^2)| = ln|sinh(pi s)/(pi s)|, s^2 = iz."""
    with mp.workprec(PREC):
        w = 1j * mpc(z.real, z.imag)
        if w == 0:
            return mpf(0)
        s = mp.sqrt(w)
        val = abs(mp.sinh(mp.pi * s) / (mp.pi * s))
        return mp.log(val) if val > 0 else mpf("-inf")


class PowlogReference:
    """Brackets for ln|w| of powlog:a,b from 2^21 enumerated terms plus tails."""

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b
        self.tj = powlog_terms(a, b, np.arange(1, POWLOG_M + 1))
        # geometric mesh past the prefix for the integral test
        ratio = 1.0 + 2.0**-12
        n = int(math.ceil(48 * LN2 / math.log(ratio)))
        self.mesh = POWLOG_M * ratio ** np.arange(n + 1)
        self.mesh_t = powlog_terms(a, b, self.mesh)
        self.dx = np.diff(self.mesh)

    def _sum(self, terms: np.ndarray) -> tuple:
        """(sum, bound on its rounding) for terms of one sign or mixed."""
        s = float(np.sum(terms, dtype=np.longdouble))
        mag = float(np.sum(np.abs(terms), dtype=np.longdouble))
        return s, gamma(len(terms), U_LD) * mag + U64 * abs(s)

    def real(self, t: float) -> tuple:
        """ln|w(t)| = sum_j (1/2) ln(1 + t^2/t_j^2), all terms positive.

        Past the prefix the summand is a decreasing function g of j, so
        int_{M+1}^inf g <= tail <= int_M^inf g.  The integral over the mesh
        is bracketed by right and left Riemann sums; past the mesh end X,
        ln(1+y) <= y and t(x) >= x (ln X)^a (lnln X)^b give at most
        t^2 X / (2 t(X)^2).
        """
        terms = 0.5 * np.log1p((t / self.tj) ** 2)
        head, rnd = self._sum(terms)
        rnd += TERM_REL * head
        g = 0.5 * np.log1p((t / self.mesh_t) ** 2)
        upper = float(np.sum(g[:-1] * self.dx)) + 0.5 * t * t * self.mesh[-1] / self.mesh_t[-1] ** 2
        lower = max(0.0, float(np.sum(g[1:] * self.dx)) - float(g[0]))
        return (head - rnd + lower * (1.0 - 1e-12),
                head + rnd + upper * (1.0 + 1e-12))

    def _inv_tails(self) -> tuple:
        """Upper bounds for sum_{j>M} 1/t_j and sum_{j>M} 1/t_j^2."""
        m = float(POWLOG_M)
        lm, llm = math.log(m), math.log(math.log(m))
        if self.a > 1.0:
            s1 = llm ** -self.b * lm ** (1.0 - self.a) / (self.a - 1.0)
        else:
            s1 = llm ** (1.0 - self.b) / (self.b - 1.0)
        s2 = 1.0 / (m * lm ** (2 * self.a) * llm ** (2 * self.b))
        return s1, s2

    def complex(self, z: complex) -> tuple:
        """ln|w(z)| = sum_j (1/2) ln((1 - y/t_j)^2 + (x/t_j)^2), z = x + iy.

        Each tail factor is (1/2) ln(1 + u_j) with |u_j| <= |z|^2/t_j^2 +
        2|y|/t_j <= 1/2, so it is at most |u_j| in size.
        """
        x, y = z.real, z.imag
        ry, rx = y / self.tj, x / self.tj
        q = (1.0 - ry) ** 2 + rx**2
        terms = 0.5 * np.log(q)
        head, rnd = self._sum(terms)
        per_term = 0.5 * (136 * U64 * ((1.0 + np.abs(ry)) ** 2 + rx**2) / q
                          + 2 * U64 * np.abs(np.log(q)))
        rnd += float(np.sum(per_term))
        s1, s2 = self._inv_tails()
        r2 = x * x + y * y
        tm = float(self.tj[-1])
        if r2 / tm**2 + 2.0 * abs(y) / tm > 0.5:
            raise ValueError(f"|z| = {abs(z):g} too large for the powlog tail bound")
        tail = r2 * s2 + 2.0 * abs(y) * s1
        return head - rnd - tail, head + rnd + tail


class References:
    """ln|w| brackets per spec, caching the powlog prefixes."""

    def __init__(self):
        self._powlog = {}

    def _pl(self, spec: Spec) -> PowlogReference:
        if spec.params not in self._powlog:
            self._powlog[spec.params] = PowlogReference(*spec.params)
        return self._powlog[spec.params]

    def real(self, spec: Spec, t: float) -> tuple:
        if spec.family == "powlog":
            return self._pl(spec).real(t)
        return self.complex(spec, complex(t, 0.0))

    def complex(self, spec: Spec, z: complex) -> tuple:
        if spec.family == "explicit":
            return _mp_bracket(_explicit_log_abs(spec.params, z))
        if spec.family == "geometric":
            return _geometric_log_abs(spec.params[0], z)
        if spec.family == "power" and spec.params[0] == 2.0:
            return _mp_bracket(_power2_log_abs(z))
        if spec.family == "powlog":
            return self._pl(spec).complex(z)
        raise NotImplementedError(f"no reference for {spec}")


def terms_bound(spec: Spec, x: float, j_cut: int) -> int:
    """At most how many terms weightlab's evaluator sums for ln|w| at
    |argument| x, the n of the summation allowance.

    An explicit list sums every zero.  For geometric:r=R the evaluator
    doubles J from max(16, n(8x)) until its tail bound is below its
    tolerance 1e-12 > 2^-40.  Both tail bounds, (x^2/2) S2(J) for real and
    x^2 S2(J) + 2x S1(J) for complex arguments, are below 2^-40 once
    R^J >= 2^42 x / min(1, R - 1), so it sums at most twice that many
    terms.  Other families are counted at the sequence's cap j_cut.
    """
    if spec.family == "explicit":
        return len(spec.params)
    if spec.family == "geometric":
        r = spec.params[0]
        need = math.log(2.0**42 * max(x, 1.0) / min(1.0, r - 1.0)) / math.log(r)
        return 2 * max(16, math.ceil(need))
    return j_cut


def summation_allowance(n_terms: int, magnitude: float) -> float:
    """A-priori float64 rounding of the program's n-term sum: gamma_{n+32} * sum|terms|.

    The 32 extra units cover the rounding inside each term (quotient,
    square, log1p, and the closed-form t_j), which stays below 32 ulp of
    the term for the families benchmarked here.
    """
    return gamma(n_terms + 32) * magnitude


# ---------------------------------------------------------------------------
# coefficient series

def qbinomial_coeffs(q, K: int, N=None) -> list:
    """[u^k] prod_{j=1}^{N} (1 + u q^j), k = 0..K (N=None: infinite product).

    Finite N is the q-binomial theorem, q^{k(k+1)/2} [N choose k]_q; the
    infinite product is Euler's q^{k(k+1)/2} / (q;q)_k.
    """
    with mp.workprec(PREC):
        q = mpf(q)
        out = [mpf(1)]
        for k in range(1, K + 1):
            num = 1 - q ** (N - k + 1) if N is not None else mpf(1)
            out.append(out[-1] * q**k * num / (1 - q**k))
        return out


def power4_coeffs(K: int) -> list:
    """[u^m] prod_j (1 + u/j^4) = 2^{2m+1} pi^{4m} / (4m+2)!, m = 0..K."""
    with mp.workprec(PREC):
        return [mpf(2) ** (2 * m + 1) * mp.pi ** (4 * m) / mp.factorial(4 * m + 2)
                for m in range(K + 1)]


def poly_pow(c: list, n: int, K: int) -> list:
    """Coefficients 0..K of (sum c_k u^k)^n."""
    with mp.workprec(PREC):
        out = [mpf(1)] + [mpf(0)] * K
        for _ in range(n):
            out = [mp.fsum(out[i] * c[k - i] for i in range(k + 1)) for k in range(K + 1)]
        return out


def exact_log_a(spec: Spec, n: int, K: int) -> list:
    """ln a_k = (1/2) ln [u^k] prod_j (1 + u/t_j^2)^n for closed forms."""
    if spec.family == "geometric":
        base = qbinomial_coeffs(1.0 / spec.params[0] ** 2, K)
    elif spec.family == "power" and spec.params[0] == 2.0:
        base = power4_coeffs(K)
    else:
        raise NotImplementedError(f"no closed-form coefficients for {spec}")
    with mp.workprec(PREC):
        return [mp.log(v) / 2 for v in poly_pow(base, n, K)]


def log_a_from_base(base_log_a: list, n: int) -> list:
    """ln a_k of the n-th power, recomputed from an n=1 table in mpmath."""
    K = len(base_log_a) - 1
    with mp.workprec(PREC):
        base = [mp.exp(2 * mpf(v)) if v != -math.inf else mpf(0) for v in base_log_a]
        full = poly_pow(base, n, K)
        return [mp.log(v) / 2 if v > 0 else mpf("-inf") for v in full]


# ---------------------------------------------------------------------------
# dyadic counterexample model

def powlog_count_leq(a: float, b: float, T: float) -> int:
    """#{j >= 1 : t_j <= T} for powlog, by bisection in mpmath at 200 bits."""
    with mp.workprec(PREC):
        T = mpf(T)
        if powlog_mp(a, b, 3) > T:
            return 0
        lo, hi = 3, 4
        while powlog_mp(a, b, hi) <= T:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if powlog_mp(a, b, mid) <= T:
                lo = mid
            else:
                hi = mid
        return lo


def dyadic_multiplicities(a: float, b: float, j_max: int) -> list:
    counts = [powlog_count_leq(a, b, 2.0**j) for j in range(1, j_max + 1)]
    return [counts[0]] + [counts[j] - counts[j - 1] for j in range(1, j_max)]


def ln_w0_dyadic(mult: list, m: int) -> mpf:
    """ln prod_j (1 + 4^{m-j})^{n_j/2}: the dyadic weight at 2^m."""
    with mp.workprec(PREC):
        return mp.fsum(nj * mp.log(1 + mpf(4) ** (m - j))
                       for j, nj in enumerate(mult, start=1) if nj) / 2


def beta_value(name: str, t: float) -> float:
    """The shipped radius functions, from their README definitions."""
    kind, _, c = name.partition(":")
    if kind == "const":
        return float(c)
    if kind == "loglinear":
        return float(c) * max(1.0, math.log(t))
    if kind == "trace":
        return 0.002 * _geometric_log_abs(2.0, complex(t, 0.0))[0] + 0.002
    raise ValueError(f"unknown beta {name!r}")


@dataclass
class ContradictionLevel:
    j: int
    lhs_partial: float
    rhs_partial: float
    schwarz_rhs: float
    beta: float


def contradiction_levels(mult: list, beta_name: str, J: int) -> list:
    """LHS_j = sum_{i<=j} (n_i/2^i) ln(2^i/beta_i),
    RHS_j = sum_{i<=j} 4 ln w0(2^{i+1})/2^{i+1} + beta_i/2^i, and the
    Schwarz cap 2 ln w0(2^{j+1}) + n_j ln(beta_j/2^j), all at 200 bits
    (every shipped beta has beta(2) <= 2, so the sums start at j = 1)."""
    out = []
    with mp.workprec(PREC):
        lhs = mpf(0)
        rhs = mpf(0)
        for j in range(1, J + 1):
            b = beta_value(beta_name, 2.0**j)
            bm, two_j, nj = mpf(b), mpf(2) ** j, mult[j - 1]
            if bm <= two_j:
                lhs += nj / two_j * mp.log(two_j / bm)
            w_next = ln_w0_dyadic(mult, j + 1)
            rhs += 4 * w_next / (2 * two_j) + bm / two_j
            srhs = 2 * w_next + nj * mp.log(bm / two_j)
            out.append(ContradictionLevel(j, float(lhs), float(rhs), float(srhs), b))
    return out


def rhs_tail_lower(mult: list, beta_name: str, J: int, extra: int = 200) -> float:
    """sum_{J<j<=J+extra} of the RHS terms: a lower bound for the true tail."""
    with mp.workprec(PREC):
        acc = mpf(0)
        for j in range(J + 1, J + extra + 1):
            two_j = mpf(2) ** j
            acc += 4 * ln_w0_dyadic(mult, j + 1) / (2 * two_j)
            acc += mpf(beta_value(beta_name, 2.0**j)) / two_j
        return float(acc)


def log_abs_f_allowance(mult: list, j: int, radius: float) -> float:
    """Float64 rounding allowance for ln|f| = sum_i n_i ln|1 - (s/2^i)^2| near 2^j.

    Each level contributes n_i times a few logs of size at most
    |ln radius| + (i + j + 2) ln 2; 16 ulp per level covers them.
    """
    mag = sum(ni * (abs(math.log(radius)) + (i + j + 2) * LN2)
              for i, ni in enumerate(mult, start=1))
    return 16 * U64 * mag
