"""Dyadic-zero counterexample models and minimum-modulus experiments.

The model takes the zero-count increments of a source sequence at dyadic
points and builds two entire functions from them: a weight with zeros
i 2^j of multiplicity n_j, and an even function f with real zeros +-2^j of
the same multiplicities.  f is dominated by the squared weight, and a
Schwarz-lemma bound caps its size near each zero; summing the per-level
bounds yields a finite quantity that the minimum-modulus sums must not
exceed -- the experiments below realize all three facts at finite stage.

Sign conventions for soundness: minmod_sup returns a lower bound on the
true supremum, because it returns a value it evaluated.  Where a certificate
on the derivative of ln|f| shows that the supremum lies at an end of the
interval, that value is the larger end value; elsewhere it is the largest
value a dense scan and zoom evaluated.  The Schwarz right-hand side is an
upper bound, so every asserted inequality holds with certainty up to the
documented float slack.  Everything runs in float64; a witness of the
contradiction experiment must clear an a-priori rounding bound of both
partial sums.

ln|f| has one evaluator, CounterexampleModel.log_abs_f_offsets, for real
and complex points, all levels at once and a centre per point if need be:
the scans, the samples, and the interval ends of every minmod_sup call; a
single point z is log_abs_f_offsets(0.0, [z]).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .sampling import zoom_max
from .sequences import GeometricFamily, ZeroSequence
from .weights import CheckReport, WeightEvaluator

NEG_INF = float("-inf")
LN2 = math.log(2.0)
# points per block in log_abs_f_offsets: a block's (levels x 64) float64
# temporaries stay near 30 KiB, below glibc's mmap threshold, so the heap
# reuses them instead of mapping and faulting them in on every call
OFFSET_BLOCK = 64
# the largest j_max of a model: ln_w0_dyadic(j_max + 1) squares 2^(j_max+1)
MAX_MODEL_LEVEL = 510


@dataclass
class MultiplicityProfile:
    """Zero-count increments n_j = n(2^j) - n(2^{j-1}) of a source sequence."""

    j_max: int
    n: List[int]
    source_spec: str

    def __post_init__(self):
        if self.j_max < 1 or len(self.n) != self.j_max:
            raise ValueError("need one multiplicity per level 1..j_max")
        if any(v < 0 for v in self.n):
            raise ValueError("multiplicities must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.n)


def dyadic_multiplicities(seq: ZeroSequence, j_max: int) -> MultiplicityProfile:
    """n_1 = n(2), n_j = n(2^j) - n(2^{j-1}); partial sums reproduce n(2^j)."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    if j_max > 1023:
        raise ValueError(f"--j-max {j_max} > 1023: the dyadic point 2^j overflows float64")
    counts = seq.count_leq(2.0 ** np.arange(1, j_max + 1, dtype=float))
    n = [counts[0]] + [counts[j] - counts[j - 1] for j in range(1, j_max)]
    return MultiplicityProfile(j_max=j_max, n=n, source_spec=seq.spec_string())


@dataclass
class CounterexampleModel:
    mult: MultiplicityProfile

    def __post_init__(self):
        if self.mult.j_max > MAX_MODEL_LEVEL:
            raise ValueError(
                f"--j-max {self.mult.j_max} > {MAX_MODEL_LEVEL}: the model's weight at "
                f"2^(j_max+1) squares it, and 4^(j_max+1) overflows float64"
            )
        # one row per level with n_i > 0, in index order
        self._levels = [i for i, ni in enumerate(self.mult.n, start=1) if ni]
        rows = np.array([(self.mult.n[i - 1], float(2**i)) for i in self._levels], float)
        rows = rows.reshape(-1, 2)
        self._n, self._base = rows[:, 0:1], rows[:, 1:2]
        self._half_n = self._n * 0.5
        self._inv_base = 1.0 / self._base  # 2^-i, exact
        self._rows = np.arange(len(self._levels))[:, None]

    # -- the even function f -------------------------------------------------
    def log_abs_f_offsets(self, t, offsets, window=None) -> np.ndarray:
        """ln|f(t + x)| for an array of real or complex offsets x, t >= 0.

        t and the window, which picks each level's form, are both one value
        for all offsets or both one per offset (default: max|x| over all
        offsets).  A value depends only on its own t, x and window, so a
        point in a batch gets what a call with its centre alone gives.

        One code path serves real and complex x: a real x is the case Im x = 0, where
        every form below reduces to real arithmetic, and moduli of complex
        numbers are taken by hypot.  f is even, and at t = 0 the result is
        exactly even in x.  Levels whose zero the window can approach
        use the factored form |1 - (s/2^i)^2| = |(2^i - t) - x| |2^i + s|/4^i,
        s = t + x, each distance scaled by 2^-i (exactly) before its log.
        2^i - t is one rounding of the exact difference, exact by Sterbenz's
        lemma where t lies within a factor 2 of 2^i, so there offsets far
        below the float spacing of t still move the factor; -inf at an
        exact zero.  Remote levels use the cancellation-free
        0.5 log1p(|q|^2 - 2 Re q), q = (s/2^i)^2, which huge multiplicities
        do not amplify.  Where |q| could pass 2^500, so that |q|^2 would
        overflow, the remote form is taken as -2 ln r + 0.5 log1p(r^4 -
        2 Re(1/q)), r = 2^i/|s|.  Both remote forms see s only through |s|
        and cos(2 arg s).  All levels are evaluated at once, OFFSET_BLOCK
        points at a time, and summed in level order.  A form is computed on
        the rows it serves in some column of the block, and only written to
        its own entries; the others get inputs that keep them finite.
        """
        x = np.asarray(offsets)
        window = np.abs(x).max(initial=0.0) if window is None else window
        t, window = tw = np.array([t, window], float).reshape(2, -1)
        if not np.isfinite(tw).all():
            raise ValueError("ln|f| needs finite points")
        per_point = len(t) > 1
        base, inv, rows = self._base, self._inv_base, self._rows
        # one column per point, or one for all.  The near levels, 2^i in [(t - window)/1.5,
        # 2(t + window)], are rows [first, last): the rounded test is monotone on each side of t
        d = base - t
        near = np.abs(d) <= 0.5 * base + window
        first = np.minimum.reduce(np.where(near, rows, len(base)), axis=0, initial=len(base))
        last = first + near.sum(axis=0)
        # the levels whose |q| can pass 2^500 are the first rows, 2^i < |s| 2^-250.
        # Those below the near rows take the 1/q form: there t exceeds the
        # window, so |s| > 1.5 2^i (elsewhere the near rows start at row 0)
        big = np.searchsorted(base[:, 0], (t + window) * 2.0**-250)
        huge = np.minimum(big, first)
        spans = np.array([big, huge, first, last]).tolist()
        s = t + x
        size = np.abs(s)
        unit = s / np.maximum(size, np.finfo(float).tiny)
        cos2x2 = 2.0 * np.real(unit * unit)  # 2 cos(2 arg s): 2 on the real axis
        out = np.zeros(len(x))

        def rows_in(r0, r1, lo, hi):  # each column's rows lo <= i < hi among rows r0..r1-1
            return (rows[r0:r1] >= lo) & (rows[r0:r1] < hi) if per_point else True

        with np.errstate(divide="ignore"):
            for k in range(0, len(x), OFFSET_BLOCK):
                block = slice(k, k + OFFSET_BLOCK)
                col = block if per_point else slice(None)
                if per_point or not k:  # one shared column serves every block alike
                    r0, h1, n0, n1 = (g(v[col]) for g, v in zip((min, max, min, max), spans))
                # row 0 stays zero, so the sequential accumulate adds the
                # levels to 0.0 one by one, exactly as a per-level loop would
                m = len(size[block])
                terms = np.zeros((len(base) + 1, m))
                # |q| = (|s|/2^i)^2 and Re q = |q| cos(2 arg s); log1p's
                # argument |1 - q|^2 - 1 never rounds below -1.  Rows below
                # a column's big take q = 0, a zero term
                q = size[block] * inv[r0:]
                if per_point:
                    q *= rows[r0:] >= big[col]
                q *= q
                terms[1 + r0 :] = self._half_n[r0:] * np.log1p(q * q - q * cos2x2[block])
                if h1:  # other columns' entries take r = 1/2
                    mask = rows_in(0, h1, 0, huge[col])
                    r = np.divide(base[:h1], size[block], out=np.full((h1, m), 0.5), where=mask)
                    v = r * r
                    np.multiply(self._half_n[:h1], np.log1p(v * v - v * cos2x2[block])
                                - 4.0 * np.log(r), out=terms[1 : 1 + h1], where=mask)
                if n0 < n1:
                    left = np.log(np.abs(d[n0:n1, col] - x[block]) * inv[n0:n1])
                    right = np.log(np.abs(base[n0:n1] + s[block]) * inv[n0:n1])
                    np.multiply(self._n[n0:n1], left + right, out=terms[1 + n0 : 1 + n1],
                                where=rows_in(n0, n1, first[col], last[col]))
                out[block] = np.add.accumulate(terms, axis=0)[-1]
        return out

    def sup_at_ends(self, lo, hi):
        """True when the supremum of ln|f| on [lo, hi] provably lies at an end.

        lo and hi are the ends of one interval or of many: one bool per
        interval, from one pass over (level, interval) pairs.

        That is certified when [lo, hi] holds exactly one zero z = 2^i and
        ln|f| decreases on [lo, z) and increases on (z, hi]; a side is
        empty when an end lies on z.  The level-l term of the derivative is 2 n_l s/(s^2 - 4^l).
        On (z, hi] level i contributes at least n_i/(s - z) >= n_i/(hi - z),
        the levels below contribute positive terms, and a level l above
        subtracts at most 2 n_l hi/(4^l - hi^2).  On [lo, z) level i
        contributes at most -2 n_i lo/(z^2 - lo^2), the levels above
        contribute negative terms, and a level l below adds at most
        2 n_l lo/(lo^2 - 4^l), since s/(s^2 - 4^l) decreases past 2^l.  Each
        side holds when the level-i bound exceeds twice the sum of the
        others; the factor 2 absorbs the rounding of the bounds, and of any
        order in which their terms are added.  The differences of squares
        are formed as products, which stay finite up to MAX_MODEL_LEVEL.
        """
        base, n = self._base[:, 0], self._n[:, 0]
        lo, hi = np.array([lo, hi], float).reshape(2, -1)
        i = np.searchsorted(base, lo)  # base[:i] < lo <= base[i:]
        one = np.searchsorted(base, hi, side="right") == i + 1
        lo, hi, i = lo[one], hi[one], i[one]
        z, ni = base[i], n[i]
        # (level l, interval k) pairs, level-major: bincount adds in level order
        l, k = np.nonzero(self._rows > i)
        pull_down = np.bincount(k, n[l] * (2.0 * hi[k]) / ((base[l] - hi[k]) * (base[l] + hi[k])),
                                minlength=len(i))
        l, k = np.nonzero(self._rows < i)
        pull_up = np.bincount(k, n[l] * (2.0 * lo[k]) / ((lo[k] - base[l]) * (lo[k] + base[l])),
                              minlength=len(i))
        # an empty side holds: its test divides by 1 and is overruled
        rises = (hi <= z) | (ni / np.where(hi > z, hi - z, 1.0) > 2.0 * pull_down)
        falls = (lo >= z) | (ni * (2.0 * lo) / np.where(lo < z, (z - lo) * (z + lo), 1.0)
                             > 2.0 * pull_up)
        one[one] = rises & falls
        return one

    # -- the dyadic weight ---------------------------------------------------
    def ln_w0_real(self, t: float) -> float:
        """ln of prod (1 + t^2/4^j)^(n_j/2) at real t (float64)."""
        t = float(t)
        total = 0.0
        for j, nj in enumerate(self.mult.n, start=1):
            if nj:
                total += 0.5 * nj * math.log1p(t * t / 4.0**j)
        return total

    def ln_w0_dyadic(self, m):
        """ln of the weight at 2^m, for one level m or an array of levels:
        one (levels x m) pass, summed from 0.0 in level order.  Every log1p
        argument 4^(m-j) is exact, where np.log1p agrees with math.log1p, so
        each value is ln_w0_real(2.0**m) bit for bit."""
        m = np.asarray(m)
        terms = np.zeros((len(self._levels) + 1, m.size))
        exps = 2 * (m.reshape(-1) - np.array(self._levels, int)[:, None])
        terms[1:] = self._half_n * np.log1p(np.ldexp(1.0, exps))
        out = np.add.accumulate(terms, axis=0)[-1]
        return out if m.ndim else float(out[0])


def minmod_sup(model: CounterexampleModel, t, radius, scan_density: int = 2048, *,
               at_least=None):
    """Lower bound for sup ln|f(s)| over real s in [t-radius, t+radius]: a
    float for one interval, a list of floats for arrays of t and radius.

    Each interval is clipped to (0, inf); an empty clipped interval is a
    domain error.  One log_abs_f_offsets call evaluates the ends of all
    intervals, each end with its own centre and its scan's window, so it
    gets the value its own scan would; one sup_at_ends call certifies them.
    A certified interval gets the larger end value; the others are searched
    one by one by zoom_max over a dense scan in offset coordinates.  Either
    way the result is a value evaluated, so a lower bound.  Where the caller
    asks only whether the supremum reaches at_least (one threshold, or one
    per interval), an end value that does is returned without a search.
    """
    one = np.ndim(t) == 0
    t, radius = np.atleast_1d(np.asarray(t, float)), np.atleast_1d(np.asarray(radius, float))
    if np.any(radius <= 0) or scan_density < 1:
        raise ValueError("radius and scan density must be positive")
    lo, hi = t - radius, t + radius
    if np.any(hi <= 0):
        raise ValueError("scan interval lies outside (0, inf)")
    lo = np.where(lo <= 0, hi * 1e-12, lo)
    # the first and last points of each scan, linspace(lo - t, hi - t, scan_density)
    a, b = lo - t, (hi if scan_density > 1 else lo) - t
    window = np.repeat(np.maximum(np.abs(a), np.abs(b)), 2)
    ends = model.log_abs_f_offsets(np.repeat(t, 2), np.stack([a, b], axis=1).reshape(-1), window)
    best = np.max(ends.reshape(-1, 2), axis=1)
    done = model.sup_at_ends(lo, hi) | (False if at_least is None else best >= at_least)
    for k in np.flatnonzero(~done):
        xs = np.linspace(a[k], b[k], scan_density)
        best[k] = zoom_max(lambda x: model.log_abs_f_offsets(t[k], x), xs)
    return float(best[0]) if one else best.tolist()


def domination_check(
    model: CounterexampleModel,
    w: WeightEvaluator,
    samples: int,
    rng_seed: int,
    radius: float = 1e4,
) -> CheckReport:
    """|f(z)| <= (dyadic weight at |z|)^2 and <= |w(|z|)|^2 at random z.

    The dyadic-weight bound is exact arithmetic-free mathematics (each
    factor |1-(z/2^j)^2| <= 1+(|z|/2^j)^2); the source-weight bound
    additionally uses that the dyadic zeros only coarsen the source zeros
    downward.  Slack: certified truncation error of the source evaluator
    plus 1e-9 relative float headroom.  A sample on a zero of f, where
    ln|f| = -inf, satisfies both bounds; it is counted as on_zero.  ln|f|
    takes all samples in one log_abs_f_offsets call, as offsets from 0.
    """
    rng = random.Random(rng_seed)
    zs = []
    for _ in range(samples):
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        zs.append(complex(r * math.cos(theta), r * math.sin(theta)))
    lhs_all = model.log_abs_f_offsets(0.0, np.array(zs, complex)).tolist()
    worst = math.inf
    violations = on_zero = 0
    for z, lhs in zip(zs, lhs_all):
        if lhs == NEG_INF:
            on_zero += 1
            continue
        rhs0 = 2.0 * model.ln_w0_real(abs(z))
        v, err = w.eval_log_abs_omega(abs(z))
        slack0 = 1e-9 * (1.0 + abs(rhs0))
        slack1 = 2.0 * err + 1e-9 * (1.0 + abs(v))
        m = min(rhs0 + slack0 - lhs, 2.0 * v + slack1 - lhs)
        worst = min(worst, m)
        if lhs > rhs0 + slack0 or lhs > 2.0 * v + slack1:
            violations += 1
    return CheckReport(
        name="domination",
        passed=violations == 0,
        worst_margin=worst,
        details={"samples": samples, "violations": violations, "on_zero": on_zero,
                 "radius": radius},
    )


def schwarz_bound_check(
    model: CounterexampleModel,
    j: int,
    delta: float,
    samples: int,
    rng_seed: int,
) -> CheckReport:
    """ln|f(z)| <= 2 ln w0(2^{j+1}) + n_j ln(delta) on |z - 2^j| <= 2^j delta.

    Samples the circle of radius 2^j delta uniformly in angle plus random
    interior points of the disk.  A sample that rounds onto a zero of f,
    where ln|f| = -inf, satisfies the bound; it is counted as on_zero.  ln|f|
    takes all samples in one log_abs_f_offsets call, as offsets z - 2^j.
    """
    if not (1 <= j <= model.mult.j_max):
        raise ValueError("j outside the model range")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    rng = random.Random(rng_seed)
    center = 2.0**j
    nj = model.mult.n[j - 1]
    rhs = 2.0 * model.ln_w0_dyadic(j + 1) + nj * math.log(delta)
    slack = 1e-9 * (1.0 + abs(rhs))
    zs = []
    for k in range(samples):
        if k % 2 == 0:
            theta = 2.0 * math.pi * k / samples
            rad = delta
        else:
            theta = 2.0 * math.pi * rng.random()
            rad = delta * math.sqrt(rng.random())
        zs.append(center * complex(1.0 + rad * math.cos(theta), rad * math.sin(theta)))
    lhs = model.log_abs_f_offsets(center, np.array(zs, complex) - center)
    on_zero = int(np.count_nonzero(lhs == NEG_INF))
    margins = rhs + slack - lhs[lhs != NEG_INF]
    worst = float(margins.min()) if len(margins) else math.inf
    violations = int(np.count_nonzero(margins < 0))
    return CheckReport(
        name="schwarz-bound",
        passed=violations == 0,
        worst_margin=worst,
        details={"j": j, "delta": delta, "samples": samples, "violations": violations,
                 "on_zero": on_zero},
    )


# ---------------------------------------------------------------------------
# beta functions with dyadic tail certificates

@dataclass
class BetaSpec:
    """An admissible radius function: increasing, positive, with a
    certified bound for sum_{j>J} beta(2^j)/2^j."""

    name: str
    fn: Callable[[float], float]
    dyadic_tail: Callable[[int], float]

    def __call__(self, t: float) -> float:
        return self.fn(t)


def beta_const(c: float) -> BetaSpec:
    return BetaSpec(
        name=f"const:{c:g}",
        fn=lambda t: c,
        dyadic_tail=lambda J: c * 2.0**-J,  # sum_{j>J} c/2^j
    )


def beta_loglinear(c: float) -> BetaSpec:
    # sum_{j>J} c max(1, j ln2)/2^j <= c ln2 (J+2)/2^J for J >= 2
    return BetaSpec(
        name=f"loglinear:{c:g}",
        fn=lambda t: c * max(1.0, math.log(t)),
        dyadic_tail=lambda J: c * LN2 * (J + 2.0) / 2.0**J + c * 2.0**-J,
    )


def beta_inv_log_sq() -> BetaSpec:
    """t/(ln t)^2 for t >= e^2, linear ramp t/4 below (keeps it increasing)."""
    e2 = math.e**2

    def fn(t: float) -> float:
        return t / 4.0 if t < e2 else t / math.log(t) ** 2

    def tail(J: int) -> float:
        # beta(2^j)/2^j = 1/(j ln2)^2 for 2^j >= e^2 (j >= 3);
        # sum_{j>J} <= 1/(ln2^2 J)
        jj = max(J, 3)
        head = sum(fn(2.0**j) / 2.0**j for j in range(J + 1, jj + 1))
        return head + 1.0 / (LN2**2 * jj)

    return BetaSpec(name="invlogsq", fn=fn, dyadic_tail=tail)


def beta_inv_log_loglog_sq() -> BetaSpec:
    """t/(ln t (lnln t)^2) past e^(2e), linear ramp below."""
    t0 = math.exp(2.0 * math.e)
    c0 = 1.0 / (2.0 * math.e * math.log(2.0 * math.e) ** 2)

    def fn(t: float) -> float:
        if t < t0:
            return c0 * t
        return t / (math.log(t) * math.log(math.log(t)) ** 2)

    def tail(J: int) -> float:
        # beta(2^j)/2^j = 1/((j ln2)(ln(j ln2))^2) for 2^j >= t0 (j >= 8);
        # integral comparison gives sum_{j>J} <= 1/(ln2 * ... ) = 1/ln(J ln2)
        jj = max(J, 8)
        head = sum(fn(2.0**j) / 2.0**j for j in range(J + 1, jj + 1))
        return head + 1.0 / math.log(jj * LN2)

    return BetaSpec(name="invloglog", fn=fn, dyadic_tail=tail)


def beta_weight_trace(c: float, c_prime: float, r: float = 2.0) -> BetaSpec:
    """c ln|w_geo(t)| + c', the trace of a geometric-family weight.

    ln|w_geo(2^j)| is at most a quadratic in j (GeometricFamily.
    log_weight_quadratic), so the dyadic tail is a poly/2^j closed form.
    """
    fam = GeometricFamily(r)

    @functools.cache
    def weight() -> WeightEvaluator:
        # built on first use: a radius looked up by name is often not this one
        return WeightEvaluator(ZeroSequence(family=fam, j_cut=4096), tol=1e-12)

    def fn(t: float) -> float:
        return c * weight().eval_log_abs_omega(t)[0] + c_prime

    def tail(J: int) -> float:
        from .tails import poly_geom_tail

        j0 = max(J + 1, 3)
        return c * poly_geom_tail(fam.log_weight_quadratic(j0), 2, 0, 0.5, j0) + c_prime * 2.0**-J

    return BetaSpec(
        name=f"trace:c={c:g},r={r:g}",
        fn=fn,
        dyadic_tail=tail,
    )


def beta_self_referential(seq: ZeroSequence) -> BetaSpec:
    """beta(t) = n(2t) of the source: the canonical self-comparison."""
    return BetaSpec(
        name="selfref",
        fn=lambda t: float(seq.count_leq(2.0 * t)),
        # sum_{j>J} n(2^(j+1))/2^j = 2 sum_{j>J+1} n(2^j)/2^j
        dyadic_tail=lambda J: 2.0 * seq.family.dyadic_nqa_tail("n", J + 1),
    )


def shipped_beta_family() -> List[BetaSpec]:
    """Default admissible family for the contradiction experiment.

    Chosen so a finite-stage witness exists by level 60 for sources whose
    minimum-modulus sums diverge: small constant and slowly growing radii
    make the left side large while barely moving the right side.  The
    classic shapes (invlogsq, invloglog, selfref) are available via
    classic_beta_family for the scan and for no-witness demonstrations:
    their left sides diverge triple-logarithmically, far too slowly to
    cross the Schwarz budget at any feasible truncation.
    """
    return [
        beta_const(1e-3),
        beta_const(1e-2),
        beta_loglinear(1e-3),
        beta_weight_trace(0.002, 0.002),
    ]


def classic_beta_family(seq: Optional[ZeroSequence] = None) -> List[BetaSpec]:
    out = [beta_inv_log_sq(), beta_inv_log_loglog_sq()]
    if seq is not None:
        out.append(beta_self_referential(seq))
    return out


def named_beta(name: str, seq: Optional[ZeroSequence] = None) -> BetaSpec:
    for spec in shipped_beta_family() + classic_beta_family(seq):
        if spec.name == name or spec.name.split(":")[0] == name:
            return spec
    raise ValueError(f"unknown beta {name!r}")


# ---------------------------------------------------------------------------
# the finite-stage contradiction experiment

@dataclass
class ContradictionRow:
    j: int
    n_j: int
    lhs_partial: float
    rhs_partial: float
    rhs_tail_bound: float
    minmod_sup: float
    schwarz_rhs: float
    margin: float


@dataclass
class ContradictionReport:
    beta_name: str
    j0: int
    j_max: int
    rows: List[ContradictionRow]
    witness_index: Optional[int]
    lhs_final: float
    rhs_upper: float
    witness_allowance: float
    schwarz_violations: int

    @property
    def passed_schwarz(self) -> bool:
        return self.schwarz_violations == 0

    def to_summary(self) -> dict:
        return {
            "beta": self.beta_name,
            "j0": self.j0,
            "j_max": self.j_max,
            "witness_index": self.witness_index,
            "lhs_final": self.lhs_final,
            "rhs_upper": self.rhs_upper,
            "witness_allowance": self.witness_allowance,
            "schwarz_violations": self.schwarz_violations,
        }


def _w0_rhs_tail(model: CounterexampleModel, J: int) -> float:
    """4 sum_{j>J} ln w0(2^{j+1})/2^{j+1} for the truncated model.

    ln w0(2^{j+1}) <= (1/2) Ntot (2j ln2 + 2), so the tail is at most
    Ntot (4 ln2 sum_{j>J} j/2^j + 4 sum_{j>J} 1/2^j).
    """
    from .tails import index_weighted_half_pow_tail

    ntot = model.mult.total
    s1 = index_weighted_half_pow_tail(J + 1, 1)
    s0 = index_weighted_half_pow_tail(J + 1, 0)
    return ntot * (4.0 * LN2 * s1 + 4.0 * s0)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u/(1 - k u), u = eps/2 the float64 unit roundoff."""
    ku = k * np.finfo(float).eps / 2.0
    return ku / (1.0 - ku)


def contradiction_experiment(
    model: CounterexampleModel,
    beta: BetaSpec,
    J: Optional[int] = None,
    scan_density: int = 1024,
) -> ContradictionReport:
    """Accumulate the minimum-modulus sums against the Schwarz budget.

    LHS_J = sum_{j=j0}^J (n_j/2^j) ln(2^j/beta(2^j)),
    RHS   = 4 sum_{j=j0}^J ln w0(2^{j+1})/2^{j+1} + sum beta(2^j)/2^j,
    both as float64 sums of nonnegative terms, the right side closed with
    certified tails.  The witness index is the first level where the left
    partial sum exceeds the fully tail-bounded right side by more than
    witness_allowance; absence of a witness at this truncation is
    reported, not an error.  Per level, the scan supremum of ln|f| within
    beta(2^j) of 2^j is checked against the Schwarz cap
    2 ln w0(2^{j+1}) + n_j ln(beta(2^j)/2^j).

    witness_allowance bounds the rounding of both sides a priori (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2): a
    float sum s of nonnegative terms, each carrying at most k relative
    roundings on its way into s plus an absolute error of at most
    gamma_1 c_i, lies within gamma_{2k+1} (s + sum c_i) of the exact sum.
    libm's log and log1p are taken to be within one ulp, two roundings.
    A left term takes float(n_j), the log and the product (4 roundings);
    the rounded quotient 2^j/beta moves its log by at most gamma_1, so
    c_j = n_j/2^j.  A right term n_i log1p(4^(j+1-i))/2^j takes 4 roundings,
    one per level with n_i > 0 in ln w0, and three closing additions (the
    beta sum and the two tails, which are taken as the upper bounds their
    certificates give).  Both sums add one rounding per level.
    """
    if J is None:
        J = model.mult.j_max
    J = min(J, model.mult.j_max)
    j0 = None
    for j in range(1, J + 1):
        b = beta(2.0**j)
        if b <= 0 or not math.isfinite(b):
            raise ValueError(f"beta must be positive and finite, got {b!r} at 2^{j}")
        if b <= 2.0**j:
            j0 = j
            break
    if j0 is None:
        raise ValueError("beta(2^j) > 2^j for every level: inadmissible radius")

    lhs = rhs_w = rhs_b = 0.0
    lhs_c = 0.0  # sum of c_j = n_j/2^j over the left terms
    partials = []
    w_all = model.ln_w0_dyadic(np.arange(j0 + 1, J + 2)).tolist()
    for j, w_next in zip(range(j0, J + 1), w_all):
        b = beta(2.0**j)
        nj = model.mult.n[j - 1]
        two_j = 2.0**j
        if b <= two_j:
            lhs += nj / two_j * math.log(two_j / b)
            lhs_c += nj / two_j
        rhs_w += 2.0 * w_next / two_j
        rhs_b += b / two_j
        partials.append((j, nj, b, w_next, lhs, rhs_w + rhs_b))
    tail_w = _w0_rhs_tail(model, J)
    tail_b = beta.dyadic_tail(J)
    rhs_upper = rhs_w + rhs_b + tail_w + tail_b
    k_lhs = len(partials) + 4
    k_rhs = len(partials) + len(model._levels) + 7
    allowance = _gamma(2 * k_lhs + 1) * (lhs + lhs_c) + _gamma(2 * k_rhs + 1) * rhs_upper

    rows: List[ContradictionRow] = []
    witness = None
    schwarz_violations = 0
    sups = minmod_sup(model, [2.0**p[0] for p in partials], [p[2] for p in partials],
                      scan_density)
    for (j, nj, bj, w_next, lhs_p, rhs_p), mm in zip(partials, sups):
        if witness is None and lhs_p > rhs_upper + allowance:
            witness = j
        srhs = 2.0 * w_next + nj * math.log(bj / 2.0**j)
        slack = 1e-9 * (1.0 + abs(srhs))
        margin = srhs + slack - mm
        if mm != NEG_INF and margin < 0:
            schwarz_violations += 1
        rows.append(
            ContradictionRow(
                j=j,
                n_j=nj,
                lhs_partial=lhs_p,
                rhs_partial=rhs_p,
                rhs_tail_bound=tail_w + tail_b,
                minmod_sup=mm,
                schwarz_rhs=srhs,
                margin=margin,
            )
        )
    return ContradictionReport(
        beta_name=beta.name,
        j0=j0,
        j_max=J,
        rows=rows,
        witness_index=witness,
        lhs_final=lhs,
        rhs_upper=rhs_upper,
        witness_allowance=allowance,
        schwarz_violations=schwarz_violations,
    )


# minmod_radius_scan's radii c ln|rho(t)| + c' and its scan density
SCAN_C_GRID = (0.5, 1.0, 2.0, 4.0)
SCAN_C_PRIME_GRID = (0.0, 1.0, 10.0)
SCAN_DENSITY = 1024


def minmod_radius_scan(model: CounterexampleModel, rho: WeightEvaluator, t_grid) -> dict:
    """Minimum-modulus probe with radius c ln|rho(t)| + c' for every c in
    SCAN_C_GRID and c' in SCAN_C_PRIME_GRID.

    For each t the scan supremum of ln|f| within the radius is compared
    with minus the radius; failures concentrate at the dyadic zeros as t
    grows when no admissible radius can work.
    """
    ts = [float(t) for t in t_grid]
    log_rho = [rho.eval_log_abs_omega(t)[0] for t in ts]
    pairs = [(c, cp) for c in SCAN_C_GRID for cp in SCAN_C_PRIME_GRID]
    # every (pair, point) whose radius is positive, searched in one batch
    todo = [(p, k, c * v + cp) for p, (c, cp) in enumerate(pairs)
            for k, v in enumerate(log_rho) if c * v + cp > 0]
    radii = np.array([r for _, _, r in todo])
    sups = minmod_sup(model, [ts[k] for _, k, _ in todo], radii, SCAN_DENSITY, at_least=-radii)
    passed = {(p, k) for (p, k, r), sup in zip(todo, sups) if sup >= -r}
    fails = [[t for k, t in enumerate(ts) if (p, k) not in passed] for p in range(len(pairs))]
    results = [{"c": c, "c_prime": cp, "failures": f, "n_checked": len(ts), "all_pass": not f}
               for (c, cp), f in zip(pairs, fails)]
    return {"grid": results, "any_failures": any(r["failures"] for r in results)}
