"""Convergence diagnostics for the dyadic and index series of weight profiles.

Verdicts are three-valued and honest:

  convergent-certified  an analytic tail bound exists (closed-form family
                        knowledge or an inherited comparison bound);
  divergent-trend       partial sums crossed the trend threshold, or an
                        analytic divergence certificate (integral minorant)
                        backs the verdict -- trend thresholds alone cannot
                        see triple-logarithmic divergence at any feasible
                        truncation, so certificates are first-class;
  inconclusive          neither, or the series is known to converge but
                        its tail bound is infinite (the certificate field
                        says so): no trend overrules that knowledge.

Partial-sum arrays accumulate nonnegative terms only (clamped via the
documented onset rules), so they are nondecreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .sampling import SampledFunction
from .sequences import DivergenceCertificate, ZeroSequence
from .weights import WeightEvaluator, big_n_levels

VERDICT_CONV = "convergent-certified"
VERDICT_DIV = "divergent-trend"
VERDICT_INC = "inconclusive"


@dataclass
class SeriesCertificates:
    """Per-series analytic knowledge attached to a profile.

    Tail callables take the absolute last accumulated index J and return a
    certified upper bound for the series tail past J; divergence entries
    are analytic witnesses that the series diverges.
    """

    nqa_tail: Optional[Callable[[int], float]] = None
    msnq_tail: Optional[Callable[[int], float]] = None
    msnq_div: Optional[DivergenceCertificate] = None


@dataclass
class DyadicProfile:
    """Samples a_j = alpha(2^j) for j = j_min .. j_min+len-1."""

    j_min: int
    values: np.ndarray
    source: str = ""
    from_increasing: bool = False
    certs: SeriesCertificates = field(default_factory=SeriesCertificates)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.j_min < 1:
            raise ValueError("j_min must be >= 1")
        if np.any(self.values < 0):
            raise ValueError("profile values must be nonnegative")
        if self.from_increasing and np.any(np.diff(self.values) < 0):
            raise ValueError("profile flagged from-increasing but decreases")

    @property
    def j_max(self) -> int:
        return self.j_min + len(self.values) - 1

    def index_range(self):
        return range(self.j_min, self.j_max + 1)


@dataclass
class SeriesDiagnostic:
    condition: str
    partial_sums: np.ndarray
    tail_bound: Optional[float]
    verdict: str
    threshold_used: float
    onset_index: int
    certificate: Optional[str] = None
    skipped_terms: int = 0

    def to_dict(self) -> dict:
        """The JSON form, with the partial sums decimated to 64 points."""
        ps = list(map(float, self.partial_sums))
        if len(ps) > 64:
            idx = np.linspace(0, len(ps) - 1, 64).round().astype(int)
            ps = [ps[i] for i in idx]
        return {
            "condition": self.condition,
            "partial_sums": ps,
            "tail_bound": self.tail_bound,
            "verdict": self.verdict,
            "threshold_used": self.threshold_used,
            "onset_index": self.onset_index,
            "certificate": self.certificate,
        }


# divergent-trend when the last partial sum exceeds TREND_FACTOR times the
# halfway partial sum (and is positive).  Linearly growing partial sums have
# last/halfway ratio 2 exactly, so the factor sits just below that:
# constant-term divergence is detected, while slow (logarithmic and down)
# divergence stays inconclusive unless a certificate backs it.
TREND_FACTOR = 1.8


def _finish(
    condition: str,
    partial: list,
    onset: int,
    tail: Optional[float],
    div: Optional[DivergenceCertificate],
    skipped: int = 0,
) -> SeriesDiagnostic:
    arr = np.array(partial, dtype=float)
    thr = TREND_FACTOR * float(arr[len(arr) // 2]) if len(arr) >= 4 else math.inf
    if tail is not None and math.isfinite(tail):
        verdict = VERDICT_CONV
        cert = None
    elif tail is not None:
        # a tail certificate exists only where the series is known to
        # converge; a trend must not overrule that
        verdict = VERDICT_INC
        cert = "converges analytically, but no finite tail bound closes it at this truncation"
    elif div is not None and len(arr) and arr[-1] > 0.0:
        verdict = VERDICT_DIV
        thr = 0.0
        cert = div.reason
    elif len(arr) and math.isfinite(thr) and arr[-1] > thr > 0.0:
        verdict = VERDICT_DIV
        cert = None
    else:
        verdict = VERDICT_INC
        cert = None
    return SeriesDiagnostic(
        condition=condition,
        partial_sums=arr,
        tail_bound=tail if verdict == VERDICT_CONV else None,
        verdict=verdict,
        threshold_used=thr,
        onset_index=onset,
        certificate=cert,
        skipped_terms=skipped,
    )


def nqa_series(p: DyadicProfile, tail: Optional[float] = None) -> SeriesDiagnostic:
    """Partial sums of sum a_j / 2^j."""
    acc = 0.0
    partial = []
    for j, a in zip(p.index_range(), p.values):
        acc += a / 2.0**j
        partial.append(acc)
    if tail is None and p.certs.nqa_tail is not None:
        tail = p.certs.nqa_tail(p.j_max)
    return _finish("nqa", partial, p.j_min, tail, None)


def msnq_series(p: DyadicProfile, tail: Optional[float] = None) -> SeriesDiagnostic:
    """Partial sums of sum (a_j/2^j) ln(2^j / a_{j+1}).

    Terms are accumulated from the first index where a_{j+1} <= 2^j (so
    the log is >= 0); later negative-log terms are skipped and counted.
    Zero a_j contributes zero (the 0 ln(1/0) = 0 convention).
    """
    if not p.from_increasing:
        raise ValueError("msnq series needs a profile from an increasing function")
    if len(p.values) < 2:
        return _finish("msnq", [], p.j_min, None, None)
    acc = 0.0
    partial = []
    onset = None
    skipped = 0
    for i in range(len(p.values) - 1):
        j = p.j_min + i
        a_j, a_next = float(p.values[i]), float(p.values[i + 1])
        if onset is None:
            if a_next <= 2.0**j:
                onset = j
            else:
                skipped += 1
                continue
        if a_j == 0.0:
            partial.append(acc)
            continue
        if a_next > 2.0**j:
            skipped += 1
            partial.append(acc)
            continue
        acc += (a_j / 2.0**j) * math.log(2.0**j / a_next)
        partial.append(acc)
    if onset is None:
        return _finish("msnq", [], p.j_min, None, None, skipped)
    if tail is None and p.certs.msnq_tail is not None:
        tail = p.certs.msnq_tail(p.j_max - 1)
    return _finish("msnq", partial, onset, tail, p.certs.msnq_div, skipped)


# ---------------------------------------------------------------------------
# profile constructors with family certificates

def _family_certs(seq: ZeroSequence, profile: str) -> SeriesCertificates:
    fam = seq.family

    def nqa_tail(J: int) -> float:
        # sum_{j>J} P(2^j)/2^j <= 2 int_T^inf P(t)/t^2 dt at T = 2^(J+1);
        # for P = n the integral is n(T)/T + sum_{t_k > T} 1/t_k, and for
        # P = N or ln|w| (N <= ln|w|) the closed form of
        # int_T^inf ln(1+t^2/a^2)/t^2 dt gives
        # ln|w|-majorant(T)/T + n(T)/T + (pi/2) sum_{t_k>T} 1/t_k.
        T = 2.0 ** (J + 1)
        nT = fam.count_leq(T)
        if profile == "n":
            return 2.0 * (nT / T + fam.inv_tail(nT))
        g = fam._log_weight_majorant(J + 1, nT)
        return 2.0 * (g / T + nT / T + 0.5 * math.pi * fam.inv_tail(nT))

    # a family without a msnq certificate returns None at every J, which
    # msnq_series reads as no tail
    return SeriesCertificates(
        nqa_tail=nqa_tail,
        msnq_tail=lambda J: fam.dyadic_weighted_tail(profile, J),
        msnq_div=fam.dyadic_divergence(profile),
    )


def profile_n(seq: ZeroSequence, j_max: int) -> DyadicProfile:
    """a_j = n(2^j), exact counts."""
    return DyadicProfile(
        j_min=1,
        values=np.array(seq.count_leq(2.0 ** np.arange(1.0, j_max + 1)), dtype=float),
        source=f"n-profile({seq.spec_string()})",
        from_increasing=True,
        certs=_family_certs(seq, "n"),
    )


def profile_big_n(seq: ZeroSequence, j_max: int) -> DyadicProfile:
    """a_j = N(2^j) = ln max(1, sup_k 2^jk/(t_1..t_k))."""
    return DyadicProfile(
        j_min=1,
        values=big_n_levels(seq, 2.0 ** np.arange(1.0, j_max + 1))[0],
        source=f"N-profile({seq.spec_string()})",
        from_increasing=True,
        certs=_family_certs(seq, "N"),
    )


def profile_log_omega(seq: ZeroSequence, j_max: int, tol: float = 1e-9) -> DyadicProfile:
    """a_j = truncated ln|w(2^j)| (one-sided lower values)."""
    w = WeightEvaluator(seq, tol=tol)
    vals = [w.eval_log_abs_omega(2.0**j)[0] for j in range(1, j_max + 1)]
    return DyadicProfile(
        j_min=1,
        values=np.array(vals),
        source=f"lnw-profile({seq.spec_string()})",
        from_increasing=True,
        certs=_family_certs(seq, "lnw"),
    )


# ---------------------------------------------------------------------------
# index series (sums over the zero index j rather than dyadic levels)

def _index_series(seq: ZeroSequence, cond: str, k_max: int) -> SeriesDiagnostic:
    """Partial sums of the index series for condition i/v/vi.

    i : ln^+(t_j/j)/t_j,  v : ln^+ln(j)/t_j,  vi : ln^+ln(t_j)/t_j.
    Decimated accumulation (vectorized in chunks, fixed order).
    """
    fam = seq.family
    chunk = 1 << 16
    acc = 0.0
    partial = []
    record_at = _record_points(k_max)
    next_rec = 0
    for start in range(1, k_max + 1, chunk):
        stop = min(start + chunk - 1, k_max)
        tj = seq.terms(start, stop)
        finite = np.isfinite(tj)
        jj = np.arange(start, stop + 1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if cond == "i":
                terms = np.where(finite, np.maximum(0.0, np.log(tj / jj)) / tj, 0.0)
            elif cond == "v":
                lg = np.where(jj >= 3, np.log(np.log(np.maximum(jj, 3.0))), 0.0)
                terms = np.where(finite, np.maximum(0.0, lg) / tj, 0.0)
            elif cond == "vi":
                lt = np.where(tj > 1.0, np.log(tj), 1.0)
                terms = np.where(
                    finite & (tj > 1.0), np.maximum(0.0, np.log(lt)) / tj, 0.0
                )
            else:
                raise ValueError(f"unknown condition {cond!r}")
        csum = np.cumsum(terms)
        while next_rec < len(record_at) and record_at[next_rec] <= stop:
            partial.append(acc + float(csum[record_at[next_rec] - start]))
            next_rec += 1
        acc += float(csum[-1])
    tail = fam.index_series_tail(cond, k_max)
    div = fam.index_series_divergence(cond)
    return _finish(f"index-{cond}", partial, 1, tail, div)


def _record_points(k_max: int):
    pts = np.unique(np.linspace(1, k_max, min(128, k_max)).round().astype(int))
    return list(pts)


def msnq_omega_conditions(seq: ZeroSequence, J: int, k_max: Optional[int] = None):
    """Diagnostics for the six equivalent-for-omega0 characterizations.

    (i) sum ln^+(t_j/j)/t_j;  (ii)-(iv) the dyadic msnq series on the n, N
    and ln|w| profiles;  (v) sum ln^+ln(j)/t_j;  (vi) sum ln^+ln(t_j)/t_j.
    Conditions (i)-(iv) are equivalent for every admissible sequence and
    (v)-(vi) join them when t_j/j is nondecreasing, so the report flags
    verdict agreement accordingly.
    """
    if k_max is None:
        k_max = int(min(seq.j_cut, max(1000, seq.count_leq(2.0 ** min(J, 40)))))
    diags = {
        "i": _index_series(seq, "i", k_max),
        "ii": msnq_series(profile_n(seq, J)),
        "iii": msnq_series(profile_big_n(seq, J)),
        "iv": msnq_series(profile_log_omega(seq, J)),
        "v": _index_series(seq, "v", k_max),
        "vi": _index_series(seq, "vi", k_max),
    }
    v14 = {diags[c].verdict for c in ("i", "ii", "iii", "iv")}
    v_all = {d.verdict for d in diags.values()}
    report = {
        "spec": seq.spec_string(),
        "omega0_flag": seq.omega0_flag,
        "diagnostics": diags,
        "verdicts_agree_i_to_iv": len(v14) == 1,
        "verdicts_agree_all_six": len(v_all) == 1,
    }
    return report


def criteria2_report(seq: ZeroSequence, k_max: int) -> dict:
    """The three index conditions: lnln j, ln^+ln t_j and ln^+(t_j/j) sums.

    The first two are equivalent; both imply the third, and all three
    agree when t_j/j is nondecreasing (flagged via omega0).
    """
    if k_max < 3:
        raise ValueError("k_max must be >= 3")
    diags = {
        "loglog_j": _index_series(seq, "v", k_max),
        "loglog_t": _index_series(seq, "vi", k_max),
        "logratio": _index_series(seq, "i", k_max),
    }
    verdicts = {d.verdict for d in diags.values()}
    return {
        "spec": seq.spec_string(),
        "omega0_flag": seq.omega0_flag,
        "diagnostics": diags,
        "verdicts_agree": len(verdicts) == 1,
    }


# ---------------------------------------------------------------------------
# quadrature cross-check

def integral_cross_check(f: SampledFunction, kind: str, tail: Optional[float] = None) -> dict:
    """Trapezoid quadrature of the kind-integrand vs the dyadic sum.

    kinds: nqa (alpha/t^2), msnq ((alpha/t^2) ln(t/alpha), needs
    alpha(t) < t/e past a reported onset), loglog ((alpha/t^2) lnln t,
    grid from e).  The dyadic sum on the matched range must agree within
    a factor of 4 (the two-sided dyadic/integral comparisons give 1/2 and
    2); a larger discrepancy flags the grid.  A caller-supplied certified
    tail for the dyadic series upgrades the verdict to
    convergent-certified.
    """
    if kind not in ("nqa", "msnq", "loglog"):
        raise ValueError(f"unknown kind {kind!r}")
    t = f.grid
    a = f.values
    if np.any(a <= 0):
        raise ValueError("cross-check needs positive samples")
    onset_t = float(t[0])
    if kind == "nqa":
        integrand = a / t**2
    elif kind == "msnq":
        ok = a < t / math.e
        if not np.any(ok):
            raise ValueError("msnq cross-check needs alpha(t) < t/e somewhere")
        first = int(np.argmax(ok))
        t, a = t[first:], a[first:]
        onset_t = float(t[0])
        integrand = (a / t**2) * np.log(t / a)
    else:
        keep = t >= math.e
        t, a = t[keep], a[keep]
        if len(t) < 2:
            raise ValueError("loglog cross-check needs grid points >= e")
        onset_t = float(t[0])
        integrand = (a / t**2) * np.log(np.log(t))
    integral = float(np.trapezoid(integrand, t))

    j_lo = math.ceil(math.log2(onset_t)) if onset_t > 1 else 1
    j_hi = math.floor(math.log2(float(t[-1])))
    dyadic = 0.0
    for j in range(max(1, j_lo), j_hi + 1):
        aj = f.at(2.0**j)
        if kind == "nqa":
            dyadic += aj / 2.0**j
        elif kind == "msnq":
            a_next = f.at(min(2.0 ** (j + 1), float(t[-1])))
            if 0 < a_next <= 2.0**j:
                dyadic += (aj / 2.0**j) * math.log(2.0**j / a_next)
        else:
            if j >= 2:
                dyadic += (aj / 2.0**j) * math.log(j)
    ratio = integral / dyadic if dyadic > 0 else math.inf
    grid_ok = dyadic > 0 and 0.25 <= ratio <= 4.0
    if tail is not None and math.isfinite(tail):
        verdict = VERDICT_CONV
    else:
        verdict = VERDICT_INC
    return {
        "kind": kind,
        "integral": integral,
        "dyadic_sum": dyadic,
        "ratio": ratio,
        "grid_ok": grid_ok,
        "verdict": verdict,
        "tail_bound": tail,
        "onset_t": onset_t,
        "j_range": [max(1, j_lo), j_hi],
    }
