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

A dyadic profile is the float array a_1..a_J of an increasing function
at 2^1..2^J (profile_n, profile_big_n, profile_log_omega).  nqa_series and
msnq_series take such an array with the certificates that close it, a
family's dyadic_nqa_tail, dyadic_weighted_tail and dyadic_divergence, and
return a SeriesDiagnostic.  Partial-sum arrays accumulate nonnegative
terms only (clamped via the documented onset rules), so they are
nondecreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .sampling import SampledFunction
from .sequences import ZERO_CHUNK, DivergenceCertificate, TermPrefix, ZeroSequence, index_terms
from .weights import WeightEvaluator, big_N

VERDICT_CONV = "convergent-certified"
VERDICT_DIV = "divergent-trend"
VERDICT_INC = "inconclusive"


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
    elif div is not None:
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


def _profile_values(values, increasing: bool = False) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if np.any(a < 0):
        raise ValueError("profile values must be nonnegative")
    if increasing and np.any(np.diff(a) < 0):
        raise ValueError("msnq series needs nondecreasing profile values")
    return a


def nqa_series(values, tail: Optional[float] = None) -> SeriesDiagnostic:
    """Partial sums of sum_j a_j / 2^j over the profile values a_1..a_J,
    closed by `tail`, a certified bound for the sum past J (or None)."""
    a = _profile_values(values)
    partial = list(np.cumsum(a / 2.0 ** np.arange(1.0, len(a) + 1)))
    return _finish("nqa", partial, 1, tail, None)


def msnq_series(values, tail: Optional[float] = None,
                div: Optional[DivergenceCertificate] = None) -> SeriesDiagnostic:
    """Partial sums of sum_j (a_j/2^j) ln(2^j / a_{j+1}) over the profile
    values a_1..a_J of an increasing function, so j runs to J - 1.  `tail`
    bounds the sum past J - 1 and `div` certifies divergence; either may
    be None.

    Terms are accumulated from the first index where a_{j+1} <= 2^j (so
    the log is >= 0); later negative-log terms are skipped and counted.
    Zero a_j contributes zero (the 0 ln(1/0) = 0 convention).
    """
    a = _profile_values(values, increasing=True)
    if len(a) < 2:
        return _finish("msnq", [], 1, None, None)
    acc = 0.0
    partial = []
    onset = None
    skipped = 0
    for j in range(1, len(a)):
        a_j, a_next = float(a[j - 1]), float(a[j])
        if onset is None:
            if a_next <= 2.0**j:
                onset = j
            else:
                skipped += 1
                continue
        if a_j and a_next > 2.0**j:
            skipped += 1
        elif a_j:
            acc += (a_j / 2.0**j) * math.log(2.0**j / a_next)
        partial.append(acc)
    if onset is None:
        return _finish("msnq", [], 1, None, None, skipped)
    return _finish("msnq", partial, onset, tail, div, skipped)


# ---------------------------------------------------------------------------
# dyadic profiles: the values a_1..a_J at the levels 2^1..2^J

def profile_n(seq: ZeroSequence, j_max: int) -> np.ndarray:
    """a_j = n(2^j) for j = 1..j_max, exact counts, as floats."""
    return np.array(seq.count_leq(2.0 ** np.arange(1.0, j_max + 1)), dtype=float)


def profile_big_n(seq: ZeroSequence, j_max: int) -> np.ndarray:
    """a_j = N(2^j) = ln max(1, sup_k 2^jk/(t_1..t_k)) for j = 1..j_max."""
    return big_N(seq, 2.0 ** np.arange(1.0, j_max + 1))[0]


def profile_log_omega(seq: ZeroSequence, j_max: int, tol: float = 1e-9) -> np.ndarray:
    """a_j = truncated ln|w(2^j)| for j = 1..j_max: one-sided lower values.
    ValueError names --J and the last level reached when ln|w| overflows."""
    w = WeightEvaluator(seq, tol=tol)
    vals = []
    for j in range(1, j_max + 1):
        try:
            vals.append(w.eval_log_abs_omega(2.0**j)[0])
        except ValueError as exc:
            raise ValueError(f"--J {j_max} reaches past the ln|w| profile, which stops "
                             f"at level {j - 1}: {exc}") from exc
    return np.array(vals)


# ---------------------------------------------------------------------------
# index series (sums over the zero index j rather than dyadic levels)

def _index_series(seq: ZeroSequence, k_max: int) -> dict:
    """Partial sums of the index series of conditions i, v and vi, keyed by
    condition, from one pass over t_1..t_{k_max}.

    The terms are sequences.index_terms, made one condition's array at a
    time; decimated accumulation over ZERO_CHUNK-term pieces, in fixed
    order.  t_j comes from the TermPrefix as far as it holds finite zeros,
    and past that (past term_cap, or from the first inf on) from
    seq.terms, streamed and not kept.
    """
    fam = seq.family
    kept = TermPrefix.of(seq).finite(k_max)
    acc = {"i": 0.0, "v": 0.0, "vi": 0.0}
    partial = {cond: [] for cond in acc}
    record_at = _record_points(k_max)
    for start in range(1, k_max + 1, ZERO_CHUNK):
        stop = min(start + ZERO_CHUNK - 1, k_max)
        jj = np.arange(start, stop + 1, dtype=float)
        tj = kept[start - 1 : stop]
        if len(tj) < len(jj):
            tj = np.concatenate((tj, seq.terms(start + len(tj), stop)))
        rec = [k - start for k in record_at if start <= k <= stop]
        for cond in acc:
            csum = np.cumsum(index_terms(cond, tj, jj))
            partial[cond] += [acc[cond] + float(csum[i]) for i in rec]
            acc[cond] += float(csum[-1])
    return {cond: _finish(f"index-{cond}", partial[cond], 1, fam.index_series_tail(cond, k_max),
                          fam.index_series_divergence(cond))
            for cond in acc}


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
    if not 2 <= J <= 1023:
        raise ValueError(f"--J {J} is outside [2, 1023]: the msnq series needs the "
                         "levels 1..J with J >= 2, and 2^1024 overflows float64")
    if k_max is None:
        k_max = int(min(seq.j_cut, max(1000, seq.count_leq(2.0 ** min(J, 40)))))
    fam = seq.family
    diags = _index_series(seq, k_max)
    for cond, kind, profile in (("ii", "n", profile_n), ("iii", "N", profile_big_n),
                                ("iv", "lnw", profile_log_omega)):
        diags[cond] = msnq_series(profile(seq, J), fam.dyadic_weighted_tail(kind, J - 1),
                                  fam.dyadic_divergence(kind))
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
    index = _index_series(seq, k_max)
    diags = {"loglog_j": index["v"], "loglog_t": index["vi"], "logratio": index["i"]}
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
