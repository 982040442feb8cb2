import functools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from weightlab import (
    CounterexampleModel,
    MultiplicityProfile,
    WeightEvaluator,
    ZeroSequence,
    ExplicitFamily,
    minmod_radius_scan,
    classic_beta_family,
    contradiction_experiment,
    domination_check,
    dyadic_multiplicities,
    minmod_sup,
    named_beta,
    parse_sequence_spec,
    schwarz_bound_check,
    shipped_beta_family,
)
from weightlab.counterexample import SCAN_C_GRID, SCAN_C_PRIME_GRID, SCAN_DENSITY, BetaSpec
from weightlab.sampling import ZOOM_POINTS, ZOOM_STAGES, log_grid, zoom_max

NEG_INF = float("-inf")


def single_factor_model():
    # one real zero pair at +-2, multiplicity 1
    return CounterexampleModel(MultiplicityProfile(1, [1], "explicit:[2]"))


def log_abs_f(model, z):
    """ln|f(z)| at one point: the offset z from the centre 0."""
    return float(model.log_abs_f_offsets(0.0, np.array([complex(z)]))[0])


class TestMultiplicities:
    def test_geometric_all_ones(self):
        seq = parse_sequence_spec("geometric:r=2")
        mult = dyadic_multiplicities(seq, 20)
        assert mult.n == [1] * 20

    def test_partial_sums_reproduce_counts(self):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        mult = dyadic_multiplicities(seq, 40)
        acc = 0
        for j, nj in enumerate(mult.n, start=1):
            acc += nj
            assert acc == seq.count_leq(2.0**j)

    def test_far_zeros_give_empty_profile(self):
        seq = ZeroSequence(ExplicitFamily([2.0**30]), j_cut=10)
        assert dyadic_multiplicities(seq, 10).n == [0] * 10

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_totals_match_random_explicit(self, values):
        values = sorted(values)
        seq = ZeroSequence(ExplicitFamily(values), j_cut=100)
        mult = dyadic_multiplicities(seq, 21)
        assert mult.total == seq.count_leq(2.0**21)


class TestEvalF:
    def test_closed_forms(self):
        m = single_factor_model()
        assert log_abs_f(m, 0.0) == 0.0
        assert log_abs_f(m, 2.0) == NEG_INF
        assert log_abs_f(m, -2.0) == NEG_INF
        assert log_abs_f(m, 1.0) == pytest.approx(math.log(0.75), abs=1e-15)

    @pytest.mark.parametrize("e", [1e-8, 1e-9, 1e-12])
    def test_next_to_a_real_zero(self, e):
        # 1 - 2 Re q + |q|^2 cancels here; w = z/2 is the float 1 + eps, and
        # ln|1 - w^2| = ln(eps (2 + eps)) with eps = w - 1 exact
        m = single_factor_model()
        for z in (2.0 * (1.0 + e), -2.0 * (1.0 + e)):
            eps = abs(z) / 2.0 - 1.0
            expect = math.log(eps * (2.0 + eps))
            assert log_abs_f(m, z) == pytest.approx(expect, rel=1e-12, abs=0.0)

    @given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_even(self, z):
        m = single_factor_model()
        assert log_abs_f(m, z) == log_abs_f(m, -z)
        m = _powlog_model(60)
        assert log_abs_f(m, z * 2.0**30) == log_abs_f(m, -z * 2.0**30)

    def test_imaginary_axis_saturates_weight_bound(self):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        m = CounterexampleModel(dyadic_multiplicities(seq, 30))
        for r in (0.7, 12.0, 900.0):
            lhs = log_abs_f(m, complex(0.0, r))
            rhs = 2.0 * m.ln_w0_real(r)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_offsets_match_direct_eval(self):
        # both forms, offsets from t and the point t + x, against mpmath
        seq = parse_sequence_spec("powlog:a=1,b=2")
        m = CounterexampleModel(dyadic_multiplicities(seq, 25))
        t = 2.0**7
        xs = np.array([-3.0, -0.5, 0.25, 2.0, 1.5j, -0.5 + 2j])
        for x, v in zip(xs, m.log_abs_f_offsets(t, xs)):
            exact = float(_mp_log_abs_f(m, t, x))
            assert v == pytest.approx(exact, rel=1e-13)
            assert log_abs_f(m, t + x) == pytest.approx(exact, rel=1e-13)

    def test_past_q_2_500_matches_mpmath(self):
        # at |z| = 2^280 the low levels have |q| = |z/2^j|^2 above 2^500,
        # where |q|^2 overflows float64
        from mpmath import mp, mpc, mpf

        model = CounterexampleModel(
            dyadic_multiplicities(parse_sequence_spec("powlog:a=1,b=2"), 300)
        )
        r = 2.0**280
        zs = [r * complex(math.cos(a), math.sin(a)) for a in (0.1, 1.0, math.pi / 2, 3.0)]
        with mp.workprec(600):
            for z in zs:
                got = log_abs_f(model, z)
                assert math.isfinite(got)
                zz = mpc(z.real, z.imag)
                terms = [ni * mp.log(abs(1 - (zz / mpf(2) ** j) ** 2))
                         for j, ni in enumerate(model.mult.n, start=1) if ni]
                assert abs(got - mp.fsum(terms)) <= 1e-12 * mp.fsum(map(abs, terms)), z


def _offsets_by_level(model, t, offsets):
    """ln|f(t + x)| for real or complex offsets x by a Python loop over the
    levels: the formula log_abs_f_offsets must reproduce bit for bit."""
    s = t + offsets
    size = np.abs(s)
    unit = s / np.maximum(size, np.finfo(float).tiny)
    cos2x2 = 2.0 * np.real(unit * unit)
    window = float(np.max(np.abs(offsets))) if len(offsets) else 0.0
    out = np.zeros(len(offsets))
    with np.errstate(divide="ignore"):
        for i, ni in enumerate(model.mult.n, start=1):
            if ni == 0:
                continue
            base = float(2**i)
            d = base - t
            if abs(d) <= 0.5 * base + window:
                left = np.log(np.abs(d - offsets) / base)
                right = np.log(np.abs(base + s) / base)
                out += ni * (left + right)
            elif base < (t + window) * 2.0**-250:
                r = base / size
                v = r * r
                out += ni * 0.5 * (np.log1p(v * v - v * cos2x2) - 4.0 * np.log(r))
            else:
                q = (size / base) ** 2
                out += ni * 0.5 * np.log1p(q * q - q * cos2x2)
    return out


def _mp_log_abs_f(model, t, x):
    """sum_i n_i ln|1 - (s/2^i)^2| at s = t + x exactly, with 320-bit mpmath."""
    from mpmath import mp, mpc, mpf

    with mp.workprec(320):
        s = mpf(t) + mpc(complex(x).real, complex(x).imag)
        return mp.fsum(ni * mp.log(abs(1 - (s / mpf(2) ** i) ** 2))
                       for i, ni in enumerate(model.mult.n, start=1) if ni)


@functools.lru_cache(maxsize=None)
def _powlog_model(j_max):
    return CounterexampleModel(dyadic_multiplicities(parse_sequence_spec("powlog:a=1,b=2"), j_max))


# a direction in the complex plane: the real axis both ways, the imaginary
# axis, or any angle
DIRECTION = st.one_of(
    st.sampled_from([1.0, -1.0, 1j, -1j]),
    st.floats(0.0, 2.0 * math.pi).map(lambda a: complex(math.cos(a), math.sin(a))),
)


class TestAgainstMpmath:
    """|got - exact| <= 1e-13 (1 + |exact|) against a 320-bit product.

    The near-level distances are scaled by 2^-i before their logs; logs of
    the unscaled distances minus i ln 4 reach 9e-13 on these examples."""

    @staticmethod
    def _check(model, t, xs, got):
        for x, g in zip(xs, got):
            exact = _mp_log_abs_f(model, t, x)
            if exact == -math.inf:  # z = t + x rounded onto the zero
                assert g == NEG_INF, (t, x, g)
                continue
            assert abs(g - exact) <= 1e-13 * (1 + abs(exact)), (t, x, g, float(exact))

    @given(j_max=st.sampled_from([30, 60, 300]), level=st.integers(0, 299),
           rel=st.floats(-16.0, -10.0).map(lambda e: 10.0**e), direction=DIRECTION)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_next_to_a_zero(self, j_max, level, rel, direction):
        # s = 2^j (1 + rel direction): offsets from t = 2^j carry it exactly,
        # and z = s rounded is nearly the same point at t = 0
        model = _powlog_model(j_max)
        t = 2.0 ** (1 + level % j_max)
        xs = np.array([t * rel * direction, -t * rel * direction])
        self._check(model, t, xs, model.log_abs_f_offsets(t, xs))
        zs = t + xs
        self._check(model, 0.0, zs, [log_abs_f(model, z) for z in zs])

    @given(j_max=st.sampled_from([30, 60, 300]), log2_size=st.floats(-4.0, 280.0),
           direction=DIRECTION, n=st.integers(1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_anywhere(self, j_max, log2_size, direction, n):
        # |z| up to 2^280, where the low levels take the |q| > 2^500 form
        model = _powlog_model(j_max)
        zs = [2.0**log2_size * direction * (1.0 + 0.3 * k) for k in range(n)]
        self._check(model, 0.0, zs, [log_abs_f(model, z) for z in zs])
        # the same points as complex offsets from a real t
        t = 2.0 ** math.floor(log2_size)
        xs = np.array(zs) - t
        self._check(model, t, xs, model.log_abs_f_offsets(t, xs))


class TestOffsetsMatchLevelLoop:
    # integer t up to 2^62, past 2^62, and non-integer t
    TS = (2.0**40, 3.0, 2.0**62, 2.0**63, 2.0**70, 2.0**40 + 0.5, 1234.567)

    @pytest.mark.parametrize("npts", [1024, 1000, 1, 0])
    def test_bit_identical(self, model60, npts):
        rng = np.random.default_rng(npts)
        for t in self.TS:
            for radius in (1e-3, 0.25 * t):
                xs = np.sort(rng.uniform(-radius, radius, npts))
                if npts:
                    xs[npts // 2] = 0.0  # the zero itself when t = 2^j: -inf
                for offsets in (xs, xs + 1j * rng.uniform(-radius, radius, npts)):
                    got = model60.log_abs_f_offsets(t, offsets)
                    want = _offsets_by_level(model60, t, offsets)
                    assert got.shape == want.shape
                    assert (got == want).all(), (t, radius, npts)

    @pytest.mark.parametrize("t", [0.0, 2.0**30, 2.0**280])
    def test_bit_identical_past_q_2_500(self, t):
        # the 300-level model: at |s| = 2^280 the low levels take the
        # |q| > 2^500 form unless they are near rows
        model = _powlog_model(300)
        rng = np.random.default_rng(7)
        for radius in (1e-3, 2.0**270, 2.0**281):
            xs = rng.uniform(-radius, radius, 70) + 1j * rng.uniform(-radius, radius, 70)
            for offsets in (xs.real, xs, 1j * xs.imag):
                got = model.log_abs_f_offsets(t, offsets)
                assert (got == _offsets_by_level(model, t, offsets)).all(), (t, radius)

    def test_blocks_bound_the_temporaries(self, model60):
        import tracemalloc

        xs = np.linspace(-1e-3, 1e-3, 1024)
        model60.log_abs_f_offsets(2.0**40, xs)
        tracemalloc.start()
        try:
            model60.log_abs_f_offsets(2.0**40, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (levels x 1024) float64 array alone would take 480 KiB
        assert peak < 256 * 1024

    def test_past_level_256_matches_mpmath(self):
        # at t = 2^280 the low levels have q = (s/2^i)^2 above 2^500, where
        # q^2 overflows float64
        from mpmath import mp, mpf

        model = CounterexampleModel(
            dyadic_multiplicities(parse_sequence_spec("powlog:a=1,b=2"), 300)
        )
        t = 2.0**280
        xs = np.array([-0.25 * t, -1e-3, 1e-3, 2.0**200, 0.25 * t])
        got = model.log_abs_f_offsets(t, xs)
        assert np.isfinite(got).all()
        with mp.workprec(600):
            for x, g in zip(xs, got):
                s = mpf(t) + mpf(x)
                terms = [ni * mp.log(abs(1 - (s / mpf(2) ** i) ** 2))
                         for i, ni in enumerate(model.mult.n, start=1) if ni]
                assert abs(g - mp.fsum(terms)) <= 1e-12 * mp.fsum(map(abs, terms)), x


class TestZoomMax:
    def test_smooth_interior_maximum(self):
        got = zoom_max(lambda x: -((x - 0.3137) ** 2), np.linspace(-1.0, 1.0, 17))
        # the last stage's spacing is 2^-32 of the scan spacing 2^-3
        assert -(2.0**-35) ** 2 <= got <= 0.0

    @pytest.mark.parametrize("peak", [-1.0, 1.0])
    def test_endpoint_maximum(self, peak):
        grids = []

        def f(x):
            grids.append(x)
            return -np.abs(x - peak)

        assert zoom_max(f, np.linspace(-1.0, 1.0, 17)) == 0.0
        # the zoom stays inside the scanned interval
        assert all(g.min() >= -1.0 and g.max() <= 1.0 for g in grids)

    def test_all_minus_inf(self):
        assert zoom_max(lambda x: np.full(len(x), NEG_INF), np.linspace(0.0, 1.0, 9)) == NEG_INF

    def test_rows_equal_one_dimensional_searches(self):
        # peaks inside, at an end and between grid points, and a grid that
        # has collapsed to one float, which moves numpy's linspace to its
        # zero-step formula for every row: each row, and each 1-D search,
        # must match the scalar loop
        peaks = np.array([0.3137, -1.0, 1e-3 / 3, 0.7])
        rows = np.stack([np.linspace(-1.0, 1.0, 19)] * 3 + [np.full(19, 0.7)])

        def bump(x, peak):
            return -np.abs(np.sin(7 * x) * (x - peak))

        got = zoom_max(lambda x: bump(x, peaks[:, None]), rows)
        assert got.shape == (4,)
        for row, peak, g in zip(rows, peaks, got):
            want = _scalar_zoom_max(lambda x: bump(x, peak), row)
            assert g == want == zoom_max(lambda x: bump(x, peak), row), peak


def _scalar_zoom_max(f, xs):
    """zoom_max as a loop of scalar steps over one grid: the reference its
    1-D and row searches must equal bit for bit."""
    grid = np.asarray(xs, dtype=float)
    vals = f(grid)
    best = float(np.max(vals))
    for _ in range(ZOOM_STAGES):
        k = int(np.argmax(vals))
        grid = np.linspace(grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)], ZOOM_POINTS)
        vals = f(grid)
        best = max(best, float(np.max(vals)))
    return best


def _golden_minmod(model, t, radius, scan_density, iters=48):
    """minmod_sup as a dense scan plus golden-section refinement, the
    search zoom_max replaced: the reference its values must not fall below."""
    lo, hi = t - radius, t + radius
    lo = max(lo, hi * 1e-12 if lo <= 0 else lo)
    xs = np.linspace(lo - t, hi - t, scan_density)
    vals = model.log_abs_f_offsets(t, xs)
    k = int(np.argmax(vals))
    a, b = xs[max(0, k - 1)], xs[min(len(xs) - 1, k + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def g(x):
        return float(model.log_abs_f_offsets(t, np.array([x]))[0])

    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = g(c), g(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = g(d)
    return max(float(vals[k]), fc, fd)


class TestMinmodSup:
    @pytest.mark.parametrize("name", ["selfref", "const:0.01"])
    def test_not_below_golden_section(self, model60, name):
        beta = named_beta(name, parse_sequence_spec("powlog:a=1,b=2"))
        rep = contradiction_experiment(model60, beta)
        for row in rep.rows:
            t = 2.0**row.j
            ref = _golden_minmod(model60, t, beta(t), 1024)
            assert row.minmod_sup >= ref - 1e-15 * (1.0 + abs(ref)), row.j

    def test_one_offsets_call_per_stage(self):
        model = CounterexampleModel(
            dyadic_multiplicities(parse_sequence_spec("powlog:a=1,b=2"), 30)
        )
        sizes = []
        offsets = model.log_abs_f_offsets

        def counting(t, xs, *window):
            sizes.append(len(xs))
            return offsets(t, xs, *window)

        model.log_abs_f_offsets = counting
        # one zero, 2^20, inside: the certificate settles it from the ends
        minmod_sup(model, 2.0**20, 0.5, scan_density=512)
        assert sizes == [2]
        # N certified intervals, one zero each: one call evaluates all 2N ends
        sizes.clear()
        ts = 2.0 ** np.arange(5, 25)
        got = minmod_sup(model, ts, 0.01 * ts, scan_density=512)
        assert sizes == [2 * len(ts)]
        assert got == [minmod_sup(model, t, 0.01 * t, scan_density=512) for t in ts]
        # two zeros, 2^19 and 2^20, inside: the ends, the scan, the zoom
        sizes.clear()
        minmod_sup(model, 3.0 * 2.0**18, 2.0**18 + 1.0, scan_density=512)
        assert sizes == [2, 512] + [ZOOM_POINTS] * ZOOM_STAGES
        # the same interval, when an end value is all the caller asks for
        sizes.clear()
        minmod_sup(model, 3.0 * 2.0**18, 2.0**18 + 1.0, scan_density=512, at_least=-math.inf)
        assert sizes == [2]

    def test_certified_levels_match_the_zoom_search(self, model60):
        # the four shipped radii at every level of the j_max 60 model: the
        # result is the full scan-and-zoom search's, bit for bit
        for beta in shipped_beta_family():
            for j in range(1, 61):
                t, r = 2.0**j, beta(2.0**j)
                if r > t:
                    continue
                lo, hi = t - r, t + r
                xs = np.linspace(lo - t, hi - t, 1024)
                ref = zoom_max(lambda x: model60.log_abs_f_offsets(t, x), xs)
                assert minmod_sup(model60, t, r, scan_density=1024) == ref, (beta.name, j)
                assert model60.sup_at_ends(lo, hi), (beta.name, j)

    @pytest.mark.parametrize("mult, lo, hi", [
        # the zero 2 below lifts [lo, 4): far from and just past the bound
        ([10, 1], 2.2, 4.0 * (1.0 + 1e-9)),
        ([1, 1], 3.0, 4.0 * (1.0 + 1e-9)),
        # the zero 4 above bends (2, hi]
        ([1, 10], 2.0 * (1.0 - 1e-9), 3.8),
        ([1, 1], 2.0 * (1.0 - 1e-9), 3.5),
    ])
    def test_interior_maximum_is_not_certified(self, mult, lo, hi):
        model = CounterexampleModel(MultiplicityProfile(len(mult), mult, "two zeros"))
        t, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assert not model.sup_at_ends(t - r, t + r)
        ends = max(model.log_abs_f_offsets(t, np.array([-r, r])))
        dense = max(_offsets_by_level(model, 0.0, np.linspace(t - r, t + r, 2001)))
        assert dense > ends + 0.01
        got = minmod_sup(model, t, r, scan_density=256)
        assert got >= dense - 1e-12
        # a threshold above both ends still gets the search
        assert minmod_sup(model, t, r, scan_density=256, at_least=ends + 0.005) == got

    def test_end_on_the_zero(self):
        m = single_factor_model()
        assert m.sup_at_ends(2.0, 3.0) and m.sup_at_ends(1.0, 2.0) and m.sup_at_ends(2.0, 2.0)
        assert not m.sup_at_ends(0.5, 1.5)  # no zero inside
        assert minmod_sup(m, 2.5, 0.5) == pytest.approx(math.log(1.25), abs=1e-15)
        # a radius below the float spacing of 2 collapses the interval onto the zero
        assert minmod_sup(m, 2.0, 1e-17) == NEG_INF

    # a share of the way to the next zero, drawn uniformly or log-uniformly,
    # so that one end can sit far out while the other hugs the zero
    SHARE = st.one_of(st.floats(1e-12, 0.999), st.floats(0.05, 12.0).map(lambda d: 10.0**-d))

    @given(
        mult=st.lists(st.integers(0, 1000), min_size=2, max_size=30),
        level=st.integers(0, 29),
        below=SHARE,
        above=SHARE,
    )
    @settings(max_examples=60, deadline=None)
    def test_certified_sup_not_below_a_dense_scan(self, mult, level, below, above):
        # an interval from z (1 - below/2) to z (1 + above) around the zero
        # z = 2^(level+1); its neighbours z/2 and 2z lie outside
        level = min(level, len(mult) - 1)
        mult[level] = max(mult[level], 1)
        model = CounterexampleModel(MultiplicityProfile(len(mult), mult, "random"))
        z = 2.0 ** (level + 1)
        t = z * (1.0 + 0.5 * (above - 0.5 * below))
        r = z * 0.5 * (above + 0.5 * below)
        assume(model.sup_at_ends(t - r, t + r))
        got = minmod_sup(model, t, r, scan_density=64)
        ref = max(_offsets_by_level(model, 0.0, np.linspace(t - r, t + r, 1001)))
        scale = sum(mult) * (1.0 + math.log(1.0 + t + r))
        assert got >= ref - 1e-12 * scale, (got, ref)

    def test_single_factor_oracle(self):
        # sup over [1,3] of ln|1-s^2/4| is ln(5/4) at s=3
        m = single_factor_model()
        val = minmod_sup(m, 2.0, 1.0, scan_density=1001)
        assert val == pytest.approx(math.log(1.25), abs=1e-12)

    def test_shrinking_radius_at_zero_trends_down(self):
        m = single_factor_model()
        vals = [minmod_sup(m, 2.0, r, scan_density=501) for r in (0.5, 0.05, 0.005)]
        assert vals[0] > vals[1] > vals[2]

    def test_symmetric(self):
        m = single_factor_model()
        a = minmod_sup(m, 1.3, 0.2, scan_density=801)
        b = m.log_abs_f_offsets(1.3, np.array([0.0]))[0]
        assert a >= b

    def test_one_interval_gives_a_float_and_arrays_a_list(self):
        m = single_factor_model()
        one = minmod_sup(m, 2.5, 0.5)
        many = minmod_sup(m, [2.5, 2.0], np.array([0.5, 1e-17]))
        assert type(one) is float
        assert type(many) is list and [type(v) for v in many] == [float, float]
        assert many == [one, NEG_INF]

    def test_domain_error(self):
        m = single_factor_model()
        with pytest.raises(ValueError):
            minmod_sup(m, -5.0, 1.0)
        with pytest.raises(ValueError):
            minmod_sup(m, 2.0, 0.0)
        with pytest.raises(ValueError):
            minmod_sup(m, 2.0, 0.5, scan_density=0)


# a multiplicity profile with empty levels: j_max <= 80
PROFILE = st.integers(1, 80).flatmap(
    lambda j: st.lists(st.one_of(st.just(0), st.integers(1, 10**6)), min_size=j, max_size=j)
)


@st.composite
def intervals(draw, j_max):
    """(t, radius) at a zero 2^j or between zeros: radii that clip at 0,
    radii below the float spacing of 2^j, narrow ones and wide ones over
    several zeros."""
    j = draw(st.integers(1, j_max))
    t = 2.0**j * draw(st.one_of(st.just(1.0), st.floats(0.5, 2.0)))
    kind = draw(st.sampled_from(["clip", "tiny", "narrow", "wide"]))
    if kind == "clip":
        return t, t * draw(st.floats(1.0, 4.0))
    if kind == "tiny":
        return t, t * 2.0**-60 * draw(st.floats(0.01, 1.0))
    if kind == "narrow":
        return t, t * 10.0 ** -draw(st.floats(1.0, 12.0))
    return t, t * draw(st.floats(0.5, 0.99))


class TestBatchInvariance:
    """A batch gives each interval, and each point, the value it gets alone."""

    @given(data=st.data(), mult=PROFILE, at_least=st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_array_calls_equal_one_interval_calls(self, data, mult, at_least):
        model = CounterexampleModel(MultiplicityProfile(len(mult), mult, "random"))
        pairs = data.draw(st.lists(intervals(len(mult)), min_size=1, max_size=12))
        ts, rs = (np.array(v) for v in zip(*pairs))
        bars = -rs if at_least else None
        got = minmod_sup(model, ts, rs, 64, at_least=bars)
        for k, (t, r) in enumerate(pairs):
            want = minmod_sup(model, t, r, 64, at_least=None if bars is None else bars[k])
            assert got[k] == want, (t, r, got[k], want)

    @given(data=st.data(), mult=PROFILE)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_per_point_centres_equal_one_centre_calls(self, data, mult):
        model = CounterexampleModel(MultiplicityProfile(len(mult), mult, "random"))
        pairs = data.draw(st.lists(intervals(len(mult)), min_size=1, max_size=90))
        ts = np.array([t for t, _ in pairs])
        windows = np.array([r for _, r in pairs])
        share = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(pairs),
                                            max_size=len(pairs))))
        for xs in (windows * share, windows * share * (0.6 + 0.8j)):
            got = model.log_abs_f_offsets(ts, xs, windows)
            for k in range(len(pairs)):
                # the window of a one-centre call is the largest |offset| it gets
                alone = model.log_abs_f_offsets(ts[k], np.array([xs[k], windows[k]]))[0]
                assert got[k] == alone, (ts[k], xs[k], windows[k])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_per_point_centres_past_q_2_500(self):
        # one batch mixes columns whose low levels take the 1/q form
        # (|s| > 2^251 times their zero) with columns that take none; the
        # other forms must not be formed on those rows, where q^2 overflows
        model = _powlog_model(300)
        rng = np.random.default_rng(3)
        ts = np.repeat([0.0, 3.0, 2.0**30, 2.0**252, 2.0**280, 1.3 * 2.0**299], 30)
        windows = ts * rng.choice([1e-3, 0.3, 1.0], len(ts)) + rng.uniform(0.0, 4.0, len(ts))
        xs = windows * rng.uniform(-1.0, 1.0, len(ts))
        got = model.log_abs_f_offsets(ts, xs, windows)
        # the same points in another order, so other columns share their blocks
        perm = rng.permutation(len(ts))
        again = np.empty(len(ts))
        again[perm] = model.log_abs_f_offsets(ts[perm], xs[perm], windows[perm])
        for k in range(len(ts)):
            alone = model.log_abs_f_offsets(ts[k], np.array([xs[k], windows[k]]))[0]
            assert got[k] == alone == again[k], (ts[k], xs[k])

    @given(mult=PROFILE)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_schwarz_caps_equal_the_level_loop(self, mult):
        model = CounterexampleModel(MultiplicityProfile(len(mult), mult, "random"))
        ms = np.arange(1, len(mult) + 2)
        assert model.ln_w0_dyadic(ms).tolist() == [model.ln_w0_real(2.0**m) for m in ms]
        assert model.ln_w0_dyadic(len(mult)) == model.ln_w0_real(2.0 ** len(mult))


def _sup_at_ends_one(model, lo, hi):
    """The end certificate for one interval, each sum added by np.sum."""
    base, n = model._base[:, 0], model._n[:, 0]
    i = int(np.searchsorted(base, lo))
    if int(np.searchsorted(base, hi, side="right")) != i + 1:
        return False
    z, ni = base[i], n[i]
    above, below = base[i + 1 :], base[:i]
    rises = falls = True
    if hi > z:
        pull_down = np.sum(n[i + 1 :] * (2.0 * hi) / ((above - hi) * (above + hi)))
        rises = ni / (hi - z) > 2.0 * pull_down
    if lo < z:
        pull_up = np.sum(n[:i] * (2.0 * lo) / ((lo - below) * (lo + below)))
        falls = ni * (2.0 * lo) / ((z - lo) * (z + lo)) > 2.0 * pull_up
    return bool(rises and falls)


class TestEndCertificate:
    @given(
        mult=st.lists(st.integers(0, 1000), min_size=2, max_size=20),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_certified_ends_hold_against_mpmath(self, mult, data):
        # intervals around a zero z = 2^(level+1), one end far out or both
        # hugging z; wherever the batch certifies, a 400-point scan at 50
        # digits finds nothing above the larger end value
        from mpmath import mp, mpf

        mult[-1] = max(mult[-1], 1)
        model = CounterexampleModel(MultiplicityProfile(len(mult), mult, "random"))
        share = st.one_of(st.floats(1e-9, 0.999), st.floats(0.05, 9.0).map(lambda d: 10.0**-d))
        ends = []
        for _ in range(data.draw(st.integers(1, 6))):
            z = 2.0 ** data.draw(st.integers(1, len(mult)))
            ends.append((z * (1.0 - 0.5 * data.draw(share)), z * (1.0 + data.draw(share))))
        lo, hi = (np.array(v) for v in zip(*ends))
        certified = model.sup_at_ends(lo, hi)
        assert certified.tolist() == [_sup_at_ends_one(model, a, b) for a, b in ends]
        with mp.workdps(50):
            for (a, b), ok in zip(ends, certified):
                if not ok:
                    continue
                vals = [mp.fsum(ni * mp.log(abs(1 - (s / mpf(2) ** i) ** 2))
                                for i, ni in enumerate(mult, start=1) if ni)
                        for s in mp.linspace(mpf(a), mpf(b), 400)]
                top = max(vals[0], vals[-1])
                assert max(vals) <= top + mpf(1e-12) * max(1, abs(top)), (a, b)

    def test_no_flip_on_golden_and_benchmark_inputs(self):
        # every interval the golden and README commands and the benchmark's
        # counterexample runs certify: the batched certificate, whose sums add
        # in level order, decides each as np.sum's pairwise order does
        import random

        seq = parse_sequence_spec("powlog:a=1,b=2")
        rho = WeightEvaluator(parse_sequence_spec("geometric:r=2"), tol=1e-6)
        checked = 0
        runs = [(30, "contradict", ["const:0.001"]), (60, "contradict",
                [b.name for b in shipped_beta_family()]), (20, "scan", [(2.0, 256.0, 6)]),
                (40, "scan", [(2.0, 65536.0, 32)]),
                (60, "scan", [(round(2.0 + 2.0 * random.Random(f"counterexample:{s}").random(), 6),
                               65536.0, 16) for s in range(1, 21)])]
        for j_max, kind, args in runs:
            model = CounterexampleModel(dyadic_multiplicities(seq, j_max))
            seen = []

            def recording(lo, hi, model=model, seen=seen):
                seen.append((lo, hi))
                return CounterexampleModel.sup_at_ends(model, lo, hi)

            model.sup_at_ends = recording
            for a in args:
                if kind == "contradict":
                    contradiction_experiment(model, named_beta(a, seq), scan_density=128)
                else:
                    minmod_radius_scan(model, rho, log_grid(*a))
            for lo, hi in seen:
                got = CounterexampleModel.sup_at_ends(model, lo, hi).tolist()
                assert got == [_sup_at_ends_one(model, a, b) for a, b in zip(lo, hi)]
                checked += len(lo)
        assert checked > 2000


class TestDomination:
    def test_powlog_no_violations(self):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        model = CounterexampleModel(dyadic_multiplicities(seq, 40))
        w = WeightEvaluator(ZeroSequence(seq.family, j_cut=60_000), tol=1e-6)
        rep = domination_check(model, w, samples=300, rng_seed=11, radius=1e4)
        assert rep.passed, rep.details

    @pytest.mark.parametrize("rho", ["geometric:r=8", "geometric:r=1.5"])
    def test_margin_agrees_with_the_violation_test(self, rho):
        # a source weight far below f, so its side binds: the worst margin is
        # the least of rhs0 + slack0 - lhs and 2 v + slack1 - lhs, slack1
        # holding 2 err once, and it is negative exactly at the violations
        seq = parse_sequence_spec("powlog:a=1,b=2")
        model = CounterexampleModel(dyadic_multiplicities(seq, 25))
        w = WeightEvaluator(parse_sequence_spec(rho), tol=1e-6)
        rep = domination_check(model, w, samples=100, rng_seed=1, radius=100.0)
        rng = random.Random(1)
        zs = []
        for _ in range(100):
            r = 100.0 * math.sqrt(rng.random())
            theta = 2.0 * math.pi * rng.random()
            zs.append(complex(r * math.cos(theta), r * math.sin(theta)))
        margins = []
        for z, lhs in zip(zs, model.log_abs_f_offsets(0.0, np.array(zs)).tolist()):
            rhs0 = 2.0 * model.ln_w0_real(abs(z))
            v, err = w.eval_log_abs_omega(abs(z))
            slack1 = 2.0 * err + 1e-9 * (1.0 + abs(v))
            margins.append(min(rhs0 + 1e-9 * (1.0 + abs(rhs0)) - lhs, 2.0 * v + slack1 - lhs))
        assert rep.worst_margin == min(margins)
        assert rep.details["violations"] == sum(m < 0 for m in margins) > 0

    def test_real_zero_trivially_dominated(self):
        m = single_factor_model()
        assert log_abs_f(m, 2.0) == NEG_INF  # any bound dominates -inf

    def test_counts_samples_on_a_zero(self):
        m = single_factor_model()
        w = WeightEvaluator(parse_sequence_spec("geometric:r=2"))
        rep = domination_check(m, w, samples=20, rng_seed=1, radius=4.0)
        assert rep.details["on_zero"] == 0
        m.log_abs_f_offsets = lambda t, xs: np.full(len(xs), NEG_INF)
        rep = domination_check(m, w, samples=20, rng_seed=1, radius=4.0)
        assert rep.details["on_zero"] == 20 and rep.details["violations"] == 0


class TestSchwarz:
    def test_single_factor_closed_form(self):
        # max over |z-2|=1 is ln(5/4) at z=3; bound is ln 5 - ln 2
        m = single_factor_model()
        rep = schwarz_bound_check(m, 1, 0.5, samples=800, rng_seed=3)
        assert rep.passed
        lhs_max = math.log(1.25)
        rhs = 2.0 * float(m.ln_w0_dyadic(2)) + 1 * math.log(0.5)
        assert rhs == pytest.approx(math.log(2.5), abs=1e-12)
        # the sampled worst margin approaches rhs - lhs_max = ln 2
        assert rep.worst_margin == pytest.approx(math.log(2.0), abs=1e-3)

    def test_delta_one_reduces_to_domination_circle(self):
        m = single_factor_model()
        rep = schwarz_bound_check(m, 1, 1.0, samples=200, rng_seed=5)
        assert rep.passed

    @pytest.mark.parametrize("j", [5, 10, 15])
    @pytest.mark.parametrize("delta", [0.5, 0.1])
    def test_powlog_grid(self, j, delta):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        model = CounterexampleModel(dyadic_multiplicities(seq, 40))
        rep = schwarz_bound_check(model, j, delta, samples=200, rng_seed=3)
        assert rep.passed, rep.details

    def test_rejects_bad_arguments(self):
        m = single_factor_model()
        with pytest.raises(ValueError):
            schwarz_bound_check(m, 0, 0.5, 10, 1)
        with pytest.raises(ValueError):
            schwarz_bound_check(m, 1, 1.5, 10, 1)


@pytest.fixture(scope="module")
def model60():
    seq = parse_sequence_spec("powlog:a=1,b=2")
    return CounterexampleModel(dyadic_multiplicities(seq, 60))


class TestContradiction:
    def test_shipped_betas_find_witness(self, model60):
        for beta in shipped_beta_family():
            rep = contradiction_experiment(model60, beta, scan_density=256)
            assert rep.witness_index is not None and rep.witness_index <= 60, beta.name
            assert rep.schwarz_violations == 0
            # left partial sums nondecreasing
            lhs = [r.lhs_partial for r in rep.rows]
            assert all(b >= a - 1e-12 for a, b in zip(lhs, lhs[1:]))

    def test_classic_beta_reports_no_witness(self, model60):
        # the triple-log left side cannot cross the Schwarz budget here
        rep = contradiction_experiment(model60, named_beta("invlogsq"), scan_density=256)
        assert rep.witness_index is None
        assert rep.lhs_final < rep.rhs_upper
        assert rep.schwarz_violations == 0

    def test_msnq_satisfying_source_self_comparison(self):
        # a source with convergent minimum-modulus sums: no witness either
        seq = parse_sequence_spec("powlog:a=3,b=0")
        model = CounterexampleModel(dyadic_multiplicities(seq, 50))
        from weightlab.counterexample import beta_self_referential

        rep = contradiction_experiment(model, beta_self_referential(seq), scan_density=256)
        assert rep.witness_index is None
        assert rep.schwarz_violations == 0

    def test_named_beta_builds_only_the_radius_it_reads(self, monkeypatch):
        # the trace radius builds its geometric sequence on first use, and
        # once; looking up another radius by name builds no sequence
        built = []
        post_init = ZeroSequence.__post_init__
        monkeypatch.setattr(ZeroSequence, "__post_init__",
                            lambda self: (built.append(self.spec_string()), post_init(self)))
        seq = parse_sequence_spec("powlog:a=1,b=2")
        built.clear()
        assert named_beta("const:0.001", seq)(8.0) == 0.001
        assert built == []
        trace = named_beta("trace", seq)
        assert built == []
        first = trace(8.0)
        assert trace(8.0) == first and trace(16.0) > first
        assert built == ["geometric:r=2"]

    def test_inadmissible_beta_rejected(self, model60):
        linear = BetaSpec("linear", lambda t: 2.0 * t, lambda J: math.inf)
        with pytest.raises(ValueError):
            contradiction_experiment(model60, linear)

    def test_witness_stable_under_scan_density(self, model60):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        beta = named_beta("const:0.01", seq)
        reps = [
            contradiction_experiment(model60, beta, scan_density=d)
            for d in (128, 512)
        ]
        assert reps[0].witness_index == reps[1].witness_index

    def test_partial_sums_within_allowance_of_mpmath(self, model60):
        from mpmath import mp, mpf

        seq = parse_sequence_spec("powlog:a=1,b=2")
        n = model60.mult.n
        with mp.workprec(200):
            ln_w0 = [mp.fsum(ni * mp.log(1 + mpf(4) ** (m - i))
                             for i, ni in enumerate(n, start=1) if ni) / 2
                     for m in range(len(n) + 2)]
            for beta in shipped_beta_family() + classic_beta_family(seq):
                rep = contradiction_experiment(model60, beta)
                allow = rep.witness_allowance
                assert 0 < allow < 1e-12 * rep.rhs_upper
                lhs = rhs = mpf(0)
                for row in rep.rows:
                    b, two_j = mpf(beta(2.0**row.j)), mpf(2) ** row.j
                    if b <= two_j:
                        lhs += row.n_j / two_j * mp.log(two_j / b)
                    rhs += 4 * ln_w0[row.j + 1] / (2 * two_j) + b / two_j
                    assert abs(row.lhs_partial - lhs) <= allow, (beta.name, row.j)
                    assert abs(row.rhs_partial - rhs) <= allow, (beta.name, row.j)
                assert abs(rep.rhs_upper - (rhs + row.rhs_tail_bound)) <= allow

    def test_rhs_tail_dominates_continuation(self, model60):
        from weightlab.counterexample import _w0_rhs_tail

        J = 50
        tail = _w0_rhs_tail(model60, J)
        brute = sum(
            4.0 * float(model60.ln_w0_dyadic(j + 1)) / 2.0 ** (j + 1)
            for j in range(J + 1, 61)
        )
        assert tail >= brute


def _scan_failures(model, rho, t_grid):
    """minmod_radius_scan's failure lists, each point decided by the full
    scan-and-zoom search: the reference the ends-first search must match."""
    out = {}
    for c in SCAN_C_GRID:
        for cp in SCAN_C_PRIME_GRID:
            fails = []
            for t in t_grid:
                t = float(t)
                r = c * rho.eval_log_abs_omega(t)[0] + cp
                if r <= 0:
                    fails.append(t)
                    continue
                lo, hi = t - r, t + r
                lo = max(lo, hi * 1e-12 if lo <= 0 else lo)
                xs = np.linspace(lo - t, hi - t, SCAN_DENSITY)
                if not zoom_max(lambda x: model.log_abs_f_offsets(t, x), xs) >= -r:
                    fails.append(t)
            out[(c, cp)] = fails
    return out


class TestMinmodRadiusScan:
    def test_failures_match_the_zoom_search(self):
        # the README command: cx scan --seq powlog:a=1,b=2 --rho geometric:r=2
        # --t-grid 2:65536:32, with the CLI's default j_max 40
        seq = parse_sequence_spec("powlog:a=1,b=2")
        model = CounterexampleModel(dyadic_multiplicities(seq, 40))
        rho = WeightEvaluator(parse_sequence_spec("geometric:r=2"), tol=1e-6)
        t_grid = log_grid(2.0, 65536.0, 32)
        rep = minmod_radius_scan(model, rho, t_grid)
        want = _scan_failures(model, rho, t_grid)
        got = {(g["c"], g["c_prime"]): g["failures"] for g in rep["grid"]}
        assert got == want
        assert rep["any_failures"]

    def test_rho_evaluated_once_per_point(self):
        m = single_factor_model()
        rho = WeightEvaluator(parse_sequence_spec("geometric:r=2"))
        calls = []
        evaluate = rho.eval_log_abs_omega

        def counting(t):
            calls.append(t)
            return evaluate(t)

        rho.eval_log_abs_omega = counting
        minmod_radius_scan(m, rho, [1.0, 3.0, 10.0])
        assert calls == [1.0, 3.0, 10.0]

    def test_generous_radius_passes(self):
        m = single_factor_model()
        seq = parse_sequence_spec("geometric:r=2")
        rho = WeightEvaluator(seq)
        rep = minmod_radius_scan(m, rho, [1.0, 3.0, 10.0])
        (generous,) = [g for g in rep["grid"] if (g["c"], g["c_prime"]) == (4.0, 10.0)]
        assert generous["all_pass"] and generous["n_checked"] == 3

    def test_counterexample_fails_at_dyadic_points(self):
        seq = parse_sequence_spec("powlog:a=1,b=2")
        model = CounterexampleModel(dyadic_multiplicities(seq, 40))
        rho = WeightEvaluator(ZeroSequence(seq.family, j_cut=60_000), tol=1e-6)
        t_grid = [2.0**j for j in (20, 25, 30, 35)]
        rep = minmod_radius_scan(model, rho, t_grid)
        assert any(g["failures"] for g in rep["grid"] if g["c"] <= 1.0 and g["c_prime"] <= 1.0)
