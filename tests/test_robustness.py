"""The CLI at parameter extremes: every command ends with exit code 0, 1 or
2 and a report without NaN, never with a traceback.

Specs and numeric options are drawn at the edges the library documents:
near-degenerate families (r, a -> 1+, powlog b -> 1+), model levels up to
MAX_MODEL_LEVEL (1023 for cx build), radii and grid points from 1e-300 to 1e300, Schwarz
deltas down to 1e-17 and tiny enumeration caps.  Examples are derandomized,
so every run sees the same ones.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from weightlab.cli import main
from weightlab.counterexample import MAX_MODEL_LEVEL

# an example that runs longer than this counts as a hang
EXAMPLE_BOUND = timedelta(seconds=5)


def _settings(n):
    return settings(max_examples=n, deadline=EXAMPLE_BOUND, derandomize=True)


def _tiny_to_huge(lo=-300.0, hi=300.0):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


SPEC = st.one_of(
    st.sampled_from([
        "geometric:r=2", "geometric:r=1.0000001", "power:a=2", "power:a=1.0000001",
        "powlog:a=1,b=2", "powlog:a=1,b=1.0000001", "powlog:a=3,b=0",
        "explicit:[0.5,2,1e6]", "explicit:[1e-300,1e300]",
    ]),
    st.floats(1.0000001, 1e3).map(lambda r: f"geometric:r={r!r}"),
    st.floats(1.0000001, 8.0).map(lambda a: f"power:a={a!r}"),
    st.builds(lambda a, b: f"powlog:a={a!r},b={b!r}", st.floats(1.0, 4.0), st.floats(0.0, 4.0)),
)
SEQ = st.builds(lambda spec, j_cut: ["--seq", spec, "--j-cut", str(j_cut)],
                SPEC, st.sampled_from([5, 1000, 500_000]))
LEVEL = st.integers(1, MAX_MODEL_LEVEL)


def _flags(name, values):
    return [a for v in values for a in (name, repr(v) if isinstance(v, float) else str(v))]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert '"nan"' not in out.getvalue(), argv
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


@given(seq=SEQ, j_max=LEVEL, js=st.lists(LEVEL, min_size=1, max_size=3),
       deltas=st.lists(st.floats(-17.0, 0.0).map(lambda e: 10.0**e), min_size=1, max_size=2),
       samples=st.integers(1, 40), seed=st.integers(0, 1000))
@_settings(40)
def test_cx_schwarz(seq, j_max, js, deltas, samples, seed):
    js = [1 + (j - 1) % j_max for j in js]  # levels of the model
    _run(["cx", "schwarz", *seq, "--j-max", str(j_max), *_flags("--j", js),
          *_flags("--delta", deltas), "--samples", str(samples), "--seed", str(seed)])


@given(seq=SEQ, j_max=LEVEL, radius=st.one_of(st.just(0.0), _tiny_to_huge()),
       samples=st.integers(1, 12), seed=st.integers(0, 1000))
@_settings(40)
def test_cx_dominate(seq, j_max, radius, samples, seed):
    _run(["cx", "dominate", *seq, "--j-max", str(j_max), "--radius", repr(radius),
          "--samples", str(samples), "--seed", str(seed)])


@given(seq=SEQ, j_max=st.integers(1, 1023))
@_settings(15)
def test_cx_build(seq, j_max):
    _run(["cx", "build", *seq, "--j-max", str(j_max)])


@given(seq=SEQ, j_max=st.integers(1, 120),
       beta=st.sampled_from(["const:0.001", "const:0.01", "loglinear:0.001", "trace",
                             "invlogsq", "invloglog", "selfref"]),
       density=st.integers(2, 64))
@_settings(15)
def test_cx_contradict(seq, j_max, beta, density):
    _run(["cx", "contradict", *seq, "--j-max", str(j_max), "--beta", beta,
          "--scan-density", str(density)])


@given(seq=SEQ, rho=SPEC, j_max=st.integers(1, 120), lo=_tiny_to_huge(),
       hi=_tiny_to_huge(), n=st.integers(2, 4))
@_settings(15)
def test_cx_scan(seq, rho, j_max, lo, hi, n):
    _run(["cx", "scan", *seq, "--rho", rho, "--j-max", str(j_max),
          "--t-grid", f"{min(lo, hi)!r}:{max(lo, hi)!r}:{n}"])


@given(seq=SEQ, ts=st.lists(st.one_of(st.just(0.0), _tiny_to_huge()), min_size=1, max_size=3))
@_settings(20)
def test_weight_eval(seq, ts):
    _run(["weight", "eval", *seq, *_flags("--t", ts)])


@given(seq=SEQ, k_max=st.integers(3, 5000))
@_settings(15)
def test_criteria_classify(seq, k_max):
    _run(["criteria", "classify", *seq, "--k-max", str(k_max)])
