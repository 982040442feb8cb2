import json
import math
import os
import stat
import subprocess
import sys
import warnings

import pytest

from weightlab import parse_sequence_spec
from weightlab.cli import main


def run_cli(args, tmp_path=None):
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestBasics:
    def test_weight_eval_stdout(self):
        code, out, _ = run_cli(["weight", "eval", "--seq", "explicit:[1]", "--t", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["points"][0]["log_abs_omega"] == pytest.approx(0.34657359027997264)

    def test_malformed_spec_exits_2(self):
        code, _, err = run_cli(["weight", "eval", "--seq", "explicit:[2,1]", "--t", "1"])
        assert code == 2
        assert "non-monotone" in err

    def test_coeffs_past_float_range_exits_2(self):
        code, out, err = run_cli(["weight", "coeffs", "--seq", "geometric:r=2", "--K", "1100"])
        assert code == 2 and not out
        assert "overflows float64" in err

    def test_coeffs_with_unbounded_tail_exits_2(self):
        # 30,000 factors of r = 1 + 1e-7 leave sum_(j>J) 1/t_j^2 near 5e6,
        # and exp(n K tail) - 1 overflows: no a_k is certified
        code, out, err = run_cli(["weight", "coeffs", "--seq", "geometric:r=1.0000001",
                                  "--n", "2", "--K", "40"])
        assert code == 2 and not out
        assert "J = 30000 factors" in err and "overflows" in err

    @pytest.mark.parametrize("argv", [
        # r^2 overflows float64, and so does the one zero's square
        ["criteria", "omega6", "--seq", "geometric:r=1e200"],
        ["criteria", "omega6", "--seq", "explicit:[1e300]", "--J", "2"],
    ])
    def test_tails_past_the_float_range(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(argv)
        assert code == 0 and not err
        rep = json.loads(out)
        assert rep["verdicts_agree_all_six"]
        assert all(d["tail_bound"] > 0 for c, d in rep["diagnostics"].items() if c in ("ii", "iii", "iv"))

    def test_coeffs_with_an_overflowing_ratio_exits_2(self):
        # t_2 = r^2 = inf, and the table needs K + 1 = 41 factors
        code, out, err = run_cli(["weight", "coeffs", "--seq", "geometric:r=1e200", "--K", "40"])
        assert code == 2 and not out
        assert err.startswith("error: geometric:r=1e+200: t_2 overflows float64")

    @pytest.mark.parametrize("spec, log_a", [
        ("explicit:[1,2]", [0.0, 0.5 * math.log(1.25), math.log(0.5)]),
        ("explicit:[1e300]", [0.0, -math.log(1e300)]),
    ])
    def test_coeffs_of_a_short_list(self, spec, log_a):
        # a_k = 0 past the list: the identity is checked up to the last
        # positive coefficient, and the table is printed
        code, out, err = run_cli(["weight", "coeffs", "--seq", spec, "--K", "4"])
        assert code == 0 and not err
        rep = json.loads(out)
        assert rep["log_a"][len(log_a):] == ["-inf"] * (5 - len(log_a))
        assert rep["log_a"][: len(log_a)] == pytest.approx(log_a, rel=1e-15, abs=1e-15)
        assert [r["k"] for r in rep["inf_sup"]] == list(range(1, len(log_a)))
        assert all(r["rel_error"] < 1e-12 for r in rep["inf_sup"])

    def test_eval_past_float_range_exits_2(self):
        code, out, err = run_cli(["weight", "eval", "--seq", "geometric:r=2", "--t", "1e200"])
        assert code == 2 and not out
        assert "overflows float64" in err

    def test_eval_power_overflow_exits_2(self):
        code, out, err = run_cli(["weight", "eval", "--seq", "power:a=100", "--t", "1e307"])
        assert code == 2 and not out
        assert "overflows float64" in err

    @pytest.mark.parametrize("spec", ["powlog:a=1,b=2", "power:a=2"])
    def test_eval_at_the_top_of_the_float_range_exits_2(self, spec):
        # 8t overflows to inf: the evaluator refuses the point before its
        # cutoff would count the zeros up to inf
        code, out, err = run_cli(["weight", "eval", "--seq", spec, "--t", "1.7e308"])
        assert code == 2 and not out
        assert "overflows float64" in err and "2^1023" not in err

    def test_powlog_models_build_past_level_400(self):
        # n(2^j) passes 2^400 near j = 414; every level up to the bounds
        # 510 (a model) and 1023 (cx build) still counts
        code, out, _ = run_cli(["cx", "contradict", "--seq", "powlog:a=1,b=2",
                                "--j-max", "510", "--scan-density", "8"])
        assert code == 0
        seq = parse_sequence_spec("powlog:a=1,b=2")
        for j_max in (510, 1023):
            code, out, _ = run_cli(["cx", "build", "--seq", "powlog:a=1,b=2",
                                    "--j-max", str(j_max)])
            assert code == 0
            assert json.loads(out)["total"] == seq.count_leq(2.0**j_max)
        code, out, err = run_cli(["cx", "build", "--seq", "powlog:a=1,b=2", "--j-max", "1024"])
        assert code == 2 and not out
        assert "--j-max 1024 > 1023" in err

    @pytest.mark.parametrize("argv", [
        ["majorant", "alpha", "--seq", "geometric:r=1.0000001", "--grid", "1:1e6:5"],
        ["majorant", "beta", "--seq", "power:a=1.0000001", "--grid", "1:1e6:5"],
        ["majorant", "alpha", "--seq", "powlog:a=1,b=2", "--grid", "1:1e300:5"],
    ])
    def test_majorant_past_j_cut_exits_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and not out
        assert "inner-series terms, more than --j-cut 500000" in err

    @pytest.mark.parametrize("J", ["0", "1", "1024"])
    def test_omega6_levels_outside_the_range_exit_2(self, J):
        # J >= 2 gives the msnq series a term, and 2^1024 overflows float64
        code, out, err = run_cli(["criteria", "omega6", "--seq", "geometric:r=2", "--J", J])
        assert code == 2 and not out
        assert f"--J {J} is outside [2, 1023]" in err

    def test_omega6_past_the_ln_w_profile_names_J(self):
        # ln|w(2^513)| overflows float64 on geometric:r=2: the message names
        # --J and the last level the ln|w| profile reaches
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(["criteria", "omega6", "--seq", "geometric:r=2",
                                      "--J", "513"])
            assert code == 2 and not out
            assert "--J 513 reaches past the ln|w| profile, which stops at level 512" in err
            assert run_cli(["criteria", "omega6", "--seq", "geometric:r=2", "--J", "512"])[0] == 0

    def test_omega6_with_an_unclosable_tail_is_inconclusive(self):
        # r = 2^(1/a - 1) is within 7e-8 of 1: no geometric tail bound
        # closes, so the dyadic msnq series have no certificate
        code, out, _ = run_cli(["criteria", "omega6", "--seq", "power:a=1.0000001",
                                "--J", "25"])
        assert code in (0, 1)
        diags = json.loads(out)["diagnostics"]
        assert [diags[c]["verdict"] for c in ("ii", "iii", "iv")] == ["inconclusive"] * 3
        assert all(diags[c]["tail_bound"] is None for c in ("ii", "iii", "iv"))

    @pytest.mark.parametrize("a, certified", [("40", ["ii"]), ("100", [])])
    def test_omega6_powlog_tail_stops_at_level_1023(self, a, certified):
        # the powlog msnq tail grows its bridge j2 until a correction falls
        # below 1/2; where it has not by level 1023, the last level with a
        # zero count, the tail is infinite: no certificate, no overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(["criteria", "omega6", "--seq", f"powlog:a={a},b=0",
                                    "--J", "25"])
        assert code == 1
        diags = json.loads(out)["diagnostics"]
        for c in ("ii", "iii", "iv"):
            want = "convergent-certified" if c in certified else "inconclusive"
            assert diags[c]["verdict"] == want, c

    def test_classify_divergence_certificate_with_zero_partial_sums(self):
        # on powlog:a=1,b=2 the logratio and loglog_t sums are still 0 at
        # k = 3; the analytic divergence certificate decides them anyway
        code, out, _ = run_cli(["criteria", "classify", "--seq", "powlog:a=1,b=2",
                                "--k-max", "3"])
        assert code == 0
        diags = json.loads(out)["diagnostics"]
        assert {d["verdict"] for d in diags.values()} == {"divergent-trend"}

    def test_unknown_family_exits_2(self):
        code, _, _ = run_cli(["weight", "eval", "--seq", "foo:r=2", "--t", "1"])
        assert code == 2

    def test_classify_geometric_all_pass(self, tmp_path):
        out_file = tmp_path / "r.json"
        code, _, _ = run_cli(
            ["criteria", "classify", "--seq", "geometric:r=2",
             "--k-max", "500", "--json", str(out_file)]
        )
        assert code == 0
        rep = json.loads(out_file.read_text())
        verdicts = {d["verdict"] for d in rep["diagnostics"].values()}
        assert verdicts == {"convergent-certified"}

    def test_sk_sweep(self):
        code, out, _ = run_cli(
            ["majorant", "sk-sweep", "--trials", "5", "--k-max", "8", "--seed", "3"]
        )
        assert code == 0
        assert json.loads(out)["passed"]

    def test_sk_sweep_past_the_work_budget_exits_2(self):
        # the default 100 trials at --k-max 200 would take over a minute
        code, out, err = run_cli(["majorant", "sk-sweep", "--k-max", "200"])
        assert code == 2 and not out
        assert "--trials" in err

    def test_step(self):
        code, out, _ = run_cli(["majorant", "step"])
        assert code == 0
        assert json.loads(out)["all_exactly_one"]

    def test_cx_build(self):
        code, out, _ = run_cli(
            ["cx", "build", "--seq", "geometric:r=2", "--j-max", "10"]
        )
        assert code == 0
        assert json.loads(out)["multiplicities"] == [1] * 10


class TestFloatRange:
    @pytest.mark.parametrize("argv", [
        ["cx", "schwarz", "--seq", "powlog:a=1,b=2", "--j-max", "300", "--j", "280",
         "--delta", "0.5", "--samples", "20"],
        ["cx", "dominate", "--seq", "powlog:a=1,b=2", "--j-max", "40", "--samples", "50",
         "--radius", "1e80"],
        ["cx", "schwarz", "--seq", "geometric:r=2", "--j-max", "510", "--j", "400",
         "--delta", "0.5"],
    ])
    def test_complex_f_past_q_2_500_has_no_false_violation(self, argv):
        # |q| = |z/2^j|^2 passes 2^500 at the low levels, where |q|^2 overflows
        code, out, _ = run_cli(argv)
        assert code == 0
        rep = json.loads(out)
        results = rep["results"] if "results" in rep else [rep["result"]]
        assert [r["details"]["violations"] for r in results] == [0] * len(results)

    def test_schwarz_next_to_the_zero_checks_every_sample(self):
        # at delta 1e-10 every sample lies within 2^5 1e-10 of the zero 2^5
        code, out, _ = run_cli(["cx", "schwarz", "--seq", "powlog:a=1,b=2", "--j", "5",
                                "--delta", "1e-10", "--samples", "20"])
        assert code == 0
        result = json.loads(out)["results"][0]
        assert result["details"]["violations"] == 0
        assert isinstance(result["worst_margin"], float)

    def test_schwarz_counts_a_sample_on_the_zero(self):
        # sample 0, z = 32 (1 + 1e-17), rounds to the zero 32 itself
        code, out, _ = run_cli(["cx", "schwarz", "--seq", "powlog:a=1,b=2", "--j", "5",
                                "--delta", "1e-17", "--samples", "20"])
        assert code == 0
        details = json.loads(out)["results"][0]["details"]
        assert details["on_zero"] == 1 and details["samples"] == 20

    @pytest.mark.parametrize("argv, bound", [
        (["cx", "contradict", "--seq", "geometric:r=2", "--j-max", "511"], "510"),
        (["cx", "contradict", "--seq", "geometric:r=2", "--j-max", "600"], "510"),
        (["cx", "build", "--seq", "geometric:r=2", "--j-max", "1100"], "1023"),
    ])
    def test_levels_past_float_range_exit_2(self, argv, bound):
        code, out, err = run_cli(argv)
        assert code == 2 and not out
        assert f"> {bound}" in err and "overflows float64" in err

    def test_last_levels_in_range(self):
        code, out, _ = run_cli(["cx", "contradict", "--seq", "geometric:r=2",
                                "--j-max", "510", "--scan-density", "64"])
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["rhs_upper"] == 6.80168616277246
        assert summary["witness_index"] == 3
        code, out, _ = run_cli(["cx", "build", "--seq", "geometric:r=2", "--j-max", "1023"])
        assert code == 0
        assert json.loads(out)["multiplicities"] == [1] * 1023


    @pytest.mark.parametrize("argv", [
        ["weight", "eval", "--seq", "explicit:[1e-300,1e300]", "--t", "2"],
        ["weight", "checks", "--seq", "explicit:[1e-300,1e300]"],
        ["criteria", "omega6", "--seq", "explicit:[1e-300,1e300]"],
    ], ids=["eval", "checks", "omega6"])
    def test_a_zero_far_below_the_argument(self, argv):
        # (t/t_1)^2 overflows, and those factors take the scaled form
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(argv)
        assert code in (0, 1), err
        if argv[1] == "eval":
            v = json.loads(out)["points"][0]["log_abs_omega"]
            assert v == pytest.approx(math.log(2.0) + 300.0 * math.log(10.0), rel=1e-12)

    def test_index_tails_past_the_float_range_are_positive(self):
        # the index-series summands of r = 1e200 underflow; their tails are
        # read from logarithms and floored at the smallest positive float
        code, out, _ = run_cli(["criteria", "omega6", "--seq", "geometric:r=1e200"])
        assert code == 0
        tails = {c: d["tail_bound"] for c, d in json.loads(out)["diagnostics"].items()}
        assert sorted(tails) == ["i", "ii", "iii", "iv", "v", "vi"]
        assert all(t > 0 for t in tails.values()), tails


class TestContradictCommand:
    def test_contradict_writes_csv_and_json(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["cx", "contradict", "--seq", "powlog:a=1,b=2", "--j-max", "40",
             "--beta", "const:0.001", "--scan-density", "128",
             "--csv", str(csv_path), "--json", str(json_path)]
        )
        assert code == 0
        rep = json.loads(json_path.read_text())
        assert rep["summary"]["witness_index"] is not None
        header = csv_path.read_text().splitlines()[0]
        assert header == "j,n_j,lhs_partial,rhs_partial,rhs_tail_bound,minmod_sup,schwarz_rhs,margin"

    def test_run_config_mode(self, tmp_path):
        cfg = {
            "command": "cx.contradict",
            "seq": "powlog:a=1,b=2",
            "j_max": 30,
            "beta": "const:0.001",
            "scan_density": 128,
            "json": str(tmp_path / "out.json"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run_cli(["run", "--config", str(cfg_path)])
        assert code == 0
        assert (tmp_path / "out.json").exists()

    def test_precision_bits_flag_removed(self):
        code, out, _ = run_cli(["cx", "contradict", "--seq", "powlog:a=1,b=2",
                                "--precision-bits", "128"])
        assert code == 2 and not out

    def test_bad_config_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not valid json")
        assert run_cli(["run", "--config", str(cfg_path)])[0] == 2
        cfg_path.write_text(json.dumps({"seq": "geometric:r=2"}))
        assert run_cli(["run", "--config", str(cfg_path)])[0] == 2

    def test_past_level_256_has_no_false_violation(self, tmp_path):
        # q = (s/2^i)^2 passes 2^512 at the low levels from j = 257 on
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["cx", "contradict", "--seq", "powlog:a=1,b=2", "--j-max", "300",
             "--beta", "invlogsq", "--scan-density", "64",
             "--csv", str(csv_path), "--json", str(json_path)]
        )
        assert code == 0
        assert json.loads(json_path.read_text())["summary"]["schwarz_violations"] == 0
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 301
        assert not any(c in ("inf", "-inf", "nan") for r in rows for c in r.split(","))


def _config_of(argv):
    """The `run --config` equivalent of a flag invocation."""
    cfg = {"command": f"{argv[0]}.{argv[1]}"}
    flags = argv[2:]
    for flag, text in zip(flags[::2], flags[1::2]):
        key = flag[2:].replace("-", "_")
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        if key in ("j", "delta", "t"):
            value = cfg.get(key, []) + [value]
        cfg[key] = value
    return cfg


def _run_config(cfg, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return run_cli(["run", "--config", str(cfg_path)])


class TestConfigMatchesFlags:
    CRITERION_9 = [
        ["weight", "eval", "--seq", "powlog:a=1,b=2", "--grid", "1:1e4:16"],
        ["weight", "coeffs", "--seq", "geometric:r=2", "--n", "2", "--K", "12"],
        ["weight", "checks", "--seq", "power:a=2", "--samples", "60", "--seed", "5"],
        ["criteria", "classify", "--seq", "powlog:a=3,b=0", "--k-max", "2000"],
        ["criteria", "omega6", "--seq", "geometric:r=2", "--J", "15"],
        ["majorant", "alpha", "--seq", "geometric:r=2", "--grid", "1:1e5:24"],
        ["majorant", "beta", "--seq", "geometric:r=2", "--grid", "1:1e5:24"],
        ["majorant", "sk-sweep", "--trials", "10", "--k-max", "10", "--seed", "2"],
        ["majorant", "step"],
        ["cx", "build", "--seq", "powlog:a=1,b=2", "--j-max", "30"],
        ["cx", "dominate", "--seq", "powlog:a=1,b=2", "--j-max", "25",
         "--samples", "100", "--seed", "6", "--radius", "100"],
        ["cx", "schwarz", "--seq", "powlog:a=1,b=2", "--j-max", "25",
         "--j", "5", "--j", "10", "--delta", "0.5", "--samples", "60", "--seed", "8"],
        ["cx", "contradict", "--seq", "powlog:a=1,b=2", "--j-max", "30",
         "--beta", "const:0.001", "--scan-density", "128"],
        ["cx", "scan", "--seq", "powlog:a=1,b=2", "--j-max", "20",
         "--rho", "geometric:r=2", "--t-grid", "2:256:6"],
    ]

    @pytest.mark.parametrize("argv", CRITERION_9, ids=lambda a: f"{a[0]}-{a[1]}")
    def test_criterion_9_byte_identical(self, argv, tmp_path):
        flags, config = tmp_path / "flags.json", tmp_path / "config.json"
        code = run_cli(argv + ["--json", str(flags)])[0]
        cfg = dict(_config_of(argv), json=str(config))
        assert _run_config(cfg, tmp_path)[0] == code
        assert config.read_bytes() == flags.read_bytes()

    def test_checks_defaults_agree(self, tmp_path):
        # the scaling check takes the one `samples` default on both paths
        flags, config = tmp_path / "flags.json", tmp_path / "config.json"
        run_cli(["weight", "checks", "--seq", "power:a=2", "--json", str(flags)])
        cfg = {"command": "weight.checks", "seq": "power:a=2", "json": str(config)}
        _run_config(cfg, tmp_path)
        assert config.read_bytes() == flags.read_bytes()

    @pytest.mark.parametrize("cfg, key", [
        ({"command": "cx.contradict", "seq": "powlog:a=1,b=2", "betta": "invlogsq"}, "betta"),
        ({"command": "cx.scan", "seq": "powlog:a=1,b=2", "refine_iters": 10}, "refine_iters"),
        ({"command": "majorant.step", "j_cut": 5}, "j_cut"),
        ({"command": "weight.coeffs", "seq": "power:a=2", "K": 2.5}, "K"),
        ({"command": "weight.coeffs", "seq": "power:a=2", "K": "forty"}, "K"),
        ({"command": "weight.eval", "seq": 40, "t": [1.0]}, "seq"),
        ({"command": "weight.eval", "seq": "power:a=2", "t": 1.0}, "t"),
        ({"command": "cx.schwarz", "seq": "powlog:a=1,b=2", "j": [5, "x"]}, "j"),
        ({"command": "cx.build", "seq": "powlog:a=1,b=2", "json": 5}, "json"),
    ])
    def test_undeclared_or_ill_typed_key_exits_2(self, cfg, key, tmp_path):
        code, out, err = _run_config(cfg, tmp_path)
        assert code == 2 and not out
        assert repr(key) in err

    def test_dead_j_cut_flags_removed(self):
        for argv in (["majorant", "sk-sweep"], ["majorant", "step"]):
            code, out, _ = run_cli(argv + ["--j-cut", "5"])
            assert code == 2 and not out


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["weight", "eval", "--seq", "powlog:a=1,b=2", "--grid", "1:1e4:16"],
            ["weight", "checks", "--seq", "geometric:r=2", "--samples", "50",
             "--seed", "9"],
            ["criteria", "omega6", "--seq", "geometric:r=2", "--J", "15"],
            ["majorant", "alpha", "--seq", "geometric:r=2", "--grid", "1:1e4:16"],
            ["majorant", "sk-sweep", "--trials", "5", "--k-max", "6", "--seed", "2"],
            ["cx", "schwarz", "--seq", "powlog:a=1,b=2", "--j-max", "25",
             "--j", "5", "--delta", "0.5", "--samples", "50", "--seed", "4"],
        ],
    )
    def test_byte_identical_reruns(self, args, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + ["--json", str(f1)])[0] == 0
        assert run_cli(args + ["--json", str(f2)])[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_contradict_csv_byte_identical(self, tmp_path):
        base = ["cx", "contradict", "--seq", "powlog:a=1,b=2", "--j-max", "30",
                "--beta", "loglinear:0.001", "--scan-density", "128"]
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(base + ["--csv", str(c1), "--json", str(j1)])
        run_cli(base + ["--csv", str(c2), "--json", str(j2)])
        assert c1.read_bytes() == c2.read_bytes()
        assert j1.read_bytes() == j2.read_bytes()


class TestReportFiles:
    ARGV = ["cx", "contradict", "--seq", "powlog:a=1,b=2", "--j-max", "30",
            "--scan-density", "64"]

    def test_rewrite_replaces_the_file(self, tmp_path):
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        argv = self.ARGV + ["--csv", str(csv_path), "--json", str(json_path)]
        assert run_cli(argv)[0] == 0
        first = csv_path.read_bytes(), json_path.read_bytes()
        # the open handles keep the first inodes from being reused
        with open(csv_path, "rb") as old_csv, open(json_path, "rb") as old_json:
            assert run_cli(argv)[0] == 0
            assert (csv_path.read_bytes(), json_path.read_bytes()) == first
            for old, path in ((old_csv, csv_path), (old_json, json_path)):
                assert os.fstat(old.fileno()).st_ino != os.stat(path).st_ino
                assert old.read() == path.read_bytes()

    def test_devnull_stays_a_device(self):
        code, out, _ = run_cli(self.ARGV + ["--json", os.devnull])
        assert code == 0 and not out
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "real.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        _, want, _ = run_cli(self.ARGV)
        assert run_cli(self.ARGV + ["--json", str(link)])[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == want

    def test_missing_directory_exits_2(self, tmp_path):
        path = tmp_path / "absent" / "rows.csv"
        code, _, err = run_cli(self.ARGV + ["--csv", str(path)])
        assert code == 2
        assert "No such file or directory" in err and str(path) in err
        assert not path.parent.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weightlab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


class TestRuntimeDependencies:
    def test_runs_without_mpmath(self):
        # mpmath is a test-only dependency: importing the package must not
        # load it, and the counterexample commands must run with it blocked
        import weightlab

        src = os.path.dirname(os.path.dirname(weightlab.__file__))
        code = (
            "import os, sys, weightlab, weightlab.cli\n"
            "if 'mpmath' in sys.modules: sys.exit('mpmath imported')\n"
            "sys.modules['mpmath'] = None\n"
            "sys.exit(weightlab.cli.main(['cx', 'contradict', '--seq', 'powlog:a=1,b=2',"
            " '--j-max', '30', '--scan-density', '64', '--json', os.devnull]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
