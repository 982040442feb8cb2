"""The golden corpus: exit code, stdout and written JSON/CSV of the
criterion-9 commands and of every `weightlab` line of the README's CLI
block but `run --config`.

    python tests/golden/golden.py          # regenerate tests/golden/
    python tests/golden/golden.py --emit   # print this checkout's outputs as JSON

Regenerate only in a change that means to move an output; the diff of
tests/golden/ then shows every moved digit.  tests/test_golden.py runs
`--emit` once and compares its outputs with the corpus.

numpy picks its SIMD loops at import, and its AVX2 and AVX-512 loops
round some results differently from its baseline ones.  So the commands
run in a child process whose NPY_DISABLE_CPU_FEATURES names every entry
of numpy's __cpu_dispatch__, and only the baseline loops run.  The
manifest records that set with the other facts the bytes depend on
(PLATFORM_FIELDS); where one differs, the comparison does not apply.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = HERE / "manifest.json"
PLATFORM_FIELDS = ("numpy", "machine", "libc", "longdouble", "disabled_cpu_features")

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


def readme_commands() -> list:
    """The `weightlab` lines of the README's CLI block, continuations joined."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = re.sub(r"\\\n\s*", "", block).splitlines()
    return [line.split()[1:] for line in lines
            if line.startswith("weightlab ") and " run " not in line]


def commands() -> list:
    """(name, argv) of every command in the corpus."""
    out = []
    for i, argv in enumerate(CRITERION_9, 1):
        argv = argv + ["--json", "out.json"] + (["--csv", "out.csv"] if argv[1] == "contradict" else [])
        out.append((f"c9-{i:02d}-{argv[0]}-{argv[1]}", argv))
    for i, argv in enumerate(readme_commands(), 1):
        out.append((f"readme-{i:02d}-{argv[0]}-{argv[1]}", argv))
    return out


def pinned_env() -> dict:
    """This environment with every numpy dispatch target disabled."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def platform_record() -> dict:
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
        "longdouble": str(np.finfo(np.longdouble)),
        "disabled_cpu_features": sorted(f for f in __cpu_dispatch__ if not __cpu_features__[f]),
    }


def emit() -> dict:
    """Run every command in this process, each in an empty directory."""
    from weightlab.cli import main

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands():
            cwd = Path(tmp) / name
            cwd.mkdir()
            os.chdir(cwd)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            files = {"stdout": buf.getvalue()}
            files.update((p.name, p.read_text()) for p in sorted(cwd.iterdir()))
            outputs[name] = {"argv": argv, "exit": code, "files": files}
        os.chdir(ROOT)
    return {"platform": platform_record(), "outputs": outputs}


def run() -> dict:
    """emit() in a child process with numpy's dispatch pinned."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--emit"],
                          env=pinned_env(), capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"golden.py --emit exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def write(result: dict) -> None:
    for old in HERE.glob("*-*.*"):
        if old.suffix in (".stdout", ".json", ".csv"):
            old.unlink()
    entries = []
    for name, out in result["outputs"].items():
        for key, text in out["files"].items():
            (HERE / f"{name}.{key}").write_text(text)
        entries.append({"name": name, "argv": out["argv"], "exit": out["exit"],
                        "files": sorted(out["files"])})
    manifest = {"platform": result["platform"], "commands": entries}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        json.dump(emit(), sys.stdout)
    else:
        write(run())
