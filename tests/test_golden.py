"""Same bytes as the corpus: every command of tests/golden/manifest.json
gives the exit code, stdout and JSON/CSV files stored there.

tests/golden/golden.py runs the commands once, in a child process with
numpy's SIMD dispatch pinned to its baseline loops.  On a platform whose
numpy version, machine, C library, long double or disabled features
differ from the manifest's, the bytes may rightly differ, so the test
skips and names the field.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden", GOLDEN / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def first_difference(want: str, got: str) -> str:
    a, b = want.splitlines(), got.splitlines()
    for i, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {i}: corpus {x!r}, now {y!r}"
    i = min(len(a), len(b)) + 1
    return f"line {i}: corpus has {len(a)} lines, now {len(b)}"


def test_outputs_match_the_golden_corpus():
    manifest = json.loads(golden.MANIFEST.read_text())
    result = golden.run()
    for field in golden.PLATFORM_FIELDS:
        if result["platform"][field] != manifest["platform"][field]:
            pytest.skip(f"golden corpus made with {field} = {manifest['platform'][field]!r}, "
                        f"this platform has {result['platform'][field]!r}")
    assert [c["name"] for c in manifest["commands"]] == list(result["outputs"])
    for cmd in manifest["commands"]:
        out = result["outputs"][cmd["name"]]
        where = f"{cmd['name']} (weightlab {' '.join(cmd['argv'])})"
        assert out["argv"] == cmd["argv"], f"{where}: argv is now {out['argv']}"
        assert out["exit"] == cmd["exit"], f"{where}: exit {out['exit']}, corpus {cmd['exit']}"
        assert sorted(out["files"]) == cmd["files"], f"{where}: writes {sorted(out['files'])}"
        for key in cmd["files"]:
            want = (GOLDEN / f"{cmd['name']}.{key}").read_text()
            if out["files"][key] != want:
                pytest.fail(f"{where}: {key} differs at {first_difference(want, out['files'][key])}")
