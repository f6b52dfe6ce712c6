"""tools/scenario_digest.py on a small tree that links this checkout's src."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "scenario_digest", ROOT / "tools" / "scenario_digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

SMALL = {"kind": "solve", "field": {"type": "sine", "amplitude": 0.02,
                                    "mode": 1},
         "order": 8, "m": 1, "eps": 0.05, "seed": 0}


def test_digest_prints_each_check_with_its_value_and_verdict(tmp_path):
    """One line per check of a scenario's summary.json, with the repr of its
    value and its pass flag, as a run of the same scenario writes them; a
    rejected scenario exits 3 and has no checks."""
    tree = tmp_path / "tree"
    (tree / "scenarios").mkdir(parents=True)
    (tree / "src").symlink_to(ROOT / "src")
    (tree / "scenarios" / "small.json").write_text(json.dumps(SMALL))
    shutil.copy(ROOT / "scenarios" / "inadmissible.json", tree / "scenarios")
    lines = digest.digest(tree)

    out = tmp_path / "direct"
    env = {**os.environ, **dict.fromkeys(digest.THREADS, "1"),
           "PYTHONPATH": str(tree / "src")}
    code = subprocess.run(
        [sys.executable, "-c", digest.RUN, "solve",
         str(tree / "scenarios" / "small.json"), "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True).returncode
    summary = (out / "summary.json").read_bytes()
    checks = json.loads(summary)["checks"]
    assert code == 0 and [c["name"] for c in checks] == [
        "residual", "contraction_ratios", "strip_invariant", "endpoint_mu"]

    assert lines[0] == "inadmissible.json exit 3"
    assert not any(line.startswith("inadmissible.json check")
                   for line in lines)
    assert "small.json exit 0" in lines
    assert (f"small.json summary.json {hashlib.sha256(summary).hexdigest()}"
            in lines)
    assert [line for line in lines if line.startswith("small.json check")] \
        == [f"small.json check {c['name']} {c['value']!r} pass {c['pass']}"
            for c in checks]
