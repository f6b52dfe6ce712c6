"""Run every shipped scenario through the CLI and print a digest of its output.

    python tools/scenario_digest.py [TREE]

TREE is the root of a torusflow checkout (default: the one holding this
script); its ``src`` is imported and its ``scenarios/*.json`` are run, each
by ``torusflow.cli.main`` in a fresh process with one BLAS thread, into a
fresh temporary directory.  One line gives a scenario's exit code, one
line per output file its SHA-256 (``manifest.json`` is left out, since it
records the time of the run), and one line per check of its
``summary.json`` the check's name, the ``repr`` of its value and its pass
flag, so that a changed hash shows how far each check moved and whether it
still passes.  Two trees whose digests diff empty give byte-identical
outputs but for timestamps:

    python tools/scenario_digest.py /path/to/other/tree > a.txt
    python tools/scenario_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN = "import sys; from torusflow.cli import main; sys.exit(main(sys.argv[1:]))"


def digest(tree: Path) -> list:
    env = {**os.environ, **dict.fromkeys(THREADS, "1"),
           "PYTHONPATH": str(tree / "src")}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted((tree / "scenarios").glob("*.json")):
            kind = json.loads(scenario.read_text())["kind"]
            out = Path(tmp) / scenario.stem
            code = subprocess.run(
                [sys.executable, "-c", RUN, kind, str(scenario), "--out", str(out)],
                env=env, cwd=tmp, capture_output=True).returncode
            lines.append(f"{scenario.name} exit {code}")
            for f in sorted(out.rglob("*")) if out.exists() else ():
                if f.is_file() and f.name != "manifest.json":
                    sha = hashlib.sha256(f.read_bytes()).hexdigest()
                    lines.append(f"{scenario.name} {f.relative_to(out)} {sha}")
            summary = out / "summary.json"
            checks = (json.loads(summary.read_text()).get("checks", [])
                      if summary.exists() else [])
            lines += [f"{scenario.name} check {c['name']} {c['value']!r} "
                      f"pass {c['pass']}" for c in checks]
    return lines


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    print("\n".join(digest(root.resolve())))
