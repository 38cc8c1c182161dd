"""Every CLI artifact and error message, byte for byte, against the digest checked in beside the tests.

tests/golden/artifacts.sha256 is `python3 tools/compare_outputs.py --digest FILE` of the tree whose
outputs it pins: one sha256 per artifact of compare_outputs' five models and per error case's exit
code and stderr, under a header naming the numpy and BLAS builds. A change that moves bytes on
purpose regenerates the file in the same commit.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "artifacts.sha256"


def _read_digest(path: Path) -> tuple[str, dict[str, str]]:
    """The header lines and {name: sha256} of a digest file."""
    lines = path.read_text().splitlines()
    header = "; ".join(line.lstrip("# ") for line in lines if line.startswith("#"))
    return header, dict(line.split("  ", 1)[::-1] for line in lines if not line.startswith("#"))


def test_artifacts_match_the_golden_digest(tmp_path):
    out = tmp_path / "artifacts.sha256"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "--digest", str(out),
                          str(ROOT)], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    (want_header, want), (got_header, got) = _read_digest(GOLDEN), _read_digest(out)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, (f"{len(differ)} of {len(want)} golden digests differ (golden: {want_header};"
                        f" running: {got_header}):\n" + "\n".join(differ))
