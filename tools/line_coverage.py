"""Line coverage of src/relprop under the tier-1 test suite, standard library only.

    python3 tools/line_coverage.py            # the whole suite
    python3 tools/line_coverage.py -- -k cli  # extra arguments go to pytest

It runs pytest in this process under sys.settrace and records every line of a
`src/relprop` module that runs, import time included. A module's executable
lines are the lines its compiled code objects (nested functions, classes and
comprehensions too) map instructions to. For each module it prints the count
of executed against executable lines, then every line never executed, with
its text. pytest gets a fixed --hypothesis-seed, so the Hypothesis property and
fuzz tests draw the same examples on each run and two runs on one tree print the
same report (the tier-1 suite itself stays randomized). It writes no file;
pytest's cache plugin is switched off. It exits with pytest's status when the
suite fails; otherwise it exits 1 if any line never executed lies outside the
body of an `if __name__ == "__main__":` block, and 0 if none does.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relprop"


def executable_lines(path: Path) -> set[int]:
    """Every source line that some code object compiled from path maps an instruction to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main_guard_lines(path: Path) -> set[int]:
    """The lines of the bodies of the module's `if __name__ == "__main__":` blocks."""
    guard = ast.parse('__name__ == "__main__"', mode="eval").body
    return {
        line
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.If) and ast.dump(node.test) == ast.dump(guard)
        for line in range(node.body[0].lineno, node.end_lineno + 1)
    }


def main(argv: list[str]) -> int:
    if "relprop" in sys.modules:
        raise SystemExit("relprop is already imported; its import-time lines would be missed")
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    sys.path.insert(0, str(ROOT / "src"))
    args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--rootdir", str(ROOT), str(ROOT / "tests")]
    args += argv
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)

    gated = 0
    for name, path in files.items():
        lines = executable_lines(path)
        missed = sorted(lines - hit[name])
        gated += len(set(missed) - main_guard_lines(path))
        print(f"relprop/{path.name}: {len(lines) - len(missed)} of {len(lines)} executable lines executed")
        text = path.read_text().splitlines()
        for line in missed:
            print(f"  {path.name}:{line}: {text[line - 1].strip()}")
    print(f"{gated} never executed outside `if __name__ == \"__main__\":` bodies")
    return int(status) or int(gated > 0)


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(args[1:] if args[:1] == ["--"] else args))
