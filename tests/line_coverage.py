"""Check that the Tier-1 suite runs every line of src/zadr.

Runs the suite in this process under the stdlib `trace` module and lists
each line of src/zadr that compiles to code and never ran. Exits 1 when a
line outside ALLOWED is listed, or with pytest's own code when a test
fails. The two tests that run zadr in child processes, which `trace` does
not follow, are deselected; hypothesis draws from a fixed seed so that the
run repeats. Tracing every line makes the suite about four times slower,
about 2 minutes on 2 cores. Run it from any directory:

    python tests/line_coverage.py

The file name does not match pytest's test_*.py, so the suite never
collects it.
"""

from __future__ import annotations

import dis
import sys
import trace
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zadr"

# (file, stripped source line): lines that Tier-1 cannot reach in-process, each
# as many times as it may be missed.
ALLOWED = Counter({
    # The console-script entry point runs only in the child of test_console_script.
    ("cli.py", "sys.exit(main())"): 1,
    # The bare re-raises in compositions._read_table and _parse_columns pass on
    # errors that no readable file raises.
    ("compositions.py", "raise"): 2,
})

PYTEST_ARGS = ["-q", "--capture=fd", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               "-k", "not test_scripts and not test_console_script"]


def code_lines(path: Path) -> set[int]:
    """The line numbers at which some bytecode of the file starts a line."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # Line 0 marks code that no source line owns, such as a module's entry.
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    # No ignoredirs: trace caches its ignore decision by a file's base name, so
    # ignoring site-packages would also drop zadr's __init__.py, errors.py or cli.py.
    tracer = trace.Trace(count=1, trace=0)
    status = tracer.runfunc(pytest.main, [str(ROOT / "tests"), *PYTEST_ARGS])
    if status != 0:
        print(f"line_coverage: the suite failed (pytest exit {status})")
        return int(status)
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}
    allowed = ALLOWED.copy()
    missed = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(code_lines(path)):
            if (path, line) in ran:
                continue
            key = (path.name, source[line - 1].strip())
            if allowed[key] > 0:
                allowed[key] -= 1
                continue
            missed.append(f"src/zadr/{path.name}:{line}: {key[1]}")
    print("\n".join(["line_coverage: never run by Tier-1:", *missed] if missed
                     else ["line_coverage: every line of src/zadr ran"]))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
