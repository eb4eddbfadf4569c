"""Line coverage of ``src/targetcal`` by Tier-1, with the standard library
only: a ``sys.settrace`` hook (``threading.settrace`` for threads started
later) records each line run in a ``src/targetcal`` frame while Tier-1 runs
in this process. Run from the repository root:

    python tests/linecov.py [pytest arguments]

It prints every executable line that no test reached, as ``file:line:
source``, then a count, and exits with pytest's status. Extra arguments go
to pytest in place of the default ``-q``. Lines that run only in a child
process (CLI subprocess tests, ``simulate`` workers) are not traced, so
they are listed too. The hook slows the suite, so this is a report, not a
Tier-1 gate.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "targetcal"


def executable_lines(path: Path) -> set:
    """Every line that starts an instruction of the compiled file."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def trace_tier1(args: list) -> tuple:
    """Run pytest under the hook; return its status and the (file, line)
    pairs reached."""
    reached, prefix = set(), str(PACKAGE) + "/"

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main([str(ROOT / "tests"), "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def report(reached: set) -> list:
    """``file:line: source`` for each unreached line, then a count."""
    lines, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        executable = executable_lines(path)
        total += len(executable)
        lines += [f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}"
                  for n in sorted(executable) if (str(path), n) not in reached]
    return lines + [f"unreached: {len(lines)} of {total} executable lines"]


if __name__ == "__main__":
    status, reached = trace_tier1(sys.argv[1:] or ["-q"])
    print("\n".join(report(reached)))
    sys.exit(int(status))
