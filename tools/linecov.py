"""Line tracer: which executable `src/` lines a pytest run leaves unrun.

    PYTHONPATH=src python tools/linecov.py [pytest arguments]
    PYTHONPATH=src python tools/linecov.py -q --continue-on-collection-errors

Runs pytest in this process under a `sys.settrace` hook (and
`threading.settrace`, for tests that start threads) that records each line
run in a file under `src/`. A line is executable if a compiled code object
of its file maps an instruction to it. The report lists, per file, the
executable lines that did not run, then the total ran of executable. Tests
that run the package in a child process are not traced, so their lines
count as unrun. Stdlib only; it reports and gates nothing, and exits with
pytest's exit code.
"""

import os
import sys
import threading
import types

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src")) + os.sep


def executable_lines(path: str) -> set[int]:
    """Every line that some code object compiled from the file maps an instruction to."""
    with open(path, encoding="utf-8") as fh:
        stack, lines = [compile(fh.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {}  # by file name as compiled, which may be relative
    under_src: dict[str, bool] = {}

    def local(frame, event, _arg):
        if event in ("call", "line"):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def outer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in under_src:
            under_src[name] = os.path.abspath(name).startswith(SRC)
            if under_src[name]:
                ran[name] = set()
        return local(frame, event, arg) if under_src[name] else None

    threading.settrace(outer)
    sys.settrace(outer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    runs: dict[str, set[int]] = {}
    for name, lines in ran.items():
        runs.setdefault(os.path.abspath(name), set()).update(lines)
    total = unrun = 0
    for root, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            lines = executable_lines(path)
            missed = sorted(lines - runs.get(path, set()))
            total, unrun = total + len(lines), unrun + len(missed)
            if missed:
                unrun_lines = ", ".join(map(str, missed))
                print(f"{os.path.relpath(path, SRC)}: {len(missed)} unrun: {unrun_lines}")
    print(f"ran {total - unrun} of {total} executable src/ lines; {unrun} unrun")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
