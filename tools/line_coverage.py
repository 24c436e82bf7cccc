"""List the lines of `src/tcr` that a pytest run never executes.

A stdlib line tracer (`sys.settrace`), loaded as a pytest plugin:

    PYTHONPATH=src:tools python -m pytest -q -p line_coverage

It starts before the first conftest is loaded, so that the imports of
`tcr` are traced too, and at the end of the run prints one row per
module: its executable lines, the lines never reached and their numbers.
The executable lines of a file are the line numbers its compiled code
objects carry, so docstrings, comments and blank lines do not count.  Only
the main thread of the pytest process is traced: code run in a thread or a
subprocess counts as not reached.  Tracing makes the run about three
times slower; the counts are for reading, not a gate.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tcr"


def executable_lines(path) -> set:
    """The line numbers that carry bytecode in a Python source file."""
    stack = [compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineCollector:
    """The lines executed, per file, in the files under one directory."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.hits = {}       # file name -> set of line numbers reached
        self._ours = {}      # file name -> whether it lies under root
        self._previous = None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = Path(name).resolve().is_relative_to(self.root)
        if not ours:
            return None
        self.hits.setdefault(name, set()).add(frame.f_lineno)
        return self._local

    def start(self) -> None:
        self._previous = sys.gettrace()
        sys.settrace(self._global)

    def stop(self) -> None:
        """Put back the tracer that was set when this one started."""
        sys.settrace(self._previous)

    def missed(self, path) -> list:
        """The executable lines of `path` that were never reached, sorted."""
        path = Path(path).resolve()
        reached = set()
        for name, lines in self.hits.items():
            if Path(name).resolve() == path:
                reached |= lines
        return sorted(executable_lines(path) - reached)


def ranges(lines) -> str:
    """Sorted line numbers as "3-5, 9"."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


_collector = LineCollector(SRC)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    _collector.start()


def pytest_terminal_summary(terminalreporter):
    _collector.stop()
    write = terminalreporter.write_line
    write(f"lines of {SRC.relative_to(SRC.parent.parent)} never reached "
          "(module: executable, missed):")
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lost = _collector.missed(path)
        count = len(executable_lines(path))
        total += count
        missed += len(lost)
        write(f"  {path.stem}: {count}, {len(lost)}" + (f"  [{ranges(lost)}]" if lost else ""))
    write(f"  total: {total}, {missed}")
