"""The lines of ``src/cgrlab`` that tier-1 never runs, against an allowlist.

Usage, from the root of a checkout::

    python3 tests/linecov.py                 # tier-1, traced
    python3 tests/linecov.py tests/test_cli.py -k gen_plan   # any pytest arguments

The script runs pytest in this process with ``LineCoverage`` as a plugin:
from the start of the session to its end, a ``sys.settrace`` hook records
each line that runs in a file under ``src/cgrlab``.  A file's executable
lines are the line starts (``dis.findlinestarts``) of every code object
compiled from it, as the stdlib ``trace`` module counts them.  Each
executable line that never ran is printed as ``file:line  function  text``.

``ALLOWED`` names the lines expected never to run, each with its reason, by
file, function, the stripped text of the line before it (the nearest that
is neither blank nor a comment) and its own stripped text, since line
numbers move with every edit; one entry covers every line that matches it.
The script exits 1 when a line that never ran matches no entry, when an
entry matches no such line (it is stale: its line ran, or moved or went),
or when pytest fails, and prints one summary line last.  Pytest does not
collect this file (its name does not start with ``test_``) and tier-1 does
not run it: tracing makes the suite about five times slower.
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cgrlab"

# (file, function, line before, line): why no tier-1 test runs the line
ALLOWED = {
    ("cli.py", "<module>", 'if __name__ == "__main__":', "sys.exit(main())"):
        "the script entry point; the tests call `main` in process",
    ("routesearch.py", "yen_plus", "if total in seen:", "continue"):
        "dead by measurement only: no call has found a pool candidate twice, "
        "but no proof yet says Lawler's restriction with B(R) banning cannot",
    ("simcore.py", "_Engine._enqueue", "if not accepted:", "return False"):
        "no tier-1 run has `handle_overbooking` refuse a booking (ROADMAP item 4)",
    ("simcore.py", "_Engine._dispatch_candidates", "else:", "self._move(child, _RETIRED, now)"):
        "a critical child retires only when its booking is refused (ROADMAP item 4)",
    ("simcore.py", "_Engine._sample", "if generated != self.delivered + self.failed + live:",
     "raise AssertionError("):
        "the conservation invariant, which no run breaks",
    ("simcore.py", "_Engine._sample", "raise AssertionError(",
     'f"conservation violated at t={t}: {generated} generated vs "'):
        "the conservation invariant's message",
    ("simcore.py", "_Engine._sample", 'f"conservation violated at t={t}: {generated} generated vs "',
     'f"{self.delivered} delivered + {self.failed} failed + {live} live"'):
        "the conservation invariant's message",
}


class LineCoverage:
    """A pytest plugin that records the lines run under ``src/cgrlab``."""

    def __init__(self) -> None:
        self.prefix = str(PACKAGE) + "/"
        self.ran: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionstart(self, session) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    @pytest.hookimpl(trylast=True)
    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.settrace(None)
        threading.settrace(None)


def _code_objects(code: CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable(path: Path) -> dict[int, str]:
    """Each executable line of ``path`` and the function it is in
    (``<module>`` at the top level): the innermost code object wins."""
    lines: dict[int, str] = {}
    for code in _code_objects(compile(path.read_text(), str(path), "exec")):
        for _, line in dis.findlinestarts(code):
            if line is not None and line > 0:
                lines[line] = code.co_qualname
    return lines


def never_ran(ran: set[tuple[str, int]]) -> list[tuple[str, int, str, str, str]]:
    """``(file, line, function, line before, line)`` of every executable line
    of the package that is not in ``ran``, the texts stripped."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = [line.strip() for line in path.read_text().splitlines()]
        for line, function in sorted(executable(path).items()):
            if (str(path), line) not in ran:
                before = next(
                    (t for t in reversed(text[: line - 1]) if t and not t.startswith("#")), "")
                missed.append((path.name, line, function, before, text[line - 1]))
    return missed


def main(argv: list[str]) -> int:
    if any(name == "cgrlab" or name.startswith("cgrlab.") for name in sys.modules):
        raise SystemExit("cgrlab was imported before tracing started")
    plugin = LineCoverage()
    status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[plugin])
    missed = never_ran(plugin.ran)
    used = set()
    unlisted = 0
    for file, line, function, before, text in missed:
        key = (file, function, before, text)
        reason = ALLOWED.get(key)
        if reason is None:
            unlisted += 1
            print(f"UNLISTED {file}:{line}  {function}  {text}")
        else:
            used.add(key)
            print(f"allowed  {file}:{line}  {function}  {text}  ({reason})")
    stale = [key for key in ALLOWED if key not in used]
    for file, function, _, text in stale:
        print(f"STALE    {file}  {function}  {text}")
    total = sum(len(executable(path)) for path in PACKAGE.glob("*.py"))
    print(
        f"linecov: {total - len(missed)} of {total} executable lines ran; "
        f"{len(missed) - unlisted} never ran as allowed, {unlisted} unlisted, "
        f"{len(stale)} stale entries; pytest exit {int(status)}"
    )
    return 1 if unlisted or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
