"""The rows of ``tests/mutants.py`` still point at code and tests that exist.

No mutant runs here: each row's text is looked up in its file and each kill
id in its test file, so a change that moves a guard or renames a test shows
here at once, where the mutation script itself stays out of the suite.
"""

from __future__ import annotations

import ast
import re
from functools import cache

from mutants import MUTANTS, ROOT


@cache
def _defined(path) -> set[tuple[str, ...]]:
    """``(function,)``, ``(class,)`` and ``(class, method)`` names defined at
    the top level of a test file."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add((node.name,))
        if isinstance(node, ast.ClassDef):
            names.update(
                (node.name, item.name) for item in node.body if isinstance(item, ast.FunctionDef)
            )
    return names


def test_every_old_text_occurs_once():
    counts = {
        m.name: (ROOT / "src" / "cgrlab" / m.file).read_text().count(m.old) for m in MUTANTS
    }
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_every_kill_names_a_test():
    missing = []
    for mutant in MUTANTS:
        for kill in mutant.kills:
            file, *names = kill.split("::")
            names[-1] = re.sub(r"\[.*\]$", "", names[-1])
            path = ROOT / file
            if not path.is_file() or tuple(names) not in _defined(path):
                missing.append((mutant.name, kill))
    assert missing == []
