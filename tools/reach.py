"""Print the lines of ``src/ilkit`` that no in-process Tier-1 test reaches.

    python tools/reach.py [pytest arguments]

Runs pytest in this interpreter (the whole suite under ``tests`` unless
arguments are given) with a ``sys.settrace`` line tracer on the frames of
``src/ilkit`` files, then prints each line that holds bytecode but never
ran, as ``path:line: source``, and their count.  The tracer is stdlib only.

Pytest runs with ``-p no:cacheprovider`` and without bytecode writing, so
the run leaves no cache or ``.pyc`` file in the tree.  Tests that run the
CLI in a subprocess are not traced, so lines only they reach are listed.
The tracer slows the code it watches several times over, so the time
budget tests (names ending in ``_budget``) would fail under it on time
alone; they are deselected, and the run says so.  They reach no line that
the other tests miss, and the Tier-1 suite still runs them untraced.
Other failures show in pytest's summary; the listing is printed either
way.
"""

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ilkit"


def code_lines(code):
    """The line numbers that carry bytecode in ``code`` and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line}   # 0: a module's entry
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


class SkipBudgets:
    """A pytest plugin that deselects the time budget tests and keeps their ids."""

    def __init__(self):
        self.ids = []

    def pytest_collection_modifyitems(self, config, items):
        budgets = [item for item in items
                   if getattr(item, "originalname", item.name).endswith("_budget")]
        items[:] = [item for item in items if item not in budgets]
        config.hook.pytest_deselected(items=budgets)
        self.ids = [item.nodeid for item in budgets]


def main(argv):
    # as the Tier-1 command sets them, so that the subprocess tests find ilkit
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    prefix = str(SRC) + os.sep
    reached = set()   # (filename, line)

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        reached.add((code.co_filename, code.co_firstlineno))
        return local

    import pytest

    skip = SkipBudgets()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])],
                    plugins=[skip])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"deselected {len(skip.ids)} time budget tests:", *skip.ids)

    missed = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        done = {line for name, line in reached if name == str(path)}
        for line in sorted(code_lines(compile(text, str(path), "exec")) - done):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} lines of src/ilkit reached by no in-process test")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
