"""The ``REPRO_*`` environment knobs ``src/`` reads match README's table.

A knob the code reads but the README omits is invisible to users; a
README row for a knob nothing reads is a dead promise.  The set of
names ``src/`` reads is every string literal that is exactly a
``REPRO_*`` name (``os.environ.get("REPRO_JOBS")``, ``int_knob(...)``,
the CLI's ``os.environ[...] = ...``).  The ``_REPRO_*_H`` include
guards inside ``cfront/headers.py``'s builtin header texts are never
whole literals, so they stay out.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")


def knobs_read_by_src() -> set[str]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and KNOB.fullmatch(node.value):
                names.add(node.value)
    return names


def knobs_mentioned_in_src() -> set[str]:
    """Every ``REPRO_*`` name anywhere in ``src/`` — docstrings and
    messages included — minus the ``_REPRO_*_H`` header guards."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names |= set(re.findall(r"(?<![A-Z0-9_])" + KNOB.pattern,
                                path.read_text(encoding="utf-8")))
    return names


def knobs_in_readme_table() -> set[str]:
    names = set()
    for line in (ROOT / "README.md").read_text(encoding="utf-8") \
            .splitlines():
        if line.startswith("| `REPRO_"):
            first_cell = line.split("|")[1]
            names |= set(KNOB.findall(first_cell))
    return names


def test_readme_table_lists_exactly_the_knobs_src_reads():
    read = knobs_read_by_src()
    assert read == knobs_in_readme_table()
    assert len(read) == 18, sorted(read)
    # No docstring or message in src/ names a knob nothing reads.
    assert knobs_mentioned_in_src() <= read
