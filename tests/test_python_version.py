"""Every module parses as the oldest Python that pyproject.toml admits.

Tier-1 may run on a newer interpreter than the oldest one supported, so a
syntax that only a newer Python reads (``except*``, a ``match`` on an old
grammar, and so on) would pass here and fail there. ``ast.parse`` with
``feature_version`` refuses the syntax that version lacks.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                  (ROOT / "pyproject.toml").read_text()).groups()))
FILES = sorted(path for top in ("src", "tests", "scripts") for path in (ROOT / top).rglob("*.py"))


def test_oldest_python_is_3_10():
    assert OLDEST == (3, 10)


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_a_newer_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
