"""scripts/src_lines.py sorts every line of a module into exactly one kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment makes no comment line

# A comment line.
TEXT = """a string that is not a docstring

# with a blank line and a hash inside"""


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        # Another comment line.

        return os.sep


def bare():
    return 1
'''


def load_counter():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "scripts" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_line_has_one_kind():
    assert load_counter().count(SOURCE) == {"total": 24, "code": 9, "docstring": 5, "comment": 2, "blank": 8}


def test_main_sums_files(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SOURCE)
    assert load_counter().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "total code docstring comment blank\n48 18 10 4 16\n"
