"""The code-line counter in tools/ counts exactly the lines holding code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


def f(x):
    """Function docstring."""
    # a comment line
    text = """a string
that is not a docstring"""

    return (x,
            text)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_code_but_not_blank_comment_or_docstring_lines():
    # import, def, text (2 lines), return (2 lines), class, y
    assert code_lines.code_lines(SOURCE) == 8


def test_command_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("total")
