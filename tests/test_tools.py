"""Tests for the repository's tools."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_code_lines_skip_comments_blank_lines_and_docstrings():
    source = (
        '"""Module doc."""\n'
        "\n"
        "# a comment\n"
        "x = (1,\n"
        "     2)  # a trailing comment\n"
        "\n"
        "def f():\n"
        '    """Doc\n'
        '    string."""\n'
        '    return """not a\n'
        '    docstring"""\n'
    )
    # code: the two lines of x, the def and the two lines of the returned string
    assert code_lines.count(source) == (11, 5)


def test_code_lines_prints_a_package_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n# note\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\ny = 2\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"4 lines, 2 code lines in 2 files under {tmp_path}\n"
    assert code_lines.main([]) == 2
