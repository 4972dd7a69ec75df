import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    # a comment line

    def f(self, x):
        """Function
        docstring."""
        text = """not a docstring,
        but a value"""
        return (x,
                text)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path, capsys):
    tool = load_tool()
    # import, class, def, the two lines of the string value, return over two lines
    assert tool.code_lines(FIXTURE) == 7
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     7 a.py", "     1 b.py", "     8 total", ""]
