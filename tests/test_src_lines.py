"""The source line counter in tools/ sorts each line into exactly one kind."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
X = 1  # code with a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is code"""
        return text
'''


def test_every_line_has_one_kind():
    counts = src_lines.count_lines(SOURCE)
    assert counts == {"code": 6, "docstring": 5, "comment": 1, "blank": 4}
    assert sum(counts.values()) == len(SOURCE.splitlines())


def test_the_package_is_counted(capsys):
    assert src_lines.main(["src_lines.py"]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total" and int(total[1]) > 0
