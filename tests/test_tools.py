"""The code-line counter of tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_code_lines_skip_blank_lines_comments_and_docstrings():
    source = '''"""Module
docstring."""
import math  # a comment on a code line

# a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        over two lines"""
        return math.pi
'''
    # import, class, def, the two lines of ``text`` and the return.
    assert code_lines.code_lines(source) == 6


def test_code_lines_count_a_string_that_is_not_a_docstring():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2
