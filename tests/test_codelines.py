"""`codelines.py` counts the lines that hold code."""

import codelines

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
X = 1  # code with a comment


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        return """a string
that is not a docstring"""
'''


def test_counts_code_not_blanks_comments_or_docstrings(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert codelines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"     5 {path}", f"     5 {path}", "    10 total", ""]
