"""
The code-line counter behind the line counts in ROADMAP.md, fed a small
synthetic module.
"""
import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).parent.parent / ".github" / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
counter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counter)

MODULE = '''"""
A module docstring
over three lines.
"""
import math  # a trailing comment keeps its line

# a comment line


class Box:
    """One-line class docstring."""

    size = 1


def area(r):
    """
    A function docstring.
    """
    return math.pi * max(
        r,
        0,
    )


NOTE = """a string that is
not a docstring"""
'''
# import, class, size, def, return and its two argument lines and closing
# parenthesis, and both lines of NOTE.
CODE_LINES = 10


def test_a_synthetic_module_counts_only_its_code_lines():
    assert counter.code_lines(MODULE) == CODE_LINES


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert counter.main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [str(CODE_LINES), "1", str(CODE_LINES + 1)]
    assert lines[-1].endswith("total")


def test_no_path_is_a_usage_error(capsys):
    assert counter.main(["code_lines.py"]) == 2
    assert "usage" in capsys.readouterr().err
