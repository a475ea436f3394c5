"""The code-line counter quoted by changes that delete code."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
x = (1,
     2)  # a continuation line counts, its comment does not


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return "not a docstring"
'''


def test_counts_code_lines_only():
    # x = (1, / 2) / class A: / def f(self): / return ...
    assert code_lines.code_lines(SOURCE) == 5


def test_every_module_of_the_package_is_counted(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["code_lines.py"])
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in (SCRIPT.parents[1] / "src" / "orbitreg").glob("*.py"))
    assert [line.split()[1] for line in lines[:-1]] == modules
    assert lines[-1].split()[0] == str(sum(int(line.split()[0]) for line in lines[:-1]))
