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


def test_base_gives_both_totals_and_the_change_per_module(tmp_path, capsys):
    for root, modules in (("base", {"a.py": "x = 1\ny = 2\n", "gone.py": "z = 3\n"}),
                          ("head", {"a.py": "x = 1\ny = 2\n# c\nw = (4,\n     5)\n",
                                    "new.py": '"""Doc."""\nv = 6\n'})):
        package = tmp_path / root / "src" / "orbitreg"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
    code_lines.main([str(tmp_path / "head"), "--base", str(tmp_path / "base")])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["2", "4", "+2", "a.py"], ["1", "0", "-1", "gone.py"],
                    ["0", "1", "+1", "new.py"], ["3", "5", "+2", "total", "(src)"]]
