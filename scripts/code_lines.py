"""Code lines per module of the ``orbitreg`` package, and their total.

    python3 scripts/code_lines.py [DIR] [--base BASE]

A code line is a physical line that holds at least one token of code:
blank lines, comment lines and the lines of docstrings (the leading
string of a module, class or function) are not counted.  A line that
continues a statement, such as the second line of a call's arguments,
counts.  ``DIR`` is the checkout to count (default: this one); the
modules read are ``DIR/src/orbitreg/*.py``.  With ``--base BASE``, a
second checkout (say, the commit a change starts from), each line gives
the module's count in ``BASE``, in ``DIR`` and the change, and the last
line the two totals and theirs; a module missing on one side counts 0.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def module_counts(root: Path) -> dict[str, int]:
    """Code lines of each module of the checkout ``root``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((root / "src" / "orbitreg").glob("*.py"))}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT,
                        help="the checkout to count (default: this one)")
    parser.add_argument("--base", type=Path,
                        help="a checkout to compare with: print its counts and the change")
    args = parser.parse_args(argv)
    counts = module_counts(args.root)
    if args.base is None:
        for name, count in counts.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total (src)")
        return
    base = module_counts(args.base)
    for name in sorted(counts.keys() | base.keys()):
        old, new = base.get(name, 0), counts.get(name, 0)
        print(f"{old:6d} {new:6d} {new - old:+6d}  {name}")
    old, new = sum(base.values()), sum(counts.values())
    print(f"{old:6d} {new:6d} {new - old:+6d}  total (src)")


if __name__ == "__main__":
    main()
