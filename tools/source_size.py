"""Lines, code lines and public module-level symbols of each `src/srlab` module, and their totals.

    python3 tools/source_size.py [PACKAGE_DIR]

Code lines are the lines that hold a token other than a comment, leaving out
blank lines and the docstrings of modules, classes and functions.  A public
symbol is a top-level `def`, `class` or assigned name without a leading
underscore.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def public_symbols(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def code_lines(text: str, tree: ast.Module) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src" / "srlab"
    rows = []
    for p in sorted(package.glob("*.py")):
        text = p.read_text()
        tree = ast.parse(text)
        rows.append((p.name, len(text.splitlines()), code_lines(text, tree), len(public_symbols(tree))))
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    for name, lines, code, symbols in rows:
        print(f"{name:16} {lines:6} lines {code:6} code {symbols:4} public symbols")
