"""Lines and public module-level symbols of each `src/srlab` module, and their totals.

    python3 tools/source_size.py [PACKAGE_DIR]

A public symbol is a top-level `def`, `class` or assigned name without a
leading underscore.  Standard library only.
"""

import ast
import sys
from pathlib import Path


def public_symbols(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


if __name__ == "__main__":
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src" / "srlab"
    rows = [(p.name, len(p.read_text().splitlines()), len(public_symbols(ast.parse(p.read_text()))))
            for p in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for name, lines, symbols in rows:
        print(f"{name:16} {lines:6} lines {symbols:4} public symbols")
