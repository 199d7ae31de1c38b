"""tools/source_size.py: lines, code lines and public symbols of a small package."""

import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "source_size.py"


def test_counts_lines_and_public_symbols(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Doc."""\nimport os\n\nX = 1\n_Y = 2\nZ: int = 3\n\n\n'
        'def f():\n    """Two\n    lines."""\n    # a comment\n    inner = 1  # kept\n\n\n'
        "def _g():\n    pass\n\n\nclass C:\n    attr = 1\n")
    (tmp_path / "b.py").write_text('__all__ = []\n_S = """a\nb"""\n')
    proc = subprocess.run([sys.executable, str(_PATH), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    # X, Z, f and C are public; _Y, _g, os, inner, attr, __all__ and _S are not.
    # Docstrings, the comment line and blank lines are not code; a string
    # that is not a docstring is
    assert rows == [["a.py", "21", "lines", "10", "code", "4", "public", "symbols"],
                    ["b.py", "3", "lines", "3", "code", "0", "public", "symbols"],
                    ["total", "24", "lines", "13", "code", "4", "public", "symbols"]]


def _package_total():
    """The `total` row of `src/srlab`: ["total", lines, "lines", code, "code", symbols, ...]."""
    proc = subprocess.run([sys.executable, str(_PATH), str(_PATH.parents[1] / "src" / "srlab")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    total = proc.stdout.splitlines()[-1].split()
    assert total[0] == "total", proc.stdout
    return total


def test_package_public_symbols_within_budget():
    """`src/srlab` keeps at most 77 public module-level symbols."""
    assert int(_package_total()[5]) <= 77


def test_package_lines_within_budget():
    """`src/srlab` keeps at most 2,625 lines.  A change that must exceed the
    budget raises it here and names the removal that pays the lines back."""
    assert int(_package_total()[1]) <= 2625
