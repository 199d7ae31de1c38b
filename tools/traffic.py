"""The `src/srlab` functions and statements that the benchmark workloads and the
acceptance criteria never execute.

    python3 tools/traffic.py [REPO_DIR]

In one process under `sys.settrace`, it imports the package, runs each
workload of `perfbench/workloads.py` at seed 0 (its `run` only, writing into a
temporary directory) and then each `test_criterion_N` of
`tests/test_acceptance.py`, in their order.  It then prints, one per line,
every named function whose code never ran as `function FILE:LINE QUALNAME`,
and every statement that never ran inside a function that did run (or at
module level) as `statement FILE:FIRST[-LAST]`, with runs of adjacent unexecuted
statements joined; the count of each comes last.  A statement counts as run
when any line of its own, not of its body, executed.  Nothing in the
repository is written, bytecode caches included.  Standard library only;
about 17 s on a 2-core machine.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import re
import sys
import tempfile
import threading
from pathlib import Path


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _code_objects(const)


def _own_lines(node: ast.stmt) -> range:
    """A statement's lines without those of the statements in its body."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(first, last + 1)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def record(repo: Path):
    """(called code keys, executed (file, line) pairs) of the package's frames."""
    package = str((repo / "src" / "srlab").resolve())
    calls, lines = set(), set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        calls.add((code.co_filename, code.co_firstlineno, code.co_qualname))
        return local

    sys.dont_write_bytecode = True
    for sub in ("src", "perfbench", "tests"):
        sys.path.insert(0, str(repo / sub))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
            workloads = importlib.import_module("workloads")
            for name, w in workloads.WORKLOADS.items():
                (Path(tmp) / name).mkdir()
                w.run(w.inputs(0), Path(tmp) / name)
            criteria = importlib.import_module("test_acceptance")
            tests = [(int(m.group(1)), f) for n, f in vars(criteria).items()
                     if (m := re.match(r"test_criterion_(\d+)_", n))]
            for number, test in sorted(tests, key=lambda item: item[0]):
                workdir = Path(tmp) / f"criterion{number}"
                workdir.mkdir()
                test(**({"tmp_path": workdir}
                        if "tmp_path" in inspect.signature(test).parameters else {}))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return calls, lines


def report(repo: Path, calls: set, lines: set) -> list[str]:
    out, n_functions, n_statements = [], 0, 0
    for path in sorted((repo / "src" / "srlab").resolve().glob("*.py")):
        name, text = str(path), path.read_text()
        code = compile(text, name, "exec")
        has_code = {line for c in _code_objects(code) for _, _, line in c.co_lines() if line}
        unrun = {}   # first line of a never-called function -> its qualname
        for c in _code_objects(code):
            if c is not code and not c.co_name.startswith("<") and (
                    (name, c.co_firstlineno, c.co_qualname) not in calls):
                unrun[c.co_firstlineno] = c.co_qualname
                out.append(f"function {path.name}:{c.co_firstlineno} {c.co_qualname}")
        n_functions += len(unrun)

        nodes = list(ast.walk(ast.parse(text)))
        skipped = set()   # the lines below the `def` line of never-called functions
        for node in nodes:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _own_lines(node).start in unrun):
                skipped.update(range(node.lineno + 1, node.end_lineno + 1))
        statements = sorted((_own_lines(n) for n in nodes
                             if isinstance(n, ast.stmt) and not _is_docstring(n)),
                            key=lambda r: r.start)
        spans, adjacent = [], False   # [first, last] of runs of adjacent unexecuted statements
        for own in statements:
            executable = [ln for ln in own if ln in has_code and ln not in skipped]
            if not executable:
                continue
            if any((name, ln) in lines for ln in executable):
                adjacent = False
                continue
            n_statements += 1
            if adjacent:
                spans[-1][1] = own.stop - 1
            else:
                spans.append([own.start, own.stop - 1])
            adjacent = True
        out += [f"statement {path.name}:{a}" + (f"-{b}" if b > a else "") for a, b in spans]
    out.append(f"{n_functions} functions and {n_statements} statements never run")
    return out


if __name__ == "__main__":
    repo = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    print("\n".join(report(repo, *record(repo))))
