"""The statements of the package that a fixed traffic of runs never enters.

The traffic is what the CLI and the benchmark run:

- ``check --report`` and ``dump-mesh`` on every fixture of ``fixtures``,
  ``tests/data`` and ``perfbench/data``;
- ``study`` of sin, gauss and poly at q = 1, 2 and inf on a quadratic
  corner family of two steps, 4 and 8 cells per direction;
- one call of each benchmark workload of ``perfbench/workloads.py``.

Run as ``PYTHONPATH=src python -m tests.traffic`` from the repository root.
It runs the traffic under a line tracer and prints, per function of
``src/hiersplines``, the first lines of the statements that no run
enters, then their count. A statement counts as entered when a line event
falls on one of its own lines: every line of a simple statement, the
header of a compound one. Docstrings, ``global``/``nonlocal`` and ``try``
headers make no line event and are not listed. The package is imported
before the tracer starts, so a statement that runs only at import, such
as the body of the decorator that registers the invariant checks, is
listed too.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Iterator

from hiersplines import cli
from hiersplines.fixtures import Fixture, write_fixture
from hiersplines.hierarchy import SubdomainHierarchy
from hiersplines.tensor import build_level_sequence, iter_box
from hiersplines.univariate import uniform_open_knot_vector

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "hiersplines"
FIXTURE_FILES = [p for d in ("fixtures", "tests/data", "perfbench/data")
                 for p in sorted((REPO / d).glob("*.json"))]
STUDIES = [(f, q) for f in ("sin", "gauss", "poly") for q in ("1", "2", "inf")]

Run = tuple[str, Callable[[], object]]


def _cli(*argv: str) -> Callable[[], object]:
    return lambda: cli.main(list(argv))


def _corner_family(directory: Path) -> Path:
    family = directory / "family"
    family.mkdir(exist_ok=True)
    for s, n in enumerate((4, 8)):
        levels = build_level_sequence([uniform_open_knot_vector(2, n)] * 2, 3)
        box = list(iter_box([range(n // 2)] * 2))
        write_fixture(Fixture(f"corner_s{s}", 2, (2, 2), levels,
                              SubdomainHierarchy.from_cells([box, box]), "dyadic"),
                      family / f"corner_s{s}.json")
    return family


def _workload(workload, directory: Path) -> Callable[[], object]:
    def run():
        workload.make_inputs(1, directory)
        return workload.call(directory)
    return run


def runs(directory: Path) -> Iterator[Run]:
    """The traffic as named runs, their outputs written under ``directory``."""
    for path in FIXTURE_FILES:
        name = f"{path.parent.name}/{path.stem}"
        yield f"check {name}", _cli("check", str(path), "--report", str(directory / "check.json"))
        yield f"dump-mesh {name}", _cli("dump-mesh", str(path), "--out",
                                        str(directory / "mesh.json"))
    family = _corner_family(directory)
    for f, q in STUDIES:
        yield f"study {f} q={q}", _cli("study", str(family), "--f", f, "--q", q, "--csv",
                                       str(directory / "study.csv"), "--report",
                                       str(directory / "study.json"))
    sys.path.insert(0, str(REPO))
    try:
        from perfbench import workloads
    finally:
        sys.path.remove(str(REPO))
    for name, workload in workloads.WORKLOADS.items():
        place = directory / name
        place.mkdir(exist_ok=True)
        yield f"workload {name}", _workload(workload, place)


def entered_lines(traffic: Iterator[Run]) -> dict[Path, set[int]]:
    """Per module of the package, the lines on which a run made a line
    event; what the runs print is dropped."""
    files: dict[str, Path | None] = {}
    hits: dict[Path, set[int]] = {p: set() for p in PACKAGE.glob("*.py")}

    def module(filename: str) -> Path | None:
        if filename not in files:
            path = Path(filename).resolve()
            files[filename] = path if path in hits else None
        return files[filename]

    def local(frame, event, arg):
        if event == "line":
            hits[module(frame.f_code.co_filename)].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if module(frame.f_code.co_filename) is not None else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        for _, run in traffic:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return hits


def _own_lines(node: ast.stmt) -> range:
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, max(body[0].lineno, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def _listed(node: ast.stmt, parent: ast.AST) -> bool:
    docstring = isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and node is parent.body[0] and isinstance(node, ast.Expr) \
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    return not docstring and not isinstance(node, (ast.Global, ast.Nonlocal, ast.Try))


def statements(path: Path) -> dict[str, list[tuple[int, range]]]:
    """Per function of a module, by qualified name, each statement's first
    line and own lines; nested functions are functions of their own."""
    out: dict[str, list[tuple[int, range]]] = {}

    def visit(node: ast.AST, prefix: str, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                visit(child, name + ".", None if isinstance(child, ast.ClassDef) else name)
            elif isinstance(child, ast.stmt):
                if function is not None and _listed(child, node):
                    out.setdefault(function, []).append((child.lineno, _own_lines(child)))
                visit(child, prefix, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", None)
    return out


def unentered(traffic: Iterator[Run]) -> dict[tuple[str, str], list[int]]:
    """Per (module file name, function) with any, the first lines of the
    statements that no run of ``traffic`` enters."""
    hits = entered_lines(traffic)
    out = {}
    for path in sorted(hits):
        for function, stmts in statements(path).items():
            missed = [first for first, own in stmts if not hits[path].intersection(own)]
            if missed:
                out[(path.name, function)] = missed
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        missed = unentered(runs(Path(tmp)))
    for (module, function), lines in missed.items():
        print(f"{module} {function}: {', '.join(map(str, lines))}")
    print(f"{sum(map(len, missed.values()))} statements in {len(missed)} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
