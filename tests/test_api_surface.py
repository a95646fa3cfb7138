"""Every module-level name of the package is reachable from what runs it.

The roots are the names the scripts read, the names the benchmark reads
(in its code and in the traced-name strings of ``bench/tracer.py``) and
``cli.main``.  From them the test closes over the names that each reached
definition mentions; names are matched across modules by identifier, so
the closure can only keep too much, never too little.  A name left over is
read by no script, no benchmark and no command: code that only the tests
read belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "celestial"


def _mentioned(node) -> set[str]:
    """The identifiers a node reads: names, attribute names and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def _package():
    """((module, name) -> defining statement, names read by top-level code that defines nothing).

    Dunder names such as ``__all__`` are left out: the interpreter and
    packaging tools read them, not the package.
    """
    definitions, loose = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue  # an import binds a name; its use is what counts
            else:
                loose |= _mentioned(stmt)
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    definitions[(path.stem, name)] = stmt
    return definitions, loose


def _traced_names() -> set[str]:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets
        ):
            return {part for _, _, path, _ in ast.literal_eval(stmt.value) for part in path.split(".")}
    raise AssertionError("bench/tracer.py defines no TARGETS")


def _roots() -> set[str]:
    roots = {"main"}  # cli.main
    for path in [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "bench").rglob("*.py"))]:
        roots |= _mentioned(ast.parse(path.read_text()))
    return roots | _traced_names()


def _unreachable() -> list[str]:
    definitions, loose = _package()
    names = _roots() | loose
    reached: set[tuple[str, str]] = set()
    while True:
        new = {key for key in definitions if key[1] in names} - reached
        if not new:
            break
        reached |= new
        for key in new:
            names |= _mentioned(definitions[key])
    return sorted(f"{module}.{name}" for module, name in definitions.keys() - reached)


def test_the_traced_names_are_read():
    assert {"rigidity_sample_check", "moebius_pair", "unimodular_equivalent", "Matrix"} <= _traced_names()


def test_every_module_level_name_is_reachable():
    assert _unreachable() == []
