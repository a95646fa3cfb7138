"""Every module-level name and every method of the package is read by what runs it.

The roots are the names the scripts read, the names the benchmark reads
(in its code and in the traced-name strings of ``bench/tracer.py``) and
``cli.main``.  From them the test closes over the names that each reached
definition mentions; names are matched across modules by identifier, so
the closure can only keep too much, never too little.  A name left over is
read by no script, no benchmark and no command: code that only the tests
read belongs in ``tests/oracles.py``.  A method or property of a class is
checked the same way, without the closure: its name must be mentioned in
the package outside its own body, or by a script or the benchmark.

One decision also stays inside one module: the prime P and the root S of
-1 that map the Gaussian integers into F_P are named only in ``exact.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "celestial"


def _counted(node) -> Counter:
    """How often a node reads each identifier: names, attribute names and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
    return out


def _mentioned(node) -> set[str]:
    """The identifiers a node reads."""
    return set(_counted(node))


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


def _unread_methods() -> list[str]:
    """Non-dunder methods of package classes that nothing but their own body mentions."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    package = sum((_counted(tree) for tree in trees.values()), Counter())
    outside = _roots()
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if name not in outside and package[name] == _counted(method)[name]:
                    unread.append(f"{module}.{cls.name}.{name}")
    return unread


def test_every_method_is_read_outside_its_body():
    assert _unread_methods() == []


def test_only_the_exact_core_names_the_prime_and_its_root_of_minus_one():
    # another module reaches F_P through exact's helpers, so the map
    # Z[i] -> F_P can change in one place
    named = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "exact.py"
        for name in _counted(ast.parse(path.read_text()))
        if name in ("_P", "_S")
    }
    assert named == set()
