import ast
import re
import sys
from pathlib import Path

import musenum

PACKAGE = Path(musenum.__file__).parent


def test_package_imports_only_the_standard_library():
    # musenum is pure Python with no dependencies; relative imports stay in the package
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((alias.name, path.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((node.module, path.name))
    assert imported
    outside = {
        (name, where) for name, where in imported if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside


def uses_outside_their_own_def(tree) -> set[str]:
    """The names and attributes a module reads, except those inside a def of the same name."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def package_trees():
    return [
        (path.name, ast.parse(path.read_text(), str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    ]


BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))


def defined_by_the_benchmark() -> set[str]:
    """The names the benchmark defines itself: its defs and classes, their fields and the attributes it assigns."""
    defined = set()
    for path in BENCH:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                fields = [field for field in node.body if isinstance(field, (ast.Assign, ast.AnnAssign))]
                defined.update(
                    t.id for field in fields for t in ast.walk(field)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
    return defined


def used_by_the_benchmark(name: str) -> bool:
    # a name the benchmark defines itself, such as a field of its own, is not a use of the package's
    assert BENCH
    if name in defined_by_the_benchmark():
        return False
    return any(re.search(rf"\b{re.escape(name)}\b", path.read_text()) for path in BENCH)


def test_the_benchmark_uses_the_names_it_imports_or_reads():
    # is_mus is imported and grow_evals read off the map; bench/harness.py's
    # Run.muses is its own field, whatever package name it shares
    assert used_by_the_benchmark("is_mus") and used_by_the_benchmark("grow_evals")
    assert not used_by_the_benchmark("muses")


def test_every_exported_name_has_a_caller_outside_the_tests():
    # no test-only API in the package: each exported name is used by another
    # package module (beyond its own def or class) or by the benchmark
    used = set()
    for name, tree in package_trees():
        if name != "__init__.py":
            used |= uses_outside_their_own_def(tree)
    unused = [name for name in musenum.__all__ if name not in used and not used_by_the_benchmark(name)]
    assert not unused


def test_every_public_method_has_a_caller_outside_the_tests():
    # the same for each public method and property of a package class: a
    # caller in package code other than its own definition, or in the benchmark
    used = set()
    public = []
    for _, tree in package_trees():
        used |= uses_outside_their_own_def(tree)
        public += [
            (cls.name, node.name)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
        ]
    assert len(public) > 20
    unused = [f"{cls}.{name}" for cls, name in public if name not in used and not used_by_the_benchmark(name)]
    assert not unused
