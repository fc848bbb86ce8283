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


def test_every_exported_name_has_a_caller_outside_the_tests():
    # no test-only API in the package: each exported name is used by another
    # package module (beyond its own def or class) or by the benchmark
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    bench = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))
    assert bench
    bench_text = "\n".join(path.read_text() for path in bench)
    unused = [
        name for name in musenum.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench_text)
    ]
    assert not unused
