import ast
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
