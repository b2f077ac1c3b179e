"""The package's public surface: every exported name exists, and the
package needs nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import knotpoly


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from knotpoly import *", namespace)
    for name in knotpoly.__all__:
        assert name in namespace, name
        assert hasattr(knotpoly, name), name
    assert len(set(knotpoly.__all__)) == len(knotpoly.__all__)


def test_package_imports_only_itself_and_the_standard_library():
    # a new runtime dependency fails here whatever the machine has
    # installed; only package-relative imports and stdlib modules pass
    src = Path(knotpoly.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name} imports {name}"
