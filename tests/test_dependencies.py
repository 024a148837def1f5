"""The package imports nothing outside the standard library but numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ecglearn"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "ecglearn"}


def top_level_imports(path: Path) -> set[str]:
    """First component of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_numpy_beyond_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 30
    foreign = {f"{path.relative_to(PACKAGE)}: {name}"
               for path in modules for name in top_level_imports(path) - ALLOWED}
    assert not foreign, sorted(foreign)


def test_walker_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path, scipy.signal as s\n"
                      "from torch import nn\nfrom . import sibling\n"
                      "def f():\n    import pandas\n")
    assert top_level_imports(module) == {"os", "scipy", "torch", "pandas"}
