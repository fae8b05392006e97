"""The runtime imports only the standard library and numpy.

scipy, mpmath and hypothesis are test oracles; a runtime import of any of
them would need a visible edit to this file and to pyproject.toml.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "privaudit"
ROOT_PYPROJECT = SRC.parent.parent / "pyproject.toml"
RUNTIME_PACKAGES = {"numpy", "privaudit"}


def _imported_top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_stdlib_and_numpy(path):
    foreign = {n for n in _imported_top_level_names(path)
               if n not in sys.stdlib_module_names and n not in RUNTIME_PACKAGES}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(ROOT_PYPROJECT.read_text())["project"]
    names = [re.match(r"[\w.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_data_imports_no_other_privaudit_module():
    # the checking, encoding and binning rules sit below every other layer
    tree = ast.parse((SRC / "data.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not [n for n in imports if isinstance(n, ast.ImportFrom) and n.level > 0]
    assert "privaudit" not in _imported_top_level_names(SRC / "data.py")
