"""The library is numpy-only: every module imports the standard library, numpy,
or its own package, and nothing else."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "deformgabor"
MODULES = sorted(PACKAGE.rglob("*.py"))


def top_level_imports(path: Path):
    """(line, top-level module name) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    foreign = [f"{path.name}:{line} imports {name}" for line, name in top_level_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert not foreign, foreign
