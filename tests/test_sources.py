"""Every module of the package compiles without a warning, and the engine
issues its waves at one site."""

import ast
import pathlib
import warnings

import pytest

import uecc
from uecc import ecsm

SOURCES = sorted(pathlib.Path(uecc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # e.g. an invalid escape such as "\ " in a docstring warns only at compile time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def functions_referencing(tree, name):
    """The enclosing function of every use of `name`, or None at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Name) and child.id == name or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                found.append(inner)
            visit(child, inner)

    visit(tree, None)
    return found


def test_ecsm_executes_waves_only_in_the_seam():
    # `_issue` records and counts what it executes; a wave issued anywhere
    # else in the engine would run without appearing in the trace or cycles
    tree = ast.parse(pathlib.Path(ecsm.__file__).read_text())
    assert functions_referencing(tree, "execute_compiled_wave") == ["_issue"]
