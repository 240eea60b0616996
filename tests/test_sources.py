"""Every module of the package compiles without a warning, the engine
issues its waves at one site, and each wave runs as generated straight-line
code."""

import ast
import pathlib
import warnings

import pytest

import uecc
from uecc import ecsm, ffau, program
from uecc.field import CurveId

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


def every_compiled_wave():
    programs = [ecsm._INIT[c] for c in CurveId] + [ecsm._FINAL[c] for c in CurveId]
    for curve in CurveId:
        programs.append(program.build_inversion_program(curve))
        programs += [program.build_ladder_program(curve, dpa) for dpa in (False, True)]
    return [ops for prog in programs for ops in prog.compiled()]


def test_wave_kernels_are_straight_line_and_built_once_per_distinct_wave():
    waves = every_compiled_wave()
    distinct = {tuple(ops) for ops in waves}
    # one kernel per distinct op tuple, not one per wave: that caps the set-up cost
    assert len({id(ops.kernel) for ops in waves}) == len(distinct) == 40
    branching = (ast.If, ast.IfExp, ast.Compare, ast.BoolOp)
    for ops in distinct:
        (kernel,) = ast.parse(ffau.kernel_source(ops)).body
        assert isinstance(kernel, ast.FunctionDef)
        assert all(isinstance(stmt, ast.Assign) for stmt in kernel.body), ops
        assert not any(isinstance(node, branching) for node in ast.walk(kernel)), ops
