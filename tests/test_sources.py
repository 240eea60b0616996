"""Every module of the package compiles without a warning, the engine
issues its waves and charges their products at one site, each wave runs as
generated straight-line code from the package's one code generator, the
trace printer renders no line itself, and every seam the benchmark wraps
exists."""

import ast
import importlib
import pathlib
import warnings

import pytest

import uecc
from uecc import cli, ecsm, ffau, perf, program
from uecc.field import CurveId, fe

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


def test_ecsm_charges_products_only_in_the_seam():
    # `_issue` charges each issued program's products; a charge anywhere else
    # in the engine could drift from the products the waves execute
    tree = ast.parse(pathlib.Path(ecsm.__file__).read_text())
    assert functions_referencing(tree, "counters") == ["_issue"]


def test_the_wave_kernels_are_the_only_generated_code():
    # `field` holds each curve's arithmetic as text and generates nothing;
    # `ffau.compile_ops` is the one place that turns text into code
    sites = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for name in ("exec", "compile"):
            for func in functions_referencing(tree, name):
                sites.setdefault(name, []).append((path.stem, func))
    assert sites == {"exec": [("ffau", "compile_ops")], "compile": [("ffau", "compile_ops")]}


def test_the_trace_printer_renders_no_line():
    # each event's line is rendered once, in `perf`, when its program's events
    # are built; a per-event loop or f-string here would render every line of
    # every traced run again
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    (printer,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_print_trace"]
    per_line = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                ast.JoinedStr)
    assert not [type(node).__name__ for node in ast.walk(printer) if isinstance(node, per_line)]


def every_compiled_wave():
    """(curve, compiled wave) for every wave of every program the engine issues."""
    programs = [ecsm._INIT[c] for c in CurveId] + [ecsm._FINAL[c] for c in CurveId]
    for curve in CurveId:
        programs.append(program.build_inversion_program(curve))
        programs += [program.build_ladder_program(curve, dpa) for dpa in (False, True)]
    return [(prog.curve, ops) for prog in programs for ops in prog.compiled()]


def test_wave_kernels_are_straight_line_and_built_once_per_distinct_wave():
    waves = every_compiled_wave()
    distinct = {(curve, tuple(ops)) for curve, ops in waves}
    # one kernel per curve and distinct op tuple, not one per wave: that caps the set-up cost
    assert len({id(ops.kernel) for _, ops in waves}) == len(distinct) == 50
    for curve, ops in distinct:
        (kernel,) = ast.parse(ffau.kernel_source(ops, curve)).body
        assert isinstance(kernel, ast.FunctionDef)
        assert all(isinstance(stmt, ast.Assign) for stmt in kernel.body), ops
        nodes = list(ast.walk(kernel))
        assert not any(isinstance(node, (ast.If, ast.IfExp, ast.BoolOp)) for node in nodes), ops
        # a comparison only as the mask of each op's one masked subtraction,
        # x - (p & -(x >= p)), where it selects a value, never a path
        masks = {id(node.operand) for node in nodes
                 if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                 and isinstance(node.operand, ast.Compare)
                 and [type(op) for op in node.operand.ops] == [ast.GtE]}
        compares = {id(node) for node in nodes if isinstance(node, ast.Compare)}
        assert compares == masks and len(masks) == len(ops), ops
        # the products are inline: the only call is the unit, once per product charged
        calls = [node.func for node in nodes if isinstance(node, ast.Call)]
        assert all(isinstance(f, ast.Name) and f.id == "kar256_int" for f in calls), ops
        assert len(calls) == perf.products(program.ScheduledProgram((ffau.Wave(ops),), "ladder", curve))


def tracer_install_targets():
    """(module, attribute) of every binding `perfbench/tracer.py`'s
    `Tracer.install` replaces, read from its `(m.<module>, "<attribute>", ...)`
    tuples."""
    tree = ast.parse((pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    (install,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "install"]
    return [(node.elts[0].attr, node.elts[1].value) for node in ast.walk(install)
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2
            and isinstance(node.elts[0], ast.Attribute) and isinstance(node.elts[1], ast.Constant)]


def test_every_seam_the_benchmark_wraps_exists():
    # the traced benchmark run replaces these names; one that is gone fails
    # here, not only in the benchmark's own smoke test
    targets = tracer_install_targets()
    assert targets, "no (m.<module>, <attribute>) target found in Tracer.install"
    for module, attr in targets:
        assert hasattr(importlib.import_module(f"uecc.{module}"), attr), (module, attr)
    assert callable(program.ScheduledProgram.compiled.cache_info)


def test_executed_waves_are_the_programs_compiled_waves(monkeypatch):
    # the traced benchmark run tells phases apart by these identities and equalities
    by_id = {id(ops) for _, ops in every_compiled_wave()}
    init = {w.compiled() for w in ecsm.INIT_WAVES}
    executed = []
    real = ecsm.execute_compiled_wave

    def execute_compiled_wave(regs, ops, curve):
        executed.append(ops)
        return real(regs, ops, curve)

    monkeypatch.setattr(ecsm, "execute_compiled_wave", execute_compiled_wave)
    for curve in CurveId:
        cfg = ecsm.EcsmConfig(dpa_enabled=True, prng_seed=(bytes(10), bytes(10)))
        ecsm.scalar_mult(ecsm.Scalar(5, curve), fe(9, curve), cfg)
    assert executed and all(id(ops) in by_id for ops in executed)
    assert sum(ops in init for ops in executed) == 2 * len(init)
    assert sum(ops == ecsm.FINAL_WAVE.compiled() for ops in executed) == 2
