"""Every module of the package compiles without a warning, the engine
issues its waves and charges their products at one site, the reference
imports no model code, only `ffau` reads the register count,
`selftest` issues each whole program through the engine's seam, only the
engine and the published table build a cycle report, each wave runs as
generated straight-line code from the package's one code generator, which
alone composes `field`'s product and fold text, every kernel keeps the
registers canonical for every input (an interval proof), no scalar-derived
value reaches the engine's control flow or its issue log (a taint check),
the trace printer renders no line itself, every seam the benchmark wraps
exists, importing the package loads neither `dataclasses` nor
`inspect`, and a record's `_replace` and `_make` check their fields as its
constructor does."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import uecc
from uecc import cli, ecsm, ffau, field, program, reference, selftest
from uecc.field import PARAMS, CurveId

from spec import programs

SOURCES = sorted(pathlib.Path(uecc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # e.g. an invalid escape such as "\ " in a docstring warns only at compile time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=("site", "no-site"))
def test_import_loads_neither_dataclasses_nor_inspect(flags):
    # the records are namedtuples: importing `dataclasses`, which imports
    # `inspect`, and decorating the records was most of a cold start's set-up
    code = ("import sys; import uecc, uecc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(pathlib.Path(uecc.__file__).parents[1])
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("record, field, value, message", [
    (ffau.mul_op(0, 1, 2), "dst", 99, "dst address 99 out of range"),
    (ffau.Wave((ffau.mul_op(0, 1, 2),)), "ops", (), "wave must hold 1-4 ops"),
    (ecsm.CycleReport(1, 2, 3, 4), "prng_cycles", -5, "prng_cycles must be non-negative"),
    (ecsm.Scalar(1, CurveId.CURVE25519), "bits", 1 << 255, "scalar out of range"),
    (ecsm.EcsmConfig(), "dpa_enabled", True, "dpa_enabled requires a prng_seed"),
], ids=("QuadOpInstruction", "Wave", "CycleReport", "Scalar", "EcsmConfig"))
def test_replace_and_make_check_like_the_constructor(record, field, value, message):
    # namedtuple's own `_make` builds the tuple without `__new__`, and
    # `_replace` builds through `_make`
    fields = {**record._asdict(), field: value}
    with pytest.raises(ValueError, match=message):
        record._replace(**{field: value})
    with pytest.raises(ValueError, match=message):
        type(record)._make(fields.values())


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


def package_imports(module):
    """(module, name) for each name a package module imports from the package."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "uecc"):
            found |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "uecc"}
    return found


def test_the_reference_imports_no_model_code():
    # the reference states RFC 7748's constants itself, so a wrong model
    # constant cannot move the oracle along with the model
    assert package_imports(reference) == {("field", "CurveId")}


def test_only_the_engine_and_the_literal_table_build_a_cycle_report():
    # `ecsm.scalar_mult` is the one model of an ECSM's cycles and
    # `selftest.DESIGN` the one statement of the published decomposition; a
    # report built anywhere else would be a second model to keep in step
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    sites = {(stem, func) for stem, tree in trees.items()
             for func in functions_referencing(tree, "CycleReport")}
    assert sites == {("ecsm", "scalar_mult"), ("selftest", None)}
    (design,) = [node for node in trees["selftest"].body if isinstance(node, ast.Assign)
                 and [ast.unparse(target) for target in node.targets] == ["DESIGN"]]
    assert (len(functions_referencing(design, "CycleReport"))
            == len(functions_referencing(trees["selftest"], "CycleReport")))


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


def test_only_kernel_source_composes_the_curve_text():
    # `field` holds each curve's product and fold as data, defined at module
    # level and composed by none of its functions; one function lays out
    # every kernel, so its layout and its local names are decided in one place
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    for name in ("PRIME", "PRODUCT", "PRODUCT_A24", "SPLIT448"):
        sites = [(stem, func) for stem, tree in trees.items()
                 for func in functions_referencing(tree, name)]
        assert sites == [("ffau", "kernel_source"), ("field", None)], name


def test_only_ffau_and_program_read_the_multiplier_array():
    # the array is stated once, in `ffau`, and read by the issue rule and the
    # product charge; a count of units or slots anywhere else could drift
    # from the waves that issue
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    for name in ("MULTIPLIERS", "UNITS"):
        stems = {stem for stem, tree in trees.items() if functions_referencing(tree, name)}
        assert "ffau" in stems and stems <= {"ffau", "program"}, name


def names_in(node):
    """Every name and attribute name that occurs in `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_only_ffau_states_the_register_file():
    # `ffau.registers` lays out the register list; a module that read the
    # register count could lay it out a second way, which could drift
    modules = [uecc] + [importlib.import_module(f"uecc.{path.stem}")
                        for path in SOURCES if path.stem != "__init__"]
    assert not [(m.__name__, name) for m in modules for _, name in package_imports(m)
                if name == "NUM_REGISTERS"]
    assert {path.stem for path in SOURCES if "NUM_REGISTERS" in names_in(ast.parse(path.read_text()))
            } == {"ffau"}


def test_selftest_issues_whole_programs_through_the_engine():
    # the checks run a whole program through `ecsm._issue`, the engine's own
    # issue loop; a loop of checked waves over a program would be a copy of it
    tree = ast.parse(pathlib.Path(selftest.__file__).read_text())
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    loops = [node for node in ast.walk(tree)
             if isinstance(node, ast.For) and "waves" in names_in(node.iter)
             or isinstance(node, comprehensions)
             and any("waves" in names_in(gen.iter) for gen in node.generators)]
    assert not [ast.unparse(loop) for loop in loops if "execute_wave" in names_in(loop)]
    assert {"inversion", "ladder"} <= set(functions_referencing(tree, "_issue"))


def test_the_trace_printer_renders_no_line():
    # the trace is its text, rendered once per issue log in `ecsm._trace`; a
    # per-line loop or f-string here would render every line of every traced
    # run again
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    (printer,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_print_trace"]
    per_line = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                ast.JoinedStr)
    assert not [type(node).__name__ for node in ast.walk(printer) if isinstance(node, per_line)]


def every_compiled_wave():
    """(curve, compiled wave) for every wave of every program the engine issues."""
    return [(curve, ops) for curve in CurveId for prog in programs(curve).values()
            for ops in prog.compiled()]


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
        assert not any(isinstance(node, (ast.If, ast.IfExp, ast.BoolOp, ast.Compare))
                       for node in nodes), ops
        # each op ends in the one `% p` that writes its destination
        mods = [ast.unparse(node.right) for node in nodes
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
        assert mods == [field.PRIME[curve]] * len(ops), ops
        # the products are inline: the only call is the unit, once per product charged
        calls = [node.func for node in nodes if isinstance(node, ast.Call)]
        assert all(isinstance(f, ast.Name) and f.id == "kar256_int" for f in calls), ops
        assert len(calls) == program.ScheduledProgram((ffau.Wave(ops),), "ladder", curve).products


def kernel_bounds(source, curve):
    """Prove one wave kernel's bounds for every input, by interval analysis
    (Cousot & Cousot, POPL 1977): with every register in [0, p-1] (the zero
    source [0, 0]), each unit operand is in [0, 2^256), each `x % P` sees a
    dividend in [0, 2^30 p), so that its quotient is one 30-bit digit and a
    dropped fold fails the proof, and yields [0, p-1], and each register
    write lands in [0, p-1].  Names of `field` are its values.  Any other
    form fails the proof with AssertionError."""
    p = PARAMS[curve].p
    (kernel,) = ast.parse(source).body
    assert ast.unparse(kernel.args) == "r", ast.unparse(kernel.args)
    env = {}

    def span(node):
        match node:
            case ast.Constant(int(c)):
                return c, c
            case ast.Name(name) if name in env:
                return env[name]
            case ast.Name(name) if type(c := vars(field).get(name)) is int:
                return c, c
            case ast.Subscript(ast.Name("r"), ast.Constant(int(i))) if 0 <= i <= ffau.ZERO:
                return (0, 0) if i == ffau.ZERO else (0, p - 1)
            case ast.Call(ast.Name("kar256_int"), [a, b], []):
                (alo, ahi), (blo, bhi) = span(a), span(b)
                assert 0 <= alo and 0 <= blo and ahi >> 256 == bhi >> 256 == 0, \
                    f"unit operand {max(ahi, bhi).bit_length()} bits: {ast.unparse(node)}"
                return alo * blo, ahi * bhi
            case ast.BinOp(x, ast.Mod(), P) if span(P) == (p, p):
                lo, hi = span(x)
                assert 0 <= lo and hi < p << 30, f"dividend {hi.bit_length()} bits, not < 2^30 p"
                return 0, p - 1
            case ast.BinOp(left, ast.Add() | ast.Sub() as op, right):
                (alo, ahi), (blo, bhi) = span(left), span(right)
                return (alo + blo, ahi + bhi) if isinstance(op, ast.Add) else (alo - bhi, ahi - blo)
            case ast.BinOp(left, op, right):
                (alo, ahi), (blo, bhi) = span(left), span(right)
                assert 0 <= alo and 0 <= blo, f"negative operand: {ast.unparse(node)}"
                if isinstance(op, ast.Mult):
                    return alo * blo, ahi * bhi
                if isinstance(op, ast.RShift):
                    return alo >> bhi, ahi >> blo
                if isinstance(op, ast.LShift):
                    return alo << blo, ahi << bhi
                if isinstance(op, ast.BitAnd) and blo == bhi and bhi & (bhi + 1) == 0:
                    return 0, min(ahi, bhi)  # a constant mask 2^k - 1
        raise AssertionError(f"no rule for {ast.unparse(node)}")

    for stmt in kernel.body:
        match stmt:
            case ast.Assign([ast.Name(name)], value):
                env[name] = span(value)
            case ast.Assign([ast.Subscript(ast.Name("r"), ast.Constant(int(i)))], value) \
                    if 0 <= i < ffau.NUM_REGISTERS:
                lo, hi = span(value)
                assert 0 <= lo and hi < p, f"r[{i}] written outside [0, p-1]"
            case _:
                raise AssertionError(f"no rule for {ast.unparse(stmt)}")


DISTINCT_KERNELS = sorted({(curve.value, tuple(ops)) for curve, ops in every_compiled_wave()})


@pytest.mark.parametrize("curve, ops", DISTINCT_KERNELS,
                         ids=[f"{curve}-{i:02d}" for i, (curve, _) in enumerate(DISTINCT_KERNELS)])
def test_kernel_bounds_hold_for_every_input(curve, ops):
    # the bound comments in `field` become a theorem: each kernel keeps every
    # register canonical, and every load is canonical, so by induction every
    # register is canonical at every cycle
    kernel_bounds(ffau.kernel_source(ops, CurveId(curve)), CurveId(curve))


C25519, C448 = CurveId.CURVE25519, CurveId.CURVE448


@pytest.mark.parametrize("curve, old, new, message", [
    (C25519, "    x = (x & _M255) + 19 * (x >> 255)\n", "", "dividend 510 bits"),
    (C448, "h1 = h >> 224\n    x = p11 + p00 + h1 + (((h & _M224) + h1) << 224)",
     "x = p11 + p00 + (h << 224)", "dividend 674 bits"),
    (C25519, "x % P25519", "x", r"r\[2\] written outside"),
    (C448, "x % P448", "x % P25519", "no rule"),
    (C448, " >> ", " // ", "no rule"),
], ids=("25519-no-fold", "448-no-fold", "no-modulo", "wrong-prime", "unknown-form"))
def test_kernel_bounds_reject_a_broken_kernel(curve, old, new, message):
    # the proof can fail: each edit of the r2 <- r0 x r1 kernel breaks a bound
    source = ffau.kernel_source((ffau.mul_op(0, 1, 2),), curve)
    assert old in source
    with pytest.raises(AssertionError, match=message):
        kernel_bounds(source.replace(old, new, 1), curve)


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


# The scalar's sources in each engine function: `_issue`'s `k`, the masked
# swap's bit, and the `Scalar`'s bits in `scalar_mult` (its `curve` is public).
SCALAR_SOURCES = {"_issue": {"k"}, "_cswap_running_pairs": {"swap_bit"}, "scalar_mult": {"k.bits"}}


def scalar_taint(source):
    """Where a scalar-derived value in the engine functions of `source` (the
    `ecsm` module text) reaches the control flow or the issue log, after
    ct-verif's rule (Almeida et al., USENIX Security 2016): neither control
    flow nor memory indices may depend on a secret.  A name assigned from a
    tainted expression is tainted, so `k` taints `swaps`, and `swap_bit`
    taints `mask` and `d`.  No tainted value may reach a branch or loop
    test, a comparison, a loop iterable, a subscript index, a return value
    (the cycles issued) or a call, except as the argument of one of
    SCALAR_SOURCES' own parameters, whose function is checked with it
    tainted.  The issue log, which the trace is built from, is written by a
    call, so nothing tainted reaches it.  A register write `regs[i] ^= d`
    taints the stored value, not `i`: register values are data, which the
    kernels handle straight-line (tested above), and reads of them are not
    tracked.  `Scalar.__new__`'s range check is input validation, and the
    decoding functions are outside the engine."""
    funcs = {node.name: node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and node.name in SCALAR_SOURCES}
    params = {name: [a.arg for a in func.args.args] for name, func in funcs.items()}
    found = []
    for name, func in funcs.items():
        tainted = set(SCALAR_SOURCES[name])

        def dirty(node):
            if node is None:
                return False
            if isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in tainted:
                return True
            if isinstance(node, ast.Call) and ast.unparse(node.func) in SCALAR_SOURCES:
                return False  # its arguments are checked below, and its returns are
            return any(dirty(child) for child in ast.iter_child_nodes(node))

        grown = True
        while grown:  # flow-insensitive: taint every name assigned a tainted value
            before = len(tainted)
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr)) \
                        and dirty(node.value):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    # `regs[i] ^= d` stores to no name: `regs` and `i` are loads
                    tainted |= {ast.unparse(n) for t in targets for n in ast.walk(t)
                                if isinstance(n, (ast.Name, ast.Attribute))
                                and isinstance(n.ctx, ast.Store)}
            grown = len(tainted) > before

        def reject(what, node):
            found.append(f"{name}: scalar reaches {what}: {ast.unparse(node)}")

        for node in ast.walk(func):
            if isinstance(node, (ast.If, ast.While, ast.IfExp, ast.Assert)) and dirty(node.test):
                reject("a branch test", node.test)
            elif isinstance(node, (ast.Compare, ast.BoolOp)) and dirty(node):
                reject("a comparison", node)
            elif isinstance(node, (ast.For, ast.comprehension)) and dirty(node.iter):
                reject("a loop bound", node.iter)
            elif isinstance(node, ast.Subscript) and dirty(node.slice):
                reject("a subscript index", node)
            elif isinstance(node, ast.Return) and dirty(node.value):
                reject("a return value", node)
            elif isinstance(node, ast.Match) and dirty(node.subject):
                reject("a branch test", node.subject)
            elif isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                bound = list(zip(params.get(callee, []), node.args))
                bound += [(kw.arg, kw.value) for kw in node.keywords]
                if dirty(node.func) or any(dirty(arg) for arg in node.args[len(bound):]) or any(
                        dirty(arg) and param not in SCALAR_SOURCES.get(callee, ())
                        for param, arg in bound):
                    reject("a call", node)
    assert set(funcs) == set(SCALAR_SOURCES), "an engine function is gone"
    return found


def test_the_scalar_reaches_no_control_flow_and_no_issue_log():
    # proves, for every scalar, what the trace-constancy checks sample: the
    # waves issued, their count and the issue log do not depend on the scalar
    assert scalar_taint(pathlib.Path(ecsm.__file__).read_text()) == []


@pytest.mark.parametrize("old, new, message", [
    ("    _cswap_running_pairs(regs, k & 1)\n",
     "    if k & 1:\n        _cswap_running_pairs(regs, 1)\n", "_issue: scalar reaches a branch test"),
    ("range(steps - 1, -1, -1)", "range(k.bit_length() - 1, -1, -1)", "_issue: scalar reaches a loop"),
    ("    _cswap_running_pairs(regs, k & 1)\n",
     "    regs[X2 + (k & 1)] ^= 0\n", "_issue: scalar reaches a subscript index"),
    ("    mask = -swap_bit\n", "    if not swap_bit:\n        return\n    mask = -swap_bit\n",
     "_cswap_running_pairs: scalar reaches a branch test"),
    ("issued.append((prog, steps))", "issued.append((prog, steps, k & 1))", "_issue: scalar reaches a call"),
    ("PARAMS[curve].scalar_bits)\n", "k.bits.bit_length())\n", "scalar_mult: scalar reaches a call"),
    ("return len(waves) * steps", "return len(waves) * steps + (swaps & 1)", "scalar reaches a return"),
], ids=("if-k", "loop-bound", "index", "early-return", "issue-log", "steps", "cycles"))
def test_scalar_taint_rejects_a_scalar_dependent_engine(old, new, message):
    # the proof can fail: each edit makes the issued waves, the cycles or the
    # trace depend on the scalar
    source = pathlib.Path(ecsm.__file__).read_text()
    assert source.count(old) == 1, old
    assert message in "\n".join(scalar_taint(source.replace(old, new)))
