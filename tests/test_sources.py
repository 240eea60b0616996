"""Source checks over one parse of the package (`TREES`): every module compiles
without a warning; one table, `OWNERS`, states which code may name each
engine fact (the issue seam, the checked wave path, the product charge, the
cycle report, the op text, code generation, `field`'s product text, the
multiplier array, the register count), and short tests state what a name
table cannot; every kernel, the engine's and ad-hoc ones, writes
`spec_wave`'s canonical value for every canonical input (one AST walk: an
interval proof beside symbolic execution); no scalar-derived value reaches
the engine's control flow or its issue log (a taint check); no module of the
package or the tests imports a name it never reads; every package name the
benchmark reads or wraps exists; importing the package loads neither
`dataclasses` nor `inspect`; one table states every rule by which a record
rejects a field, checked through its constructor, `_replace` and `_make`;
and one table states every argument that a public function rejects by its
type."""

import array
import ast
import functools
import importlib
import itertools
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import uecc
from uecc import ecsm, ffau, field, program
from uecc.ffau import OP_ADD, OP_SUB, Wave
from uecc.field import PARAMS, CurveId, FieldElement

from spec import Poly, programs, spec_wave

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


C25519, C448 = CurveId.CURVE25519, CurveId.CURVE448
OP = ffau.mul_op(0, 1, 2)


# Every rule by which a record rejects a field, one row each: (record, field,
# value, error, message).  The constructor, `_replace` and `_make` must each
# reject the record with `field` set to `value`.
@pytest.mark.parametrize("record, field, value, error, message", [
    (OP, "dst", ffau.ZERO, ValueError, "dst address 12 out of range"),
    (OP, "src_a", ffau.ZERO + 1, ValueError, "src_a address 13 out of range"),
    (OP, "sub_left", 2, ValueError, "left opsel must be 0"),
    (OP, "sub_right", 2, ValueError, "right opsel must be 0"),
    (OP, "sub_left", 1.0, TypeError, "sub_left must be an int, got 1.0"),
    (OP, "sub_right", True, TypeError, "sub_right must be an int, got True"),
    (OP, "src_a", 1.0, TypeError, "src_a must be an int, got 1.0"),
    (OP, "const_tag", "no", TypeError, "const_tag must be a bool, got 'no'"),
    (Wave((OP,)), "ops", (), ValueError, "wave must hold 1-4 ops, got 0"),
    (Wave((OP,)), "ops", (OP,) * 5, ValueError, "wave must hold 1-4 ops, got 5"),
    (Wave((OP,)), "ops", (OP, (0, 1, 2)), TypeError, r"wave op \(0, 1, 2\) is not a QuadOpInstruction"),
    (ecsm.CycleReport(1, 2, 3, 4), "prng_cycles", -5, ValueError, "prng_cycles must be non-negative"),
    (ecsm.CycleReport(1, 2, 3, 4), "ladder_cycles", 1.5, TypeError,
     "ladder_cycles must be an int, got 1.5"),
    (ecsm.Scalar(1, C25519), "bits", 1 << 255, ValueError, "scalar out of range"),
    (ecsm.Scalar(1, C25519), "bits", bytes(32), TypeError, "bits must be an int"),
    (ecsm.Scalar(1, C25519), "curve", "curve25519", TypeError, "curve must be a CurveId"),
    (FieldElement(9, C25519), "n", PARAMS[C25519].p, ValueError, "value not canonical"),
    (FieldElement(9, C25519), "n", bytes(32), TypeError, "n must be an int"),
    (FieldElement(9, C25519), "curve", "curve25519", TypeError, "curve must be a CurveId"),
    (ecsm.EcsmConfig(), "dpa_enabled", True, ValueError, "dpa_enabled requires a prng_seed"),
    (ecsm.EcsmConfig(), "dpa_enabled", "no", TypeError, "dpa_enabled must be a bool"),
    (ecsm.EcsmConfig(), "clamp_mode", "sideways", ValueError, "unknown clamp mode 'sideways'"),
    (ecsm.EcsmConfig(), "prng_seed", (bytes(10), None), ValueError,
     r"prng_seed must be a \(key, iv\) tuple of bytes"),
    (ecsm.EcsmConfig(True, ecsm.RFC_CLAMPED, (bytes(10),) * 2), "prng_seed", (bytes(9), bytes(10)),
     ValueError, "prng_seed parts must be 10 bytes each"),
    (ecsm.EcsmConfig(), "prng_seed", (bytes(10), bytes(11)), ValueError,
     "prng_seed parts must be 10 bytes each"),
    (ecsm.EcsmResult(FieldElement(9, C25519), 4, ()), "issued", [], TypeError,
     "issued must be a tuple, got list"),
    (ecsm.EcsmResult(FieldElement(9, C25519), 4, ()), "x_q", None, TypeError,
     "x_q must be of type FieldElement, got NoneType"),
    (ecsm.EcsmResult(FieldElement(9, C25519), 4, ()), "prng_cycles", "4", TypeError,
     "prng_cycles must be an int, got '4'"),
    (ecsm.EcsmResult(FieldElement(9, C25519), 4, ()), "prng_cycles", -1, ValueError,
     "prng_cycles must be non-negative"),
], ids=("QuadOpInstruction", "QuadOpInstruction-src", "QuadOpInstruction-left-opsel",
        "QuadOpInstruction-right-opsel", "QuadOpInstruction-opsel-float",
        "QuadOpInstruction-opsel-bool", "QuadOpInstruction-src-float", "QuadOpInstruction-const-tag",
        "Wave", "Wave-five-ops", "Wave-not-an-op", "CycleReport", "CycleReport-not-an-int",
        "Scalar", "Scalar-not-an-int", "Scalar-curve", "FieldElement", "FieldElement-not-an-int",
        "FieldElement-curve", "EcsmConfig", "EcsmConfig-dpa-not-a-bool", "EcsmConfig-clamp-mode",
        "EcsmConfig-seed-part", "EcsmConfig-key-length", "EcsmConfig-iv-length-without-dpa",
        "EcsmResult", "EcsmResult-x_q", "EcsmResult-prng-not-an-int", "EcsmResult-prng-negative"))
def test_replace_and_make_check_like_the_constructor(record, field, value, error, message):
    # namedtuple's own `_make` builds the tuple without `__new__`, and
    # `_replace` builds through `_make`
    fields = {**record._asdict(), field: value}
    for build in (lambda: type(record)(**fields), lambda: record._replace(**{field: value}),
                  lambda: type(record)._make(fields.values())):
        with pytest.raises(error, match=message):
            build()


K, U = ecsm.Scalar(5, C25519), FieldElement(9, C25519)
K_BYTES, U_BYTES = bytes([5]) + bytes(31), bytes([9]) + bytes(31)


# Every argument that a public function rejects by its type, one row each:
# (function, arguments, error, message).  Each used to fail later, with an
# error about something else, or to run.
@pytest.mark.parametrize("function, args, error, message", [
    (ecsm.scalar_mult, ((5, C25519), U), TypeError, "k must be of type Scalar, got tuple"),
    (ecsm.scalar_mult, (K, (9, C25519)), TypeError, "x_p must be of type FieldElement, got tuple"),
    (ecsm.scalar_mult, (K, U, None), TypeError, "cfg must be of type EcsmConfig, got NoneType"),
    (ecsm.scalar_mult, (K, U, (False, ecsm.RFC_CLAMPED, None)), TypeError,
     "cfg must be of type EcsmConfig, got tuple"),
    (ecsm.scalar_mult_bytes, (5, U_BYTES, C25519), TypeError,
     "scalar must be bytes, bytearray or memoryview, got int"),
    (ecsm.scalar_mult_bytes, (K_BYTES.hex(), U_BYTES, C25519), TypeError,
     "scalar must be bytes, bytearray or memoryview, got str"),
    (ecsm.scalar_mult_bytes, (K_BYTES, None, C25519), TypeError,
     "u-coordinate must be bytes, bytearray or memoryview, got NoneType"),
    (ecsm.scalar_mult_bytes, (K_BYTES, U_BYTES, C25519, None), TypeError,
     "cfg must be of type EcsmConfig, got NoneType"),
    (ecsm.scalar_mult_bytes, (K_BYTES, U_BYTES, "curve25519"), TypeError, "curve must be a CurveId"),
], ids=("scalar_mult-k", "scalar_mult-x_p", "scalar_mult-cfg-None", "scalar_mult-cfg-tuple",
        "scalar_mult_bytes-scalar-int", "scalar_mult_bytes-scalar-hex", "scalar_mult_bytes-u",
        "scalar_mult_bytes-cfg", "scalar_mult_bytes-curve"))
def test_public_functions_reject_an_argument_of_the_wrong_type(function, args, error, message):
    with pytest.raises(error, match=message):
        function(*args)


def test_the_byte_api_takes_any_bytes_like_input():
    want = ecsm.scalar_mult_bytes(K_BYTES, U_BYTES, C25519)
    for kind in (bytearray, memoryview):
        assert ecsm.scalar_mult_bytes(kind(K_BYTES), kind(U_BYTES), C25519) == want
    # a view is measured in octets, not in its items: 64 bytes of 2-byte items
    # are not a 32-byte u, and 32 bytes of them are one
    with pytest.raises(ValueError, match="must be 32 bytes, got 64"):
        ecsm.decode_u(memoryview(array.array("H", [9] * 32)), C25519, ecsm.RAW)
    view = memoryview(array.array("H", [9] * 16))
    assert ecsm.decode_u(view, C25519, ecsm.RAW) == ecsm.decode_u(bytes(view), C25519, ecsm.RAW)


# one parse of the package, shared by every test that reads its source
TREES = {path.stem: ast.parse(path.read_text()) for path in SOURCES}


def places(name, trees=TREES):
    """(reads, bindings) of `name` in `trees`, each a list of places: a module
    for its top level, else the path of the enclosing defs (`ffau.Wave.check`),
    and `module.NAME` for the value a module-level assignment binds to one
    name (`selftest.DESIGN`), whose binding stays at the module.  A read loads
    the name or an attribute so named, or imports it renamed; a binding stores
    or deletes either, or is a `def` or `class`."""
    reads, bindings = [], []

    def visit(node, place):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                bindings.append(place)
            place = f"{place}.{node.name}"
        elif isinstance(node, ast.Name) and node.id == name or (
                isinstance(node, ast.Attribute) and node.attr == name):
            (reads if isinstance(node.ctx, ast.Load) else bindings).append(place)
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] == name and (
                node.asname not in (None, name)):
            reads.append(place)
        elif isinstance(node, ast.Assign) and "." not in place and len(node.targets) == 1 and (
                isinstance(node.targets[0], ast.Name)):
            visit(node.targets[0], place)
            visit(node.value, f"{place}.{node.targets[0].id}")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, place)

    for stem, tree in trees.items():
        visit(tree, stem)
    return reads, bindings


def covers(entry, place):
    """Whether the `OWNERS` entry `entry` admits `place`."""
    return place == entry or "." not in entry and place.split(".")[0] == entry


# Which code may name each engine fact: name -> (the one module whose top level
# binds it, None for a builtin; the places that may read it, each a module, all
# its code, `module.function` (`module.Class.method`), its body, or
# `module.NAME`, the value a module-level assignment binds; why).
OWNERS = {
    "execute_compiled_wave": ("ffau", {"ffau.execute_wave", "ecsm._issue"},
                              "`ecsm._issue` records and counts what it runs, `execute_wave`"
                              " checks it; a wave run elsewhere escapes trace, cycles or check"),
    "execute_wave": ("ffau", {"ffau.mul_int", "ffau.mul_small_int", "selftest.add_sub"},
                     "only single ad-hoc waves run checked; a program's waves run checked one by"
                     " one would be a second issue loop, outside the engine's"),
    "_issue": ("ecsm", {"ecsm.scalar_mult", "selftest.inversion", "selftest.ladder"},
               "the engine and the checks issue whole programs through the engine's own issue"
               " loop; a loop of waves over a program would be a copy of it"),
    "counters": ("bigmul", {"ecsm._issue"},
                 "`ecsm._issue` charges each issued program's products; a charge anywhere else"
                 " could drift from the products the waves execute"),
    "CycleReport": ("ecsm", {"ecsm._cycles", "selftest.DESIGN"},
                    "`ecsm._cycles` models an ECSM's cycles and `selftest.DESIGN` states the"
                    " published ones; a report built elsewhere would be a second model"),
    "_cycles": ("ecsm", {"ecsm.EcsmResult.cycles", "selftest.inversion"},
                "an ECSM's cycles are read off its issue log in one place, as its trace is;"
                " a second sum of the waves issued could drift from the log"),
    "format_op": ("ffau", {"ffau.Wave.text", "program.dump_program"},
                  "only `Wave.text` renders trace text, once per issue log in `ecsm._trace`, and"
                  " `dump_program` lists a program; a line rendered elsewhere is rendered again"),
    **dict.fromkeys(("exec", "compile"), (
        None, {"ffau._kernel_code"}, "`field` holds each curve's arithmetic as text and"
        " generates nothing; `ffau._kernel_code` is the one place that turns text into code")),
    **dict.fromkeys(("PRIME", "PRODUCT", "PRODUCT_A24", "SPLIT448"), (
        "field", {"ffau.kernel_source"}, "`field` holds each curve's product and fold as data"
        " and composes none of it; one function lays out every kernel and its local names")),
    **dict.fromkeys(("MULTIPLIERS", "UNITS"), (
        "ffau", {"ffau"}, "the issue rule reads the multiplier array and the product charge"
        " sums its units; a count of units or slots elsewhere could drift from the waves")),
    "NUM_REGISTERS": ("ffau", {"ffau"},
                      "`ffau.registers` lays out the register list; a module that read the"
                      " register count could lay it out a second way, which could drift"),
}


@pytest.mark.parametrize("name", OWNERS)
def test_only_the_owners_name_an_engine_fact(name):
    definer, readers, reason = OWNERS[name]
    reads, bindings = places(name)
    assert bindings == ([definer] if definer else []), f"{name} bound in {bindings}: {reason}"
    stray = sorted({place for place in reads if not any(covers(e, place) for e in readers)})
    assert not stray, f"{name} read in {stray}: {reason}"
    unused = sorted({e for e in readers if not any(covers(e, place) for place in reads)})
    assert not unused, f"no read of {name} in {unused}: stale row"


def package_imports(tree):
    """(module, name) for each name that `tree` imports from the package."""
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
    assert package_imports(TREES["reference"]) == {("field", "CurveId")}


def test_no_module_imports_a_name_it_never_reads():
    # a name in `__all__` counts as read, and a `__future__` import is a
    # directive; `field` keeps `kar256_int` unread, because the wave kernels
    # run in `vars(field)` and look the unit up there at call time
    tests = {path.stem: ast.parse(path.read_text()) for path in pathlib.Path(__file__).parent.glob("*.py")}
    unread = set()
    for stem, tree in {**TREES, **tests}.items():
        nodes = list(ast.walk(tree))
        reads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        reads.update(c.value for n in nodes if isinstance(n, ast.Assign) and "__all__" in
                     map(ast.unparse, n.targets) for c in ast.walk(n.value) if isinstance(c, ast.Constant))
        unread |= {(stem, name) for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                   and getattr(n, "module", None) != "__future__" for alias in n.names
                   if (name := (alias.asname or alias.name).split(".")[0]) not in reads}
    assert unread == {("field", "kar256_int")}


def names_in(node):
    """Every name and attribute name that occurs in `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def every_compiled_wave():
    """(curve, compiled wave) for every wave of every program the engine issues."""
    return [(curve, ops) for curve in CurveId for prog in programs(curve).values()
            for ops in prog.compiled()]


# a cold build of every engine program: the `compile` calls it makes, its
# kernel functions and their distinct code objects
COLD_BUILD = """
from uecc import ffau
import spec
calls = []
ffau.compile = lambda *args: calls.append(args) or compile(*args)
kernels = [ops.kernel for curve in spec.CURVES for prog in spec.programs(curve).values()
           for ops in prog.compiled()]
print(len(calls), len(set(kernels)), len({kernel.__code__ for kernel in kernels}))
"""


def test_wave_kernels_are_straight_line_and_built_once_per_distinct_wave():
    waves = every_compiled_wave()
    distinct = {(curve, tuple(ops)) for curve, ops in waves}
    # one kernel per curve and distinct op tuple, not one per wave: that caps the set-up cost
    assert len({id(ops.kernel) for _, ops in waves}) == len(distinct) == 50
    # and one compile per op pattern and curve, not one per kernel: 6 code
    # objects on Curve25519 and 8 on Curve448, shared by the 50 kernels
    path = [str(pathlib.Path(uecc.__file__).parents[1]), str(pathlib.Path(__file__).parent)]
    out = subprocess.run([sys.executable, "-c", COLD_BUILD], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert out.stdout.split() == ["14", "50", "14"]
    # straight-line, with no call but the unit: `kernel_bounds` admits no
    # other form.  Each op ends in the one `% p` that writes its destination,
    # and the products are inline: one unit call per product charged.  The
    # kernel the engine runs has the addresses the proof binds
    for curve, ops in distinct:
        source, addresses = ffau.kernel_source(ops, curve)
        assert ffau.compile_ops(ops, curve).kernel.__defaults__ == addresses
        nodes = list(ast.walk(ast.parse(source)))
        mods = [ast.unparse(node.right) for node in nodes
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
        assert mods == [field.PRIME[curve]] * len(ops), ops
        calls = [node for node in nodes if isinstance(node, ast.Call)]
        assert len(calls) == program.ScheduledProgram((ffau.Wave(ops),), "ladder", curve).products


def kernel_bounds(source, addresses, ops, curve):
    """Prove for every input that one wave kernel, its address parameters
    bound in order to `addresses`, keeps its bounds and writes what
    `spec_wave` says of `ops`: one walk of its AST gives each
    node an interval (Cousot & Cousot, POPL 1977) and a `Poly` over GF(p)
    (symbolic execution: King, CACM 1976).  With the registers in [0, p-1]
    (the zero source 0), each unit operand is in [0, 2^256), each `x % P`
    sees a dividend in [0, 2^30 p), so that a dropped fold fails, and each
    write lands in [0, p-1].  Register i is x_i; `v >> k` is a fresh
    variable H per operand value and k, and `v & (2^k - 1)` is v - 2^k H,
    an identity for every int; the unit, `*`, `+`, `-` and `<< k` are
    polynomial operations, and `x % P` is x mod p.  A register is indexed
    only by an address parameter, which nothing assigns.  Reading a register
    the kernel wrote, a register that ends other than as the spec's
    polynomial, and a form with no rule (names of `field` are its values)
    fail with AssertionError."""
    p = PARAMS[curve].p
    (kernel,) = ast.parse(source).body
    params = [arg.arg for arg in kernel.args.args]  # with no default, star or keyword argument
    assert ast.unparse(kernel.args) == ", ".join(params) and params[0] == "r", ast.unparse(kernel.args)
    address = dict(zip(params[1:], addresses))
    assert len(address) == len(params) - 1 == len(addresses), (params, addresses)
    regs, env, line_of, fresh, written = Poly.registers(p), {}, {}, {}, set()

    def quotient(node, k):
        # the operand's text and the statements that assigned its names identify its value
        key = (ast.unparse(node), k, tuple(line_of.get(n) for n in sorted(names_in(node))))
        return fresh.setdefault(key, Poly({(0,) * (len(regs) + len(fresh)) + (1,): 1}, p))

    def value(node):
        match node:
            case ast.Constant(int(c)):
                return (c, c), Poly({(): c}, p)
            case ast.Name(name) if name in env:
                return env[name]
            case ast.Name(name) if type(c := vars(field).get(name)) is int:
                return (c, c), Poly({(): c}, p)
            case ast.Subscript(ast.Name("r"), ast.Name(g)) \
                    if 0 <= (i := address.get(g, -1)) <= ffau.ZERO:
                assert i not in written, f"r[{i}] read after the kernel wrote it"
                return (0, 0 if i == ffau.ZERO else p - 1), regs[i]
            case ast.Call(ast.Name("kar256_int"), [a, b], []):
                ((alo, ahi), x), ((blo, bhi), y) = value(a), value(b)
                assert 0 <= alo and 0 <= blo and ahi >> 256 == bhi >> 256 == 0, \
                    f"unit operand {max(ahi, bhi).bit_length()} bits: {ast.unparse(node)}"
                return (alo * blo, ahi * bhi), x * y
            case ast.BinOp(x, ast.Mod(), P) if value(P)[0] == (p, p):
                (lo, hi), poly = value(x)
                assert 0 <= lo and hi < p << 30, f"dividend {hi.bit_length()} bits, not < 2^30 p"
                return (0, p - 1), poly
            case ast.BinOp(left, ast.Add() | ast.Sub() as op, right):
                ((alo, ahi), x), ((blo, bhi), y) = value(left), value(right)
                if isinstance(op, ast.Add):
                    return (alo + blo, ahi + bhi), x + y
                return (alo - bhi, ahi - blo), x - y
            case ast.BinOp(left, op, right):
                ((alo, ahi), x), ((blo, bhi), y) = value(left), value(right)
                assert 0 <= alo and 0 <= blo, f"negative operand: {ast.unparse(node)}"
                if isinstance(op, ast.Mult):
                    return (alo * blo, ahi * bhi), x * y
                if blo == bhi and isinstance(op, ast.LShift):  # by a constant k
                    return (alo << bhi, ahi << bhi), x * 2**bhi
                if blo == bhi and isinstance(op, ast.RShift):
                    return (alo >> bhi, ahi >> bhi), quotient(left, bhi)
                if blo == bhi and isinstance(op, ast.BitAnd) and bhi & (bhi + 1) == 0:
                    n = bhi.bit_length()  # a constant mask 2^n - 1
                    return (0, min(ahi, bhi)), x - quotient(left, n) * 2**n
        raise AssertionError(f"no rule for {ast.unparse(node)}")

    for line, stmt in enumerate(kernel.body):
        match stmt:
            case ast.Assign([ast.Name(name)], expr) if name not in address:
                env[name], line_of[name] = value(expr), line
            case ast.Assign([ast.Subscript(ast.Name("r"), ast.Name(g))], expr) \
                    if 0 <= (i := address.get(g, -1)) < ffau.NUM_REGISTERS:
                (lo, hi), regs[i] = value(expr)
                assert 0 <= lo and hi < p, f"r[{i}] written outside [0, p-1]"
                written.add(i)
            case _:
                raise AssertionError(f"no rule for {ast.unparse(stmt)}")
    spec = Poly.registers(p)
    spec_wave(spec, ops, curve)
    for i, (got, want) in enumerate(zip(regs, spec)):
        assert got == want, f"r[{i}] is not spec_wave's value mod p"


DISTINCT_KERNELS = sorted({(curve.value, tuple(ops)) for curve, ops in every_compiled_wave()})


@pytest.mark.parametrize("curve, ops", DISTINCT_KERNELS,
                         ids=[f"{curve}-{i:02d}" for i, (curve, _) in enumerate(DISTINCT_KERNELS)])
def test_kernel_bounds_hold_for_every_input(curve, ops):
    # the bound comments in `field` become a theorem: each kernel writes the
    # spec's canonical value, and every load is canonical, so by induction
    # every register is canonical and as the spec says at every cycle
    kernel_bounds(*ffau.kernel_source(ops, CurveId(curve)), ops, CurveId(curve))


# four ops that read eight registers and write four others
FOUR_OPS = (
    ffau.QuadOpInstruction(OP_ADD, 0, 1, OP_SUB, 2, 3, 8),
    ffau.QuadOpInstruction(OP_SUB, 4, 5, OP_ADD, 6, 7, 9),
    ffau.QuadOpInstruction(OP_ADD, 0, 2, OP_ADD, 4, 6, 10),
    ffau.QuadOpInstruction(OP_SUB, 1, 3, OP_SUB, 5, 7, 11),
)

# ad-hoc waves, none of them a program's: name -> the waves
AD_HOC_WAVES = {
    "sum-times-difference": [Wave((ffau.QuadOpInstruction(OP_ADD, 0, 1, OP_SUB, 0, 1, 2),))],
    "square": [Wave((ffau.QuadOpInstruction(OP_SUB, 0, 1, OP_SUB, 0, 1, 2),))],
    "a24": [Wave((ffau.a24_op(OP_SUB, 0, 1, 2),))],
    "four-ops-in-every-order": [Wave(ops) for ops in itertools.permutations(FOUR_OPS)],
    "overwrites-own-source": [Wave((ffau.mul_op(0, 1, 0), ffau.mul_op(2, 2, 3))),
                              Wave((ffau.QuadOpInstruction(OP_SUB, 4, 5, OP_ADD, 5, 4, 4),))],
    "full-width-beside-a24": [Wave((ffau.mul_op(0, 1, 3), ffau.a24_op(OP_ADD, 4, 5, 6)))],
}


@pytest.mark.parametrize("waves", AD_HOC_WAVES.values(), ids=AD_HOC_WAVES.keys())
def test_kernel_bounds_hold_on_ad_hoc_waves(waves):
    # the proof on each curve whose issue rule admits the wave
    for wave in waves:
        admitted = []
        for curve in CurveId:
            try:
                wave.check(curve)
            except ffau.ScheduleError:
                continue
            admitted.append(curve)
            kernel_bounds(*ffau.kernel_source(wave.ops, curve), wave.ops, curve)
        assert admitted, wave.text


@pytest.mark.parametrize("curve, old, new, message", [
    (C25519, "    x = (x & _M255) + 19 * (x >> 255)\n", "", "dividend 510 bits"),
    (C448, "h1 = h >> 224\n    x = p11 + p00 + h1 + (((h & _M224) + h1) << 224)",
     "x = p11 + p00 + (h << 224)", "dividend 674 bits"),
    (C25519, "x % P25519", "x", r"r\[2\] written outside"),
    (C448, "x % P448", "x % P25519", "no rule"),
    (C448, "h1 = h >> 224", "h1 = h // 224", "no rule"),
    (C25519, "19 * (x", "18 * (x", r"r\[2\] is not spec_wave's"),
    (C448, "x = p11 + p00 + h1 + ", "x = p11 + p00 + ", r"r\[2\] is not spec_wave's"),
    (C448, "(h & _M224) + h1", "h & _M224", r"r\[2\] is not spec_wave's"),
    (C448, "kar256_int(s0l, s1h)", "kar256_int(s0h, s1h)", r"r\[2\] is not spec_wave's"),
    (C25519, "    s1 = r[g1]\n", "    r[g1] = r[g0]\n    s1 = r[g1]\n", r"r\[1\] read after"),
], ids=("25519-no-fold", "448-no-fold", "no-modulo", "wrong-prime", "unknown-form",
        "25519-fold-by-18", "448-no-leading-h1", "448-no-inner-h1", "448-wrong-cross-partial",
        "write-before-read"))
def test_kernel_bounds_reject_a_broken_kernel(curve, old, new, message):
    # the proof can fail: each edit of the r2 <- r0 x r1 kernel breaks a
    # bound or the kernel's value mod p
    ops = (ffau.mul_op(0, 1, 2),)
    source, addresses = ffau.kernel_source(ops, curve)
    assert source.count(old) == 1, old
    with pytest.raises(AssertionError, match=message):
        kernel_bounds(source.replace(old, new, 1), addresses, ops, curve)


def test_kernel_bounds_reject_addresses_bound_in_the_wrong_order():
    # the proof binds the parameters to the wave's addresses, so the kernel
    # of r2 <- (r0 - r1) x (r0 + r1) with its two sources swapped, which
    # computes (r1 - r0) x (r1 + r0), fails
    ops = (ffau.QuadOpInstruction(OP_SUB, 0, 1, OP_ADD, 0, 1, 2),)
    for curve in CurveId:
        source, (g0, g1, w0) = ffau.kernel_source(ops, curve)
        with pytest.raises(AssertionError, match=r"r\[2\] is not spec_wave's"):
            kernel_bounds(source, (g1, g0, w0), ops, curve)


PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"
# names the benchmark reads through a local alias, which the scan does not
# follow: `Tracer._phase_tables`' `ecsm` and `traced_run`'s `counters`
ALIASED = {"ecsm.INIT_WAVES", "ecsm.FINAL_WAVE", "bigmul.counters.mul256", "bigmul.counters.mul64"}


def benchmark_names():
    """Every package name, as `module.attr...`, that `perfbench/run.py`,
    `tracer.py` and `setup_probe.py` read: each `m.<module>` chain (`m`, also
    `self.m`, is the runner's namespace of the package's modules), each
    chain on a name imported from the package, each
    `(m.<module>, "<attribute>")` binding that `Tracer.install` replaces,
    and ALIASED."""
    names = set(ALIASED)
    for script in ("run.py", "tracer.py", "setup_probe.py"):
        tree = ast.parse((PERFBENCH / script).read_text())
        imports = package_imports(tree)  # `uecc.<module>` as `<module>`
        roots = {"m": ""} | {name: f"{module[5:]}.{name}".lstrip(".") for module, name in imports if name}
        names |= {module[5:] for module, name in imports if not name} | set(roots.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.Tuple) and len(node.elts) > 1 and isinstance(
                    getattr(node.elts[1], "value", None), str):
                node = ast.Attribute(node.elts[0], node.elts[1].value)  # an install target
            if not isinstance(node, ast.Attribute):
                continue
            parts = ast.unparse(node).split(".")
            i = next((i for i, part in enumerate(parts) if part in roots), None)
            if all(map(str.isidentifier, parts)) and i is not None and (i == 0 or parts[i] == "m"):
                names.add(".".join(filter(None, [roots[parts[i]], *parts[i + 1:]])))
    return names - {""}  # `uecc` and `self.m` themselves


def test_every_seam_the_benchmark_wraps_exists():
    # the benchmark reads or replaces these names; one that is gone fails
    # here, not only in the benchmark's own smoke test
    names = benchmark_names()
    assert {"ecsm.execute_compiled_wave", "program.ScheduledProgram.compiled.cache_info"} < names
    for name in names:
        module, *attrs = name.split(".")
        functools.reduce(getattr, attrs, importlib.import_module(f"uecc.{module}"))
    # `Tracer._wave` tells the init and final waves by their op tuples, which
    # compiled waves equal and hash as, and counts a wave's ops by its `len`
    for wave, curve in itertools.product((*ecsm.INIT_WAVES, ecsm.FINAL_WAVE), CurveId):
        compiled = wave.compiled(curve)
        assert compiled in {wave.compiled()} and wave.compiled() == wave.ops == compiled
        assert len(compiled) == len(wave.ops)


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
    or a call, except as the argument of one of SCALAR_SOURCES' own
    parameters, whose function is checked with it tainted.  The issue log,
    which the trace and the cycles are built from, is written by a call, so
    nothing tainted reaches it.  A register write `regs[i] ^= d` taints the
    stored value, not `i`: register values are data, which the kernels
    handle straight-line (tested above), and reads of them are not
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
    ("    issued.append((prog, steps))\n", "    issued.append((prog, steps))\n    return swaps & 1\n",
     "_issue: scalar reaches a return value"),
], ids=("if-k", "loop-bound", "index", "early-return", "issue-log", "steps", "return"))
def test_scalar_taint_rejects_a_scalar_dependent_engine(old, new, message):
    # the proof can fail: each edit makes the issued waves, the cycles or the
    # trace depend on the scalar
    source = pathlib.Path(ecsm.__file__).read_text()
    assert source.count(old) == 1, old
    assert message in "\n".join(scalar_taint(source.replace(old, new)))
