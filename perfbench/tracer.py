"""Layer spans for the traced benchmark run, recorded from outside the program.

`Tracer.install` replaces the module attributes through which each layer is
called with timing wrappers, and `Tracer.uninstall` puts the originals back.
The program's own code is unchanged.  Each binding is patched where its
caller looks it up: `field` imports `kar256_int` by name, so the Karatsuba
wrapper goes on `uecc.field.kar256_int`; a wrapper on `uecc.bigmul` alone
would see no calls, which the count reconciliation in `run.py` detects.

A span is (id, name, start, end, parent id, request id).  Spans of the
coarse layers are kept for every request; spans of the per-operation layers
(waves, multiplies, Trivium words, trace formatting) only while
`keep_fine` is set, so memory stays bounded on long runs.  Self time is a
span's duration minus its children's durations and minus the calibrated cost
of the wrapper code that runs around each child inside the parent.  Busy and
self times are summed per request and scaled for host speed like the
end-to-end times (`end_request`, see hostspeed.py); the wrapper cost is
calibrated in the same scaled units.  Counts are not scaled.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from time import perf_counter

import hostspeed

COARSE = frozenset({"request", "cli", "ecsm", "trivium.init", "trivium.gen_lambda"})
PHASES = ("ladder", "inversion", "init", "final")


class Tracer:
    def __init__(self, uecc_modules, curve, dpa_modes):
        self.m = uecc_modules
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)  # host seconds scaled for host speed, summed over requests
        self.self_s = defaultdict(float)
        self.ops_issued = 0
        self.gc_collections = 0
        self.gc_s = 0.0
        self._busy = defaultdict(float)  # raw host seconds of the current request
        self._self_s = defaultdict(float)  # raw duration minus children's durations
        self._children = defaultdict(int)  # child spans per name, for the wrapper cost
        self._gc_s = 0.0
        self.spans = []
        self.request_id = None
        self.keep_fine = False
        self.last_cycles = None
        self._stack = []
        self._next_id = 0
        self._gc_start = 0.0
        self._saved = []
        self._outside = 0.0
        self._phase_by_id, self._init_ops, self._final_ops = self._phase_tables(curve, dpa_modes)

    def _phase_tables(self, curve, dpa_modes):
        """Map each cached compiled wave to its phase; init/final waves are compiled per call."""
        program, ecsm = self.m.program, self.m.ecsm
        by_id = {}
        for dpa in dpa_modes:
            for ops in program.build_ladder_program(curve, dpa).compiled():
                by_id[id(ops)] = "ladder"
        for ops in program.build_inversion_program(curve).compiled():
            by_id[id(ops)] = "inversion"
        init_ops = {w.compiled() for w in ecsm.INIT_WAVES}
        return by_id, init_ops, ecsm.FINAL_WAVE.compiled()

    # -- spans ------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id, 0]  # child time, id, child count
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            self.calls[name] += 1
            self._busy[name] += dur
            self._self_s[name] += dur - frame[0]
            self._children[name] += frame[2]
            if parent is not None:
                parent[0] += dur
                parent[2] += 1
            if self.keep_fine or name in COARSE:
                self.spans.append(
                    (span_id, name, start, end, parent[1] if parent else None, self.request_id)
                )

    def calibrate(self, batches=7, n=2000):
        """Measure, scaled for host speed, the wrapper cost a parent pays per child
        outside the child's own span; the median over batches is kept."""
        wrapped = self._plain("calibrate")(_noop)
        costs = []
        for _ in range(batches):
            root = [0.0, -1, 0]
            self._stack.append(root)
            ref_before = hostspeed.timed()
            t0 = perf_counter()
            for _ in range(n):
                wrapped()
            total = perf_counter() - t0
            ref = (ref_before + hostspeed.timed()) / 2
            self._stack.pop()
            costs.append((total - root[0]) / n * hostspeed.REFERENCE_S / ref)
        self._outside = max(sorted(costs)[batches // 2], 0.0)
        self.reset()

    def end_request(self, scale):
        """Fold the current request's times into the totals, scaled for host speed."""
        for name, dur in self._busy.items():
            self.busy[name] += dur * scale
        for name, dur in self._self_s.items():
            self.self_s[name] += dur * scale - self._children[name] * self._outside
        self.gc_s += self._gc_s * scale
        self._busy.clear()
        self._self_s.clear()
        self._children.clear()
        self._gc_s = 0.0

    def reset(self):
        self.end_request(0.0)
        self.calls.clear()
        self.busy.clear()
        self.self_s.clear()
        self.ops_issued = 0
        self.gc_collections = 0
        self.gc_s = 0.0
        self.spans.clear()

    # -- wrappers ---------------------------------------------------------

    def _wave(self, orig):
        phase_by_id, init_ops, final_ops = self._phase_by_id, self._init_ops, self._final_ops

        def execute_compiled_wave(regs, ops, curve):
            phase = phase_by_id.get(id(ops))
            if phase is None:
                phase = "init" if ops in init_ops else "final" if ops == final_ops else "unknown"
            self.ops_issued += len(ops)
            return self.span("ffau.wave." + phase, orig, regs, ops, curve)

        return execute_compiled_wave

    def _ecsm(self, orig):
        def scalar_mult(*args, **kwargs):
            result = self.span("ecsm", orig, *args, **kwargs)
            self.last_cycles = result.cycles
            return result

        return scalar_mult

    def _plain(self, name):
        def make(orig):
            def wrapper(*args):
                return self.span(name, orig, *args)

            return wrapper

        return make

    def _gc_callback(self, phase, info):
        if self.keep_fine:
            return  # the first request's collections are mostly the tracer's own span storage
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_collections += 1
            self._gc_s += perf_counter() - self._gc_start

    def install(self):
        m = self.m
        targets = [
            (m.field, "kar256_int", self._plain("bigmul.kar256")),
            (m.ffau, "mul_int", self._plain("field.mul_int")),
            (m.ffau, "mul_small_int", self._plain("field.mul_small_int")),
            (m.ecsm, "execute_compiled_wave", self._wave),
            (m.ecsm, "scalar_mult", self._ecsm),
            (m.cli, "scalar_mult", self._ecsm),
            (m.ecsm, "TriviumState", self._plain("trivium.init")),
            (m.ecsm, "gen_lambda", self._plain("trivium.gen_lambda")),
            (m.trivium, "next64", self._plain("trivium.next64")),
            (m.program, "format_op", self._plain("program.format_op")),
            (m.cli, "main", self._plain("cli")),
        ]
        for module, attr, make in targets:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, make(orig))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    # -- results ----------------------------------------------------------

    def snapshot(self):
        return dict(self.calls)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def _noop():
    return None
