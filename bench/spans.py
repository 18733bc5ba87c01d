"""In-memory span tracing of regionknot's public functions, and the per-layer
metrics computed from the spans.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds the wrapper wherever a ``regionknot`` module holds the
original as a global, which is where callers look it up (``cli.verify_axioms``,
``unknotting.kauffman_bracket``, ``rcc.solve_affine`` ...). No source file
changes. Methods are not wrapped: ``RestrictedAlgebra.join``/``meet`` run
millions of times per catalog pass, so their work is counted from the
``AxiomReport`` the verifiers return instead.

A span is ``[name, start_ns, end_ns, parent, op, hit, work]``: ``parent`` is
the index of the enclosing span (-1 for an operation's root span), ``hit``
is 1/0 for a cache hit/miss of an ``lru_cache`` function (from its
``cache_info()`` delta) and -1 otherwise, and ``work`` is a count read from
the result (see ``WORK``).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "catalog", "diagram", "gf2", "rcc", "unknotting", "boolalg")
# An operation's root span; its self time is the harness around the call.
OP = "bench.op"
LAYERS = TRACED_MODULES + ("bench",)

# Work counters read from a traced function's arguments and result.
WORK = {
    "boolalg.verify_axioms": lambda args, result, hit: result.triples_checked,
    "boolalg.verify_homomorphism": lambda args, result, hit: result.triples_checked,
    "unknotting.small_unknotting_set": lambda args, result, hit: result.shifts,
    # states summed by the 2^c bracket: only a cache miss sums them
    "unknotting.kauffman_bracket": lambda args, result, hit: 0 if hit else 1 << args[0].n_crossings,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._op = -1

    def install(self) -> None:
        """Wrap the traced modules' public functions at every lookup site."""
        wrappers: dict[int, tuple[object, object]] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"regionknot.{short}"]
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname == "regionknot" or modname.startswith("regionknot."):
                for name, obj in list(vars(mod).items()):
                    fn, wrapper = wrappers.get(id(obj), (None, None))
                    if obj is fn:
                        setattr(mod, name, wrapper)

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)
        work = WORK.get(qualname)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name_id, 0, 0, stack[-1] if stack else -1, self._op, -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            hits = cache_info().hits if cache_info else 0
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if cache_info:
                rec[5] = int(cache_info().hits > hits)
            if work:
                rec[6] = work(args, result, rec[5] == 1)
            return result

        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([0, time.perf_counter_ns(), 0, -1, op, -1, 0])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()


class LayerTotals:
    """Per-function totals over the spans of one or more traced rounds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.misses: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.ur_candidates = 0
        self.ops = 0
        self.op_ns = 0

    def add(self, names: list[str], spans: list[list[int]]) -> None:
        child_ns = [0] * len(spans)
        for name_id, t0, t1, parent, _op, _hit, _work in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        ids = {name: i for i, name in enumerate(names)}
        ur_id = ids.get("unknotting.region_unknotting_number", -2)
        jones_id = ids.get("unknotting.jones_normalized", -2)
        for i, (name_id, t0, t1, parent, _op, hit, work) in enumerate(spans):
            name = names[name_id]
            self.calls[name] += 1
            self.self_ns[name] += t1 - t0 - child_ns[i]
            self.work[name] += work
            if hit == 1:
                self.hits[name] += 1
            elif hit == 0:
                self.misses[name] += 1
            if parent < 0:
                self.ops += 1
                self.op_ns += t1 - t0
            elif name_id == jones_id:
                p = parent
                while p >= 0 and spans[p][0] != ur_id:
                    p = spans[p][3]
                self.ur_candidates += p >= 0

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def self_ms(self, name: str) -> float:
        return self.per_op(self.self_ns[name] / 1e6)

    def hit_ratio(self, name: str) -> float:
        n = self.hits[name] + self.misses[name]
        return self.hits[name] / n if n else 0.0

    def layer_share(self, layer: str) -> float:
        """A module's self time as a share of operation time."""
        prefix = layer + "."
        layer_ns = sum(v for k, v in self.self_ns.items() if k.startswith(prefix))
        return layer_ns / self.op_ns if self.op_ns else 0.0

    def share(self, name: str) -> float:
        """One function's self time as a share of operation time."""
        return self.self_ns[name] / self.op_ns if self.op_ns else 0.0


def layer_metrics(t: LayerTotals, records_bytes: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as name -> (value, unit); times and counts are
    per operation of the workload."""
    ur_searches = t.calls["unknotting.region_unknotting_number"]
    return {
        "boolalg.verify_axioms.self_ms": (t.self_ms("boolalg.verify_axioms"), "ms/op"),
        "boolalg.verify_axioms.triples": (t.per_op(t.work["boolalg.verify_axioms"]), "count/op"),
        "boolalg.verify_homomorphism.self_ms": (t.self_ms("boolalg.verify_homomorphism"), "ms/op"),
        "boolalg.verify_homomorphism.pairs": (t.per_op(t.work["boolalg.verify_homomorphism"]), "count/op"),
        "boolalg.build_restricted.self_ms": (t.self_ms("boolalg.build_restricted"), "ms/op"),
        "unknotting.kauffman_bracket.calls": (t.per_op(t.calls["unknotting.kauffman_bracket"]), "count/op"),
        "unknotting.kauffman_bracket.self_ms": (t.self_ms("unknotting.kauffman_bracket"), "ms/op"),
        "unknotting.kauffman_bracket.hit_ratio": (t.hit_ratio("unknotting.kauffman_bracket"), "ratio"),
        "unknotting.bracket_states": (t.per_op(t.work["unknotting.kauffman_bracket"]), "count/op"),
        "unknotting.jones_normalized.calls": (t.per_op(t.calls["unknotting.jones_normalized"]), "count/op"),
        "unknotting.region_unknotting_number.self_ms": (t.self_ms("unknotting.region_unknotting_number"), "ms/op"),
        "unknotting.ur.candidates": (t.per_op(t.ur_candidates), "count/op"),
        "unknotting.ur.useful_ratio": (ur_searches / t.ur_candidates if t.ur_candidates else 0.0, "ratio"),
        "unknotting.small_unknotting_set.self_ms": (t.self_ms("unknotting.small_unknotting_set"), "ms/op"),
        "unknotting.certify.shifts": (t.per_op(t.work["unknotting.small_unknotting_set"]), "count/op"),
        "diagram.parse_pd.self_ms": (t.self_ms("diagram.parse_pd"), "ms/op"),
        "diagram.faces.self_ms": (t.self_ms("diagram.faces"), "ms/op"),
        "diagram.faces.hit_ratio": (t.hit_ratio("diagram.faces"), "ratio"),
        "rcc.rcc_map.self_ms": (t.self_ms("rcc.rcc_map"), "ms/op"),
        "rcc.rcc_map.hit_ratio": (t.hit_ratio("rcc.rcc_map"), "ratio"),
        "gf2.solve_affine.calls": (t.per_op(t.calls["gf2.solve_affine"]), "count/op"),
        "gf2.solve_affine.self_ms": (t.self_ms("gf2.solve_affine"), "ms/op"),
        "gf2.invert_square.calls": (t.per_op(t.calls["gf2.invert_square"]), "count/op"),
        "gf2.invert_square.self_ms": (t.self_ms("gf2.invert_square"), "ms/op"),
        "rcc.solve_for_crossings.self_ms": (t.self_ms("rcc.solve_for_crossings"), "ms/op"),
        "rcc.solve_avoiding.self_ms": (t.self_ms("rcc.solve_avoiding"), "ms/op"),
        "rcc.splice_solution.self_ms": (t.self_ms("rcc.splice_solution"), "ms/op"),
        "rcc.phi.calls": (t.per_op(t.calls["rcc.phi"]), "count/op"),
        "cli.main.self_ms": (t.self_ms("cli.main"), "ms/op"),
        "cli.records_bytes": (t.per_op(records_bytes), "bytes/op"),
        "catalog.load_catalog.self_ms": (t.self_ms("catalog.load_catalog"), "ms/op"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def layer_shares(t: LayerTotals) -> dict[str, float]:
    """Each layer's self time as a share of operation time."""
    return {layer: t.layer_share(layer) for layer in LAYERS}
