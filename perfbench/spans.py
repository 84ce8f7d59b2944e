"""Spans and counters recorded around calls into adahaar's modules, from outside.

Nothing here edits the library: `install` swaps module attributes (and
class attributes for methods) for wrappers and `uninstall` puts the
originals back. A `from .x import f` copy in another adahaar module is the
same function object, so every module attribute that *is* the original is
swapped, which is what makes calls between modules visible.

A span is `[name, start, end, parent, op]`; spans stay in memory and are
written out once at the end. A layer's self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name). "Class.method" names a method; a
# classmethod is unwrapped and re-wrapped so it still binds the class.
SPANNED = [
    ("graphs", "symmetrize", "graphs.symmetrize"),
    ("graphs", "build_chain", "graphs.build_chain"),
    ("graphs", "default_cluster", "graphs.default_cluster"),
    ("graphs", "coarse_grain", "graphs.coarse_grain"),
    ("graphs", "Chain.validate", "graphs.chain_validate"),
    ("graphs", "Chain.from_json", "graphs.chain_from_json"),
    ("hierarchy", "refine_interval_level", "hierarchy.refine_interval_level"),
    ("hierarchy", "tensor_partitions", "hierarchy.tensor_partitions"),
    ("hierarchy", "validate_partition", "hierarchy.validate_partition"),
    ("hierarchy", "HierarchicalPartition.from_json", "hierarchy.partition_from_json"),
    ("hierarchy", "HierarchicalPartition.to_json", "hierarchy.partition_to_json"),
    ("embedding", "chain_to_intervals", "embedding.chain_to_intervals"),
    ("embedding", "digraph_embedding", "embedding.digraph_embedding"),
    ("embedding", "restrict_system", "embedding.restrict_system"),
    ("embedding", "prune_redundant", "embedding.prune_redundant"),
    ("embedding", "vertex_span_bounds", "embedding.vertex_span_bounds"),
    ("embedding", "signal_to_function", "embedding.signal_to_function"),
    ("embedding", "function_to_signal", "embedding.function_to_signal"),
    ("embedding", "VertexBlockMap.from_json", "embedding.vbm_from_json"),
    ("framelets", "build_system", "framelets.build_system"),
    ("framelets", "make_atom", "framelets.make_atom"),
    ("framelets", "FrameletSystem.from_json", "framelets.system_from_json"),
    ("framelets", "FrameletSystem.function_matrix", "framelets.function_matrix"),
    ("framelets", "leaf_measures", "framelets.leaf_measures"),
    ("framelets", "analyze", "framelets.analyze"),
    ("framelets", "synthesize", "framelets.synthesize"),
]

# Called too often for a span each: counted only, their time stays in the caller.
COUNTED = [
    ("hierarchy", "Block.intersection_measure", "hierarchy.intersection_measure"),
    ("framelets", "inner_product", "framelets.inner_product"),
]


def _partition_sizes(tracer, part):
    tracer.gauge("hierarchy.leaves", len(part.leaf_ids))
    tracer.gauge("hierarchy.blocks", len(part.blocks))
    bits = max(max(s.lo.denominator.bit_length(), s.hi.denominator.bit_length())
               for blk in part.blocks.values() for s in blk.sides)
    tracer.gauge("hierarchy.denominator_bits_max", bits)


# Sizes read off results; each keeps the largest value seen in the run.
OBSERVERS = {
    "graphs.build_chain": lambda t, chain: t.gauge("graphs.chain_depth", chain.depth),
    "graphs.chain_from_json": lambda t, chain: t.gauge("graphs.chain_depth", chain.depth),
    "hierarchy.tensor_partitions": _partition_sizes,
    "hierarchy.partition_from_json": _partition_sizes,
    "framelets.build_system": lambda t, s: t.gauge("framelets.atoms_full", len(s.atoms)),
    "embedding.restrict_system": lambda t, s: t.gauge("framelets.atoms_restricted", len(s.atoms)),
    "embedding.prune_redundant": lambda t, r: t.gauge("framelets.atoms_pruned", len(r[0].atoms)),
    "framelets.function_matrix": lambda t, F: t.gauge("framelets.function_matrix_bytes",
                                                      F.shape[0] * F.shape[1] * 8),
}


class Tracer:
    """In-memory spans, call counts and size gauges of one benchmark process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.gauges = {}
        self.op = None
        self._stack = []
        self._undo = []

    def gauge(self, name, value):
        self.gauges[name] = max(self.gauges.get(name, 0), int(value))

    def spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    observe(self, result)
                except AttributeError:
                    pass  # the result no longer has that shape; the gauge stays 0
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every target that exists; a missing one just reports 0."""
        import adahaar  # noqa: F401  (loads every library module)
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "adahaar" or k.startswith("adahaar."))]
        for targets, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for mod_name, attr, name in targets:
                mod = sys.modules.get("adahaar." + mod_name)
                if mod is None:
                    continue
                if "." in attr:
                    self._wrap_method(mod, attr, name, make)
                else:
                    self._wrap_function(modules, mod, attr, name, make)

    def _wrap_function(self, modules, mod, attr, name, make):
        orig = getattr(mod, attr, None)
        if orig is None:
            return
        wrapped = make(name, orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, orig))

    def _wrap_method(self, mod, attr, name, make):
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        orig = vars(cls).get(meth) if cls is not None else None
        if orig is None:
            return
        if isinstance(orig, classmethod):
            wrapped = classmethod(make(name, orig.__func__))
        else:
            wrapped = make(name, orig)
        setattr(cls, meth, wrapped)
        self._undo.append((cls, meth, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "gauges": self.gauges}

    def merge(self, dumped, op):
        """Add a child process's dump; its spans join this process's op `op`."""
        base = len(self.spans)
        for name, start, end, parent, _ in dumped["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.counts.update(dumped["counts"])
        for name, value in dumped["gauges"].items():
            self.gauge(name, value)


def self_times(spans) -> Counter:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return out


def top_level_time(spans, op) -> float:
    """Time inside op `op` that some root span covers."""
    return sum(end - start for _, start, end, parent, o in spans
               if o == op and parent < 0)
