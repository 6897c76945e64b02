"""Span tracing around the public functions of each chunkalg module.

``Tracer.install()`` replaces each traced function with a wrapper wherever a
module binds it (the defining module and every module that imported it), and
each traced method in the class that defines it, so calls made from inside
the library are seen too.  ``Tracer.restore()`` puts every original back.

A span records its name, start, end, parent span and op id.  Spans live in
flat in-memory arrays until the run ends; ``analyse()`` derives per-name
calls, busy time and self time, per-layer self time and the named counters,
and ``dump()`` writes the spans out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from typing import Any, Callable

PACKAGE = "chunkalg"
LAYERS = ("atoms", "scripts", "ieutxo", "acs", "axioms", "functors", "generators", "jsonio")

# (span name, module, attribute, kind).  A dotted attribute names a method of
# a class in that module.  Kinds: "span" times the call, "gen" times each
# resume of a returned generator, "count" only counts calls.
TARGETS = [
    ("atoms.value_label", "atoms", "value_label", "span"),
    ("scripts.evaluate_script", "scripts", "evaluate_script", "count"),
    ("scripts.script_label", "scripts", "script_label", "span"),
    ("ieutxo.check_chunk", "ieutxo", "check_chunk", "span"),
    ("ieutxo.compose", "ieutxo", "compose", "span"),
    ("ieutxo.ledger_sets", "ieutxo", "ledger_sets", "span"),
    ("ieutxo.blocked", "ieutxo", "blocked_utxi", "span"),
    ("ieutxo.blocked", "ieutxo", "blocked_utxo", "span"),
    ("ieutxo.enumerate_chunks", "ieutxo", "enumerate_chunks", "gen"),
    ("ieutxo.check_church_rosser", "ieutxo", "check_church_rosser", "span"),
    ("acs.mcompose", "acs", "FiniteSetsAcs.mcompose", "span"),
    ("acs.mcompose", "acs", "SubstAcs.mcompose", "span"),
    ("acs.mcompose", "acs", "ChunkAcs.mcompose", "span"),
    ("acs.sample_elements", "acs", "ChunkAcs.sample_elements", "span"),
    ("acs.enumerate_carrier", "acs", "FiniteSetsAcs.enumerate_carrier", "span"),
    ("acs.enumerate_carrier", "acs", "SubstAcs.enumerate_carrier", "span"),
    ("axioms.monoid", "axioms", "monoid_axiom_check", "span"),
    ("axioms.oriented", "axioms", "oriented_axiom_check", "span"),
    ("axioms.atomic", "axioms", "atomic_axiom_check", "span"),
    ("axioms.partial_converse", "axioms", "partial_converse_check", "span"),
    ("functors.check_adjunction", "functors", "check_adjunction", "span"),
    ("functors.g_object", "functors", "g_object", "span"),
    ("generators.gen_cr_triple", "generators", "gen_cr_triple", "span"),
    ("generators.gen_model", "generators", "gen_model", "span"),
    ("jsonio.tx_from_obj", "jsonio", "tx_from_obj", "span"),
    ("jsonio.dumps", "jsonio", "dumps", "span"),
]
ORIENTATION = ("left", "right", "up")
ORIENTED_CLASSES = ("FiniteSetsAcs", "SubstAcs", "ChunkAcs")

SETUP_OP = -1
NO_PARENT = -1
# The two high bits of a span's name id flag a span nested in another span
# of the same name or of the same layer; busy time counts only the outermost.
NESTED_NAME = 0x4000
NESTED_LAYER = 0x8000
NAME_MASK = 0x3FFF


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer: list[int] = []
        self.sid = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self.current_op = SETUP_OP
        self._stack = [NO_PARENT]
        self._name_depth: list[int] = []
        self._layer_depth = [0] * (len(LAYERS) + 1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            layer = name.split(".", 1)[0]
            self._name_layer.append(LAYERS.index(layer) if layer in LAYERS else len(LAYERS))
            self._name_depth.append(0)
        return self._name_ids[name]

    def _enter(self, nid: int) -> tuple[int, int, int]:
        lid = self._name_layer[nid]
        nd, ld = self._name_depth[nid], self._layer_depth[lid]
        idx = len(self.start)
        self.sid.append(nid | (NESTED_NAME if nd else 0) | (NESTED_LAYER if ld else 0))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self._name_depth[nid] = nd + 1
        self._layer_depth[lid] = ld + 1
        self.start.append(time.perf_counter_ns())
        return idx, nd, ld

    def _exit(self, nid: int, idx: int, nd: int, ld: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._name_depth[nid] = nd
        self._layer_depth[self._name_layer[nid]] = ld

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        nid = self._name_id(name)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            idx, nd, ld = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(nid, idx, nd, ld)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _gen(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        enter, leave, count = self._enter, self._exit, self._count

        def wrapper(*args, **kwargs):
            count(name + ".calls")
            inner = fn(*args, **kwargs)

            def resumes():
                while True:
                    idx, nd, ld = enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(nid, idx, nd, ld)
                    count(name + ".items")
                    yield item

            return resumes()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks recording counts at the boundary --------------------------

    def _after_check_chunk(self, args, result) -> None:
        txs = args[0]
        if not hasattr(txs, "txs"):  # a Chunk is accepted without a scan
            self._count("ieutxo.check_chunk.txs_scanned", len(txs))

    def _after_compose(self, args, result) -> None:
        if result is self._fail:
            self._count("ieutxo.compose.fail")

    def _after_checker(self, args, result) -> None:
        self._count("axioms.laws_checked", sum(r.checked for r in result.results))

    def _orientation(self, fn: Callable, cached: bool) -> Callable:
        """Orientation oracle wrapper; on ChunkAcs also counts cache hits."""
        span = self._span("acs.orientation", fn)
        if not cached:
            return span
        fail, count = self._fail, self._count

        def wrapper(inst, x):
            if x is not fail:
                count("acs.orientation.lookups")
                if x in getattr(inst, "_orientation", ()):
                    count("acs.orientation.hits")
            return span(inst, x)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ----------------------------------------------

    def _modules(self) -> list[Any]:
        return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._fail = sys.modules[PACKAGE + ".ieutxo"].FAIL
        after = {
            "ieutxo.check_chunk": self._after_check_chunk,
            "ieutxo.compose": self._after_compose,
            "axioms.monoid": self._after_checker,
            "axioms.oriented": self._after_checker,
            "axioms.atomic": self._after_checker,
            "axioms.partial_converse": self._after_checker,
        }
        modules = self._modules()
        for name, mod_name, attr, kind in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._span(name, cls.__dict__[meth], after.get(name)))
                continue
            original = getattr(home, attr)
            if kind == "gen":
                wrapped = self._gen(name, original)
            elif kind == "count":
                wrapped = self._counted(name, original)
            else:
                wrapped = self._span(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        acs = sys.modules[f"{PACKAGE}.acs"]
        for cls_name in ORIENTED_CLASSES:
            cls = getattr(acs, cls_name)
            for meth in ORIENTATION:
                self._patch(cls, meth, self._orientation(cls.__dict__[meth], cls_name == "ChunkAcs"))
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def patched(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) for every replacement in place."""
        return list(self._patches)

    # -- analysis -------------------------------------------------------

    def analyse(self, setup: bool) -> dict:
        """Per-name calls, busy and self time, and per-layer self and busy
        time, over the spans of the setup or of the ops."""
        n = len(self.start)
        names = self.names
        child = [0] * n
        sid, parent, start, end, op = self.sid, self.parent, self.start, self.end, self.op
        for i in range(n):
            p = parent[i]
            if p != NO_PARENT:
                child[p] += end[i] - start[i]
        per_name = {name: {"calls": 0, "busy_ns": 0, "self_ns": 0} for name in names}
        layer_self = {layer: 0 for layer in LAYERS}
        layer_busy = {layer: 0 for layer in LAYERS}
        top_ns = 0
        for i in range(n):
            if (op[i] == SETUP_OP) != setup:
                continue
            s = sid[i]
            name = names[s & NAME_MASK]
            dur = end[i] - start[i]
            own = dur - child[i]
            rec = per_name[name]
            rec["calls"] += 1
            rec["self_ns"] += own
            if not s & NESTED_NAME:
                rec["busy_ns"] += dur
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own
                if not s & NESTED_LAYER:
                    layer_busy[layer] += dur
            if parent[i] == NO_PARENT:
                top_ns += dur
        return {
            "names": per_name,
            "layer_self_ns": layer_self,
            "layer_busy_ns": layer_busy,
            "top_level_ns": top_ns,
        }

    def parent_named(self, child_name: str, parent_name: str) -> int:
        """How many ``child_name`` spans sit directly under a ``parent_name`` span."""
        cid = self._name_ids.get(child_name)
        pid = self._name_ids.get(parent_name)
        if cid is None or pid is None:
            return 0
        sid, parent = self.sid, self.parent
        return sum(
            1
            for i in range(len(sid))
            if sid[i] & NAME_MASK == cid and parent[i] != NO_PARENT and sid[parent[i]] & NAME_MASK == pid
        )

    def dump(self, path: str) -> None:
        """Write every span (and the counters) as gzipped JSON columns."""
        payload = {
            "names": self.names,
            "name_id": [s & NAME_MASK for s in self.sid],
            "parent": list(self.parent),
            "op": list(self.op),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "counts": self.counts,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
