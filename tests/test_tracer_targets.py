"""Every name perfbench's span tracer wraps must exist in the library.

The tracer patches ``chunkalg`` functions and methods by name, and reads
``ChunkAcs``'s orientation cache by its attribute name, so deleting or
renaming one of them breaks the benchmark, or silently zeroes a counter;
these tests fail first.  Validator calls are counted at
``scripts.evaluate_script``, so every one the library makes must go
through it.  The tracer module is loaded from its file and only
read.
"""

import importlib
import importlib.util
import os
import sys

from chunkalg import acs, scripts
from chunkalg.ieutxo import Chunk, check_chunk
from chunkalg.jsonio import load_txlist

from conftest import fixture_path

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    spans = _tracer_module()
    assert spans.TARGETS
    for name, mod_name, attr, kind in spans.TARGETS:
        target = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = vars(getattr(target, cls_name))
            assert callable(target.get(meth)), name
        else:
            assert callable(getattr(target, attr, None)), name
        assert kind in ("span", "gen", "count"), name


def test_every_oriented_class_defines_its_orientation_methods():
    """The tracer patches each orientation oracle through the class dict."""
    spans = _tracer_module()
    for cls_name in spans.ORIENTED_CLASSES:
        own = vars(getattr(acs, cls_name))
        for meth in spans.ORIENTATION:
            assert callable(own.get(meth)), (cls_name, meth)


def test_orientation_cache_is_keyed_by_the_chunk(backbone_model):
    """The tracer counts a cache hit when the chunk is a key of
    ``ChunkAcs._orientation``; the cache's own statistics agree."""
    inst = acs.ChunkAcs(backbone_model)
    x = Chunk(backbone_model.transactions[:1])
    assert x not in inst._orientation
    inst.left(x)
    assert x in inst._orientation
    assert inst.cache_info() == (0, 1, len(inst._orientation))
    inst.up(x)
    assert inst.cache_info() == (1, 1, 1)


def test_every_validator_call_goes_through_evaluate_script(monkeypatch):
    """The tracer counts validator calls by patching ``evaluate_script``
    wherever a module binds it, so a library path that called a script's
    ``evaluate`` directly would go uncounted.  With the same patch, scanning
    a chunk counts exactly one call per matched spend."""
    calls = []
    original = scripts.evaluate_script

    def counted(script, datum, ptx):
        calls.append(ptx.point)
        return original(script, datum, ptx)

    for name, module in list(sys.modules.items()):
        if name == "chunkalg" or name.startswith("chunkalg."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    txs, _ = load_txlist(fixture_path("backbone_full.json"))
    made = {o.position: t for t, tx in enumerate(txs) for o in tx.outputs}
    spends = [i for t, tx in enumerate(txs) for i in tx.inputs if made.get(i.position, t) < t]
    assert len(spends) == 5
    assert check_chunk(txs).ok
    assert calls == spends
