"""Every name perfbench's span tracer wraps must exist in the library.

The tracer patches ``chunkalg`` functions and methods by name, and reads
``ChunkAcs``'s orientation cache by its attribute name, so deleting or
renaming one of them breaks the benchmark, or silently zeroes a counter;
these tests fail first.  The tracer module is loaded from its file and only
read.
"""

import importlib
import importlib.util
import os

from chunkalg import acs
from chunkalg.ieutxo import Chunk

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
