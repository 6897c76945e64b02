"""Every name perfbench's span tracer wraps must exist in the library.

The tracer patches ``chunkalg`` functions and methods by name, so deleting
or renaming one of them breaks the benchmark; this test fails first.  The
tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
import os

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
