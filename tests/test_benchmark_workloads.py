"""The benchmark's workloads run against the library as it is.

``perfbench/workloads.py`` calls the library's public functions and
constructors; a change to one of their signatures breaks the benchmark.
Each workload is set up at its smoke-test size and one epoch is run here:
every op's check must pass, and so must the workload's final checks.  The
module is loaded from its file and only read; it is registered in
``sys.modules`` because its dataclasses look their module up there.
"""

import importlib.util
import os
import sys

import pytest

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    name = "_perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["ledger-ingest", "confluence", "law-audit"])
def test_workload_epoch_passes_its_checks(workloads, name):
    setup, epoch, final_checks = workloads.WORKLOADS[name]
    inputs = setup(101, "tiny")
    ran = 0
    for op in epoch(inputs, 0):  # lazily: an op may read the state its predecessor left
        assert op.check(op.call()), op.key
        ran += 1
    assert ran
    if final_checks is not None:
        assert final_checks(inputs) == []
