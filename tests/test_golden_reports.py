"""CLI reports pinned byte for byte.

``fixtures/golden/runs.json`` lists a fixed set of CLI runs (arguments with
``{fixtures}`` standing for the fixture directory, and the exit code); each
``fixtures/golden/<name>.json`` is the exact ``--json`` stdout of that run,
as ``chunkalg <argv> --json`` printed it when the set was captured.  A
change that alters any report, law order or witness included, fails here.
"""

import json
import os

import pytest

from chunkalg.cli import main

from conftest import FIXTURES, fixture_path

GOLDEN = fixture_path("golden")

with open(os.path.join(GOLDEN, "runs.json"), encoding="utf-8") as _fh:
    RUNS = json.load(_fh)


@pytest.mark.parametrize("run", RUNS, ids=[r["name"] for r in RUNS])
def test_golden_report(run, capsys):
    argv = [a.replace("{fixtures}", FIXTURES) for a in run["argv"]]
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, run["name"] + ".json"), encoding="utf-8") as fh:
        expected = fh.read()
    assert out == expected
    assert code == run["exit"]
