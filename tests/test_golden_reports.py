"""CLI reports pinned byte for byte.

``fixtures/golden/runs.json`` lists a fixed set of CLI runs (arguments with
``{fixtures}`` standing for the fixture directory, and the exit code); each
``fixtures/golden/<name>.json`` is the exact ``--json`` stdout of that run,
as ``chunkalg <argv> --json`` printed it when the set was captured.  A
change that alters any report, law order or witness included, fails here.

Each report belongs to exactly one run: two runs may not share a name,
and a report with no run fails too, so no renamed or dropped run leaves an
orphan behind.

Every run is made twice: on ``fixtures/``, and on a copy whose model files
omit ``probe_candidates``.  Each fixture model declares exactly its
enumeration, which is also the universe a model without candidates gets,
so the reports must not change.
"""

import json
import os
import shutil

import pytest

from chunkalg.cli import main

from conftest import FIXTURES, fixture_path

GOLDEN = fixture_path("golden")
MODEL_FILES = ("backbone_model.json", "blocked_model.json", "pair_model.json")

with open(os.path.join(GOLDEN, "runs.json"), encoding="utf-8") as _fh:
    RUNS = json.load(_fh)


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    """The fixture directory, and a copy whose models declare no candidates."""
    stripped = tmp_path_factory.mktemp("stripped") / "fixtures"
    shutil.copytree(FIXTURES, stripped, ignore=shutil.ignore_patterns("golden"))
    for name in MODEL_FILES:
        path = stripped / name
        model = json.loads(path.read_text(encoding="utf-8"))
        assert model.pop("probe_candidates") == [tx["name"] for tx in model["transactions"]]
        path.write_text(json.dumps(model), encoding="utf-8")
    return {"declared": FIXTURES, "stripped": str(stripped)}


@pytest.mark.parametrize(
    "run, models",
    [pytest.param(r, "declared", id=r["name"]) for r in RUNS]
    + [pytest.param(r, "stripped", id=r["name"] + "-stripped") for r in RUNS],
)
def test_golden_report(run, models, fixture_dirs, capsys):
    argv = [a.replace("{fixtures}", fixture_dirs[models]) for a in run["argv"]]
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, run["name"] + ".json"), encoding="utf-8") as fh:
        expected = fh.read()
    assert out == expected
    assert code == run["exit"]


def test_each_report_has_exactly_one_run():
    names = [r["name"] for r in RUNS]
    assert len(names) == len(set(names))
    reports = {f[: -len(".json")] for f in os.listdir(GOLDEN) if f != "runs.json"}
    assert reports == set(names)
