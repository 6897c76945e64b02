"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run(workload, trace, tmp_path):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.05", "--trace", trace,
                  "--size", "tiny", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "1":
        assert list(tmp_path.glob(f"spans-{workload}-seed3.json.gz"))
    else:
        assert "verdict_errors" in proc.stdout and "failed_ops_ratio" in proc.stdout


def test_same_seed_same_inputs():
    a = workloads.ledger_setup(5, "tiny")["streams"]
    b = workloads.ledger_setup(5, "tiny")["streams"]
    assert a == b
    assert a != workloads.ledger_setup(6, "tiny")["streams"]


def _snapshot(modules, classes):
    return [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]


def test_trace_wrappers_restore_originals():
    import chunkalg
    from chunkalg import acs, ieutxo

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("chunkalg")] + [workloads]
    classes = [acs.FiniteSetsAcs, acs.SubstAcs, acs.ChunkAcs]
    before = _snapshot(modules, classes)
    tracer = spans.Tracer()
    with tracer:
        assert ieutxo.check_chunk is not before[modules.index(ieutxo)]["check_chunk"]
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in tracer.patched())
        # a call made inside the library is seen: compose revalidates
        # through the module-level check_chunk
        ieutxo.compose(ieutxo.EMPTY_CHUNK, ieutxo.EMPTY_CHUNK)
    assert tracer.patched() == []
    after = _snapshot(modules, classes)
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is b[k] for k in b)
    names = {tracer.names[s & spans.NAME_MASK] for s in tracer.sid}
    assert {"ieutxo.compose", "ieutxo.check_chunk"} <= names
    assert chunkalg.compose is ieutxo.compose


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    from chunkalg import ieutxo

    with tracer:
        tracer.current_op = 0
        ieutxo.compose(ieutxo.EMPTY_CHUNK, ieutxo.EMPTY_CHUNK)
    rep = tracer.analyse(setup=False)
    compose = rep["names"]["ieutxo.compose"]
    check = rep["names"]["ieutxo.check_chunk"]
    assert compose["calls"] == 1 and check["calls"] == 2
    assert compose["self_ns"] == compose["busy_ns"] - check["busy_ns"]


def test_injected_wrong_verdict_is_counted():
    inputs = workloads.ledger_setup(4, "tiny")
    blocks = inputs["streams"][0]
    ph = run.run_epochs(workloads.ledger_epoch, inputs, 0, max_epochs=1)
    assert ph.verdict_errors == 0 and ph.failed == 0
    reject = next(i for i, b in enumerate(blocks) if b[2][0] == "reject")
    text, n, _answer, kind = blocks[reject]
    blocks[reject] = (text, n, ("reject", "NoSuchKind"), kind)
    ph = run.run_epochs(workloads.ledger_epoch, inputs, 60, max_epochs=2)
    assert ph.verdict_errors == 2 and ph.failed == 0

    pool = workloads.confluence_setup(4, "tiny")["pool"]
    triple, want = pool[0]
    pool[0] = (triple, "Verified" if want != "Verified" else "PremisesFailed")
    ph = run.run_epochs(workloads.confluence_epoch, {"pool": pool}, 0, max_epochs=1)
    assert ph.verdict_errors == 1


def test_invalid_blocks_cover_every_kind():
    for blocks in workloads.ledger_setup(2, "full")["streams"]:
        kinds = {b[3] for b in blocks if b[3] is not None}
        assert kinds == set(workloads.INVALID_KINDS)
        assert 0.05 < sum(b[3] is not None for b in blocks) / len(blocks) < 0.15


def test_input_tail_ignores_one_off_stalls():
    ph = run.Phase()
    times = []
    for epoch in range(5):
        for i in range(40):
            ph.key_ids.append(ph.keys.setdefault(i, len(ph.keys)))
            # input i always takes i ms; one op per epoch stalls for 1 s
            times.append(1.0 if i == 3 * epoch else i / 1000)
    value, pct, inputs = run.input_tail(ph, times)
    assert inputs == 40 and pct == 75.0
    assert value == 29 / 1000


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "confluence", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
