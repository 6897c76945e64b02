"""chunkalg benchmark: one workload per process, closed loop, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ledger-ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics: the inputs are generated
``setup_repeats`` times (``setup_s`` is the median), then whole epochs of ops
run until ``--seconds`` have passed.  Every time reported is scaled to a
nominal host speed, measured by a fixed reference loop between slices of
work (see ``HostSpeed``).  ``--trace 1`` runs the same epochs
twice, untraced and then under the span tracer, and reports the per-layer
metrics and the tracing overhead; the spans are written to ``--out``.

Every op's result is compared with the known answer built at setup; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ledger-ingest", "confluence", "law-audit")

# Host speed.  On a shared host the same Python code runs at speeds up to
# 2x apart, in spells that can outlast a whole run, and each CPU has its
# own spells.  So a fixed pure-Python loop that touches no library code is
# timed on each CPU the process may use (at most MAX_CPUS), before the work
# and after every slice of at least SLICE_S seconds; the process moves to
# the CPU where the loop ran fastest, and the slice's times are multiplied
# by REFERENCE_S / (the faster of the loop's two times on that CPU around
# the slice).  A time thus reads as it would on a CPU where the loop takes
# REFERENCE_S, about its time on the 2-vCPU Xeon VM the baseline was
# measured on, at that host's faster speed.
REFERENCE_ITERS = 8000
REFERENCE_S = 0.010
SLICE_S = 0.2
MAX_CPUS = 4


def import_library() -> None:
    """Import chunkalg from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import chunkalg
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import chunkalg from {SRC}: {exc}")
    origin = Path(chunkalg.__file__).resolve().parent
    if origin != SRC / "chunkalg":
        raise SystemExit(f"perfbench: chunkalg imported from {origin}, expected {SRC / 'chunkalg'}")


# ---------------------------------------------------------------------------
# Host speed


class _Item:
    __slots__ = ("name", "rank")

    def __init__(self, name, rank):
        self.name = name
        self.rank = rank

    def key(self):
        return (self.name, self.rank)


def _reference_loop(n: int) -> int:
    """Fixed interpreter work of the library's kind: small objects, tuples,
    frozensets, string formatting, hashing and dict lookups."""
    acc = 0
    table = {}
    for i in range(n):
        key = _Item("p%d" % (i % 97), i % 13).key()
        members = frozenset((key, i % 7))
        table[key] = members
        if key in table:
            acc += len(table[key])
        acc ^= hash(members) & 0xFF
    return acc


def reference_s() -> float:
    """Wall time of one pass of the reference loop, with the collector off
    so that the heap the workload holds does not slow the loop."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop(REFERENCE_ITERS)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Times the reference loop on each usable CPU and keeps the process on
    the fastest; ``scale()`` gives the host-speed scale of the work done
    since the previous call (or since construction)."""

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        except AttributeError:  # no CPU affinity on this platform
            self.cpus = []
        self.cpu = None
        self.before = self._settle(self._time_each())

    def _time_each(self) -> dict:
        if len(self.cpus) < 2:
            return {None: reference_s()}
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = reference_s()
        return times

    def _settle(self, times: dict) -> float:
        self.cpu = min(times, key=times.get)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})
        return times[self.cpu]

    def scale(self) -> float:
        times = self._time_each()
        scale = REFERENCE_S / min(self.before, times[self.cpu])
        self.before = self._settle(times)
        return scale


# ---------------------------------------------------------------------------
# Timed phase


class Phase:
    """Outcome of running whole epochs of ops."""

    def __init__(self):
        self.durations = array("f")  # raw seconds; 4 bytes keeps RSS nearly independent of op count
        self.key_ids = array("i")  # per op in durations: the index of its input's key
        self.keys: dict = {}  # input key -> index
        self.slices: list[tuple[int, float]] = []  # (end index in durations, host-speed scale)
        self.epoch_ops: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.verdict_errors = 0
        self.ingested = 0
        self.wall = 0.0  # raw wall time of the ops and their checks
        self.scaled_wall = 0.0
        self.first_error = ""

    def scaled_durations(self) -> array:
        """The op times, each multiplied by its slice's host-speed scale."""
        out, start = array("f"), 0
        for end, scale in self.slices:
            out.extend(d * scale for d in self.durations[start:end])
            start = end
        return out

    def scales(self) -> list[float]:
        return [scale for _end, scale in self.slices]


def run_epochs(epoch, inputs, seconds: float, max_epochs: int | None = None, tracer=None) -> Phase:
    """Closed loop: each op starts when the previous one has been checked.

    Runs whole epochs until ``seconds`` have passed (at least one) or
    ``max_epochs`` are done.  With a tracer, each op's spans carry its index.
    The reference loop runs before the first op and after every slice of at
    least SLICE_S seconds, outside the ops' timers and ``wall`` (see HostSpeed).
    """
    ph = Phase()
    clock = time.perf_counter
    speed = HostSpeed()
    start = slice_start = clock()

    def close_slice() -> None:
        nonlocal slice_start
        wall = clock() - slice_start
        scale = speed.scale()
        ph.slices.append((len(ph.durations), scale))
        ph.wall += wall
        ph.scaled_wall += wall * scale
        slice_start = clock()

    index = 0
    while True:
        for op in epoch(inputs, index):
            if tracer is not None:
                tracer.current_op = ph.attempted
            ph.attempted += 1
            ph.ingested += op.ingested
            t0 = clock()
            try:
                got = op.call()
            except Exception:
                ph.failed += 1
                if not ph.first_error:
                    ph.first_error = traceback.format_exc()
                continue
            ph.durations.append(clock() - t0)
            ph.key_ids.append(ph.keys.setdefault(op.key, len(ph.keys)))
            if not op.check(got):
                ph.verdict_errors += 1
            if clock() - slice_start >= SLICE_S:
                close_slice()
        ph.epoch_ops.append(len(ph.durations) - sum(ph.epoch_ops))
        index += 1
        if clock() - start >= seconds or index == max_epochs:
            break
    close_slice()
    return ph


def tail(durations) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has at least ten
    samples beyond it; the maximum when there are too few."""
    s = sorted(durations)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def input_tail(ph: Phase, durations) -> tuple[float, float, int]:
    """``tail`` over the distinct inputs of the run, each taken at the
    median of its ``durations``: (value, percentile, number of inputs).

    Epochs repeat their inputs, so a one-off stall of the host lands in one
    op of an input and not in its median; an input that is slow every time
    stays in the tail."""
    per_input: list[list[float]] = [[] for _ in ph.keys]
    for key_id, d in zip(ph.key_ids, durations):
        per_input[key_id].append(d)
    value, pct = tail([statistics.median(ds) for ds in per_input])
    return value, pct, len(per_input)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# The two modes


def end_to_end(name: str, seed: int, seconds: float, size: str) -> dict:
    import workloads

    setup, epoch, final_checks = workloads.WORKLOADS[name]
    repeats = workloads.SIZES[size]["setup_repeats"]
    setup_times, setup_raw = [], []
    inputs = None
    for _ in range(repeats):
        inputs = None
        gc.collect()
        speed = HostSpeed()
        t0 = time.perf_counter()
        inputs = setup(seed, size)
        took = time.perf_counter() - t0
        setup_raw.append(took)
        setup_times.append(took * speed.scale())
    gc.collect()
    gc.freeze()
    ph = run_epochs(epoch, inputs, seconds)
    rss = peak_rss_mb()  # before the checks and statistics below allocate
    problems = final_checks(inputs) if final_checks else []

    n = len(ph.durations)
    durations = ph.scaled_durations()
    tail_s, tail_pct, inputs_seen = input_tail(ph, durations) if n else (0.0, 0.0, 0)
    metrics = {
        "ops_per_s": metric(n / ph.scaled_wall, "1/s"),
        "op_p50_ms": metric(statistics.median(durations) * 1e3 if n else 0.0, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    epochs = len(ph.epoch_ops)
    print(f"workload {name} seed {seed} size {size}: {n} ops in {ph.wall:.2f} s, "
          f"{epochs} epoch(s) of {ph.attempted // epochs} ops")
    for key, m in metrics.items():
        print(f"  {key:<18} {m['value']:.6g} {m['unit']}")
    scales = ph.scales()
    print(f"    times are scaled to the nominal host speed: the median scale over {len(scales)} slice(s) was "
          f"{statistics.median(scales):.4g} (range {min(scales):.4g}-{max(scales):.4g}); unscaled, "
          f"ops_per_s was {n / ph.wall:.6g} and setup_s {statistics.median(setup_raw):.6g}")
    print(f"    op_tail_ms is p{tail_pct:.3f} (10 inputs beyond) over the {inputs_seen} distinct inputs of the "
          f"{n} ops, each input at the median of its ops; setup_s is the median of {repeats} setups")
    print(f"  {'verdict_errors':<18} {ph.verdict_errors} count")
    print(f"  {'failed_ops_ratio':<18} {ph.failed / ph.attempted:.6g} share "
          f"({ph.failed} failed of {ph.attempted} attempted)")
    for p in problems:
        print(f"  final check failed: {p}")
    if ph.first_error:
        print(ph.first_error, file=sys.stderr)
    return {
        "correct": ph.verdict_errors == 0 and ph.failed == 0 and not problems,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": metrics,
    }


def traced(name: str, seed: int, seconds: float, size: str, out_dir: Path) -> dict:
    import spans
    import workloads

    setup, epoch, _final = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    with tracer:
        inputs = setup(seed, size)
    tracer.counts.clear()  # the counters cover the traced ops only
    gc.collect()
    gc.freeze()
    # The traced pass replays the first epochs of the untraced pass, for at
    # most half as long, which bounds the number of spans held in memory.
    plain = run_epochs(epoch, inputs, seconds / 2)
    with tracer:
        traced_ph = run_epochs(epoch, inputs, seconds / 4, max_epochs=len(plain.epoch_ops), tracer=tracer)
    # Overhead compares the host-speed-scaled op time of the same epochs.
    epochs = len(traced_ph.epoch_ops)
    untraced_s = sum(plain.scaled_durations()[:sum(plain.epoch_ops[:epochs])])
    traced_s = sum(traced_ph.scaled_durations())
    overhead = traced_s / untraced_s

    rep = tracer.analyse(setup=False)
    setup_rep = tracer.analyse(setup=True)
    ops = traced_ph.attempted
    names = rep["names"]
    counts = tracer.counts

    def busy(span_name: str) -> float:
        return names.get(span_name, {}).get("busy_ns", 0) / 1e9 / ops

    def calls(span_name: str) -> float:
        return names.get(span_name, {}).get("calls", 0) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scanned = counts.get("ieutxo.check_chunk.txs_scanned", 0)
    compose_calls = names.get("ieutxo.compose", {}).get("calls", 0)
    op_ns = sum(traced_ph.durations) * 1e9
    values = {
        "ieutxo.check_chunk.calls": (calls("ieutxo.check_chunk"), "count/op"),
        "ieutxo.check_chunk.s": (busy("ieutxo.check_chunk"), "s/op"),
        "ieutxo.check_chunk.txs_scanned": (scanned / ops, "count/op"),
        "ieutxo.check_chunk.scan_per_ingested_tx": (ratio(scanned, traced_ph.ingested), "ratio"),
        "ieutxo.compose.calls": (calls("ieutxo.compose"), "count/op"),
        "ieutxo.compose.s": (busy("ieutxo.compose"), "s/op"),
        "ieutxo.compose.fail_ratio": (ratio(counts.get("ieutxo.compose.fail", 0), compose_calls), "ratio"),
        "ieutxo.ledger_sets.s": (busy("ieutxo.ledger_sets"), "s/op"),
        "ieutxo.blocked.s": (busy("ieutxo.blocked"), "s/op"),
        "ieutxo.blocked.probes": (tracer.parent_named("ieutxo.compose", "ieutxo.blocked") / ops, "count/op"),
        "ieutxo.enumerate_chunks.chunks": (counts.get("ieutxo.enumerate_chunks.items", 0) / ops, "count/op"),
        "ieutxo.enumerate_chunks.s": (busy("ieutxo.enumerate_chunks"), "s/op"),
        "functors.check_adjunction.s": (busy("functors.check_adjunction"), "s/op"),
        "functors.g_object.s": (busy("functors.g_object"), "s/op"),
        "scripts.evaluate_script.calls": (counts.get("scripts.evaluate_script.calls", 0) / ops, "count/op"),
        "scripts.script_label.calls": (calls("scripts.script_label"), "count/op"),
        "scripts.script_label.s": (busy("scripts.script_label"), "s/op"),
        "atoms.value_label.calls": (calls("atoms.value_label"), "count/op"),
        "atoms.value_label.s": (busy("atoms.value_label"), "s/op"),
        "acs.mcompose.calls": (calls("acs.mcompose"), "count/op"),
        "acs.mcompose.s": (busy("acs.mcompose"), "s/op"),
        "acs.orientation.s": (busy("acs.orientation"), "s/op"),
        "acs.orientation.cache_hit_ratio": (
            ratio(counts.get("acs.orientation.hits", 0), counts.get("acs.orientation.lookups", 0)),
            "ratio",
        ),
        "axioms.monoid.s": (busy("axioms.monoid"), "s/op"),
        "axioms.oriented.s": (busy("axioms.oriented"), "s/op"),
        "axioms.atomic.s": (busy("axioms.atomic"), "s/op"),
        "axioms.partial_converse.s": (busy("axioms.partial_converse"), "s/op"),
        "axioms.laws_checked": (counts.get("axioms.laws_checked", 0) / ops, "count/op"),
        "generators.s": (setup_rep["layer_busy_ns"]["generators"] / 1e9, "s"),
        "jsonio.tx_from_obj.s": (busy("jsonio.tx_from_obj"), "s/op"),
        "jsonio.dumps.s": (setup_rep["names"].get("jsonio.dumps", {}).get("busy_ns", 0) / 1e9, "s"),
    }
    for layer in spans.LAYERS:
        values[f"layer.{layer}.self_s"] = (rep["layer_self_ns"][layer] / 1e9 / ops, "s/op")
    values["layer.client.self_s"] = ((op_ns - rep["top_level_ns"]) / 1e9 / ops, "s/op")
    values["trace.overhead_ratio"] = (overhead, "ratio")
    values["trace.spans"] = (sum(rec["calls"] for rec in names.values()) / ops, "count/op")

    print(f"workload {name} seed {seed} size {size}: traced {ops} ops in {epochs} epoch(s); "
          f"scaled op time untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, overhead x{overhead:.3f}, "
          f"{len(tracer.start)} spans, peak RSS {peak_rss_mb():.1f} MB")
    print(f"  {'span':<32} {'calls/op':>12} {'busy s/op':>12} {'self s/op':>12}")
    for span_name in sorted(names):
        rec = names[span_name]
        if rec["calls"]:
            print(f"  {span_name:<32} {rec['calls'] / ops:>12.4g} {rec['busy_ns'] / 1e9 / ops:>12.4g} "
                  f"{rec['self_ns'] / 1e9 / ops:>12.4g}")
    print(f"  {'layer':<32} {'spans/op':>12} {'busy s/op':>12} {'self s/op':>12}")
    for layer in spans.LAYERS:
        n_spans = sum(rec["calls"] for key, rec in names.items() if key.split(".", 1)[0] == layer)
        print(f"  {layer:<32} {n_spans / ops:>12.4g} {rep['layer_busy_ns'][layer] / 1e9 / ops:>12.4g} "
              f"{rep['layer_self_ns'][layer] / 1e9 / ops:>12.4g}")
    print("  per-layer metrics:")
    for key, (v, unit) in values.items():
        print(f"    {key:<42} {v:.6g} {unit}")
    print(f"    bases: {traced_ph.ingested} ingested txs, {compose_calls} compositions, "
          f"{counts.get('acs.orientation.lookups', 0)} ChunkAcs orientation lookups, "
          f"{plain.attempted} untraced ops in {epochs} epoch(s)")

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.json.gz"
    tracer.dump(str(path))
    print(f"  spans written to {path}")
    correct = traced_ph.verdict_errors == 0 and plain.verdict_errors == 0
    failed = traced_ph.failed + plain.failed
    return {
        "correct": correct and failed == 0,
        "attempted": traced_ph.attempted + plain.attempted,
        "failed": failed,
        "metrics": {k: metric(v, unit) for k, (v, unit) in values.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, so no cache or peak RSS leaks."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
               "--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args(argv)
    import_library()
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = traced(args.workload, args.seed, args.seconds, args.size, args.out)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, args.size)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
