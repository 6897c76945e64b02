"""Batch command-line surface.

Subcommands: ``validate``, ``ledger``, ``commute``, ``acs-check``,
``adjunction``, ``church-rosser``.  Every command emits a deterministic JSON
report (``--json``) or a human-readable summary; randomized commands echo
their seed so a run can be reproduced from its report, and take a positive
``--samples``.  ``ledger`` adds the blocked sets when the chunk file names
a model or ``--probe-file`` gives one, probing with that model's universe
(its enumeration unless it declares candidates).  Exit codes: 0 on
success / all checks passing, 1 on violations or failed checks, 2 on parse
and usage errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import __version__
from .acs import AcsInstance, ChunkAcs, FiniteSetsAcs, SubstAcs
from .axioms import (
    atomic_axiom_check,
    monoid_axiom_check,
    oriented_axiom_check,
    partial_converse_check,
)
from .functors import check_adjunction
from .generators import GenConfig, gen_cr_triple, gen_model, stream
from .ieutxo import (
    Chunk,
    ChunkReport,
    NotAChunk,
    blocked_utxi,
    blocked_utxo,
    check_church_rosser,
    composable,
    ledger_sets,
    pos,
)
from .jsonio import ParseError, dumps, load_model, load_txlist

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_IO = 3


def _seed_from(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CHUNKALG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"CHUNKALG_SEED must be an integer, got {env!r}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _report(command: str, status: str, payload: dict, seed: Optional[int] = None) -> dict:
    report: dict = {
        "schema_version": 1,
        "command": command,
        "status": status,
        "payload": payload,
    }
    if seed is not None:
        report["seed"] = seed
    return report


def _emit(args: argparse.Namespace, report: dict, human: list[str]) -> None:
    if args.json:
        print(dumps(report))
    else:
        for line in human:
            print(line)


# ---------------------------------------------------------------------------
# Commands


def _as_chunk(txs: tuple) -> tuple[Optional[Chunk], ChunkReport]:
    """The chunk of ``txs`` and its check, or None and the first violation."""
    try:
        return Chunk(txs), ChunkReport()
    except NotAChunk as exc:
        return None, exc.report


def _ledger_payload(chunk: Chunk) -> dict:
    """The chunk's sorted ledger sets, and whether it is a blockchain."""
    utxi, utxo, stx = map(sorted, ledger_sets(chunk))
    return {"utxi": utxi, "utxo": utxo, "stx": stx, "is_blockchain": not utxi}


def cmd_validate(args: argparse.Namespace) -> int:
    txs, _model = load_txlist(args.file)
    chunk, report = _as_chunk(txs)
    payload: dict = {"transactions": len(txs), "check": report.to_obj()}
    status = "ok" if report.ok else "violations"
    if report.ok:
        payload.update(_ledger_payload(chunk))
        human = [
            f"chunk: {len(txs)} transaction(s) valid",
            f"utxi={payload['utxi']} utxo={payload['utxo']} stx={payload['stx']}",
            f"blockchain: {payload['is_blockchain']}",
        ]
    else:
        human = [f"not a chunk: {report.violation}"]
    _emit(args, _report("validate", status, payload), human)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_ledger(args: argparse.Namespace) -> int:
    txs, model = load_txlist(args.file)
    chunk, report = _as_chunk(txs)
    if not report.ok:
        human = [f"not a chunk: {report.violation}"]
        _emit(args, _report("ledger", "violations", {"check": report.to_obj()}), human)
        return EXIT_VIOLATIONS
    payload = _ledger_payload(chunk)
    human = [
        f"utxi: {payload['utxi']}",
        f"utxo: {payload['utxo']}",
        f"stx:  {payload['stx']}",
        f"blockchain: {payload['is_blockchain']}",
    ]
    payload["pos"] = sorted(pos(chunk))
    if args.probe_file:
        model, _ = load_model(args.probe_file)
    if model is not None:
        payload["blocked_utxi"] = sorted(blocked_utxi(chunk, model))
        payload["blocked_utxo"] = sorted(blocked_utxo(chunk, model))
        human.append(
            f"blocked: utxi={payload['blocked_utxi']} utxo={payload['blocked_utxo']}"
        )
    _emit(args, _report("ledger", "ok", payload), human)
    return EXIT_OK


def cmd_commute(args: argparse.Namespace) -> int:
    (a, rep_a), (b, rep_b) = (_as_chunk(load_txlist(f)[0]) for f in (args.file_a, args.file_b))
    for label, rep in (("first", rep_a), ("second", rep_b)):
        if not rep.ok:
            _emit(
                args,
                _report("commute", "violations", {label: rep.to_obj()}),
                [f"{label} file is not a chunk: {rep.violation}"],
            )
            return EXIT_VIOLATIONS
    ab, ba = composable(a, b), composable(b, a)
    disjoint = not (pos(a) & pos(b))
    commute = ab == ba
    consistent = True
    if ab or ba:
        # with one order defined the three freshness conditions must agree
        consistent = disjoint == (ab and ba) == commute
    payload = {
        "ab_valid": ab,
        "ba_valid": ba,
        "commuting": commute,
        "positions_disjoint": disjoint,
        "freshness_equivalence_consistent": consistent,
    }
    human = [
        f"a·b valid: {ab};  b·a valid: {ba}",
        f"commuting: {commute};  disjoint positions: {disjoint}",
        f"freshness equivalence consistent: {consistent}",
    ]
    status = "ok" if consistent else "violations"
    _emit(args, _report("commute", status, payload), human)
    return EXIT_OK if consistent else EXIT_VIOLATIONS


def _resolve_instance(spec: str, samples: int, seed: int) -> tuple[AcsInstance, list]:
    if spec == "finsets":
        inst: AcsInstance = FiniteSetsAcs(("a", "b", "c", "d"))
    elif spec == "subst":
        inst = SubstAcs(("a", "b", "c", "d"))
    elif spec.startswith("chunks:") and spec != "chunks:":
        inst = ChunkAcs(load_model(spec.split(":", 1)[1])[0])
    else:
        raise ParseError(
            f"unknown instance {spec!r}; expected finsets | subst | chunks:<model-file>"
        )
    return inst, inst.sample_elements(samples, seed)


def cmd_acs_check(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    inst, elements = _resolve_instance(args.instance, args.samples, seed)
    probes = elements if len(elements) <= 32 else inst.sample_elements(32, seed + 1)
    reports = [
        monoid_axiom_check(inst, elements, seed=seed),
        oriented_axiom_check(inst, elements, seed=seed, probes=probes),
        atomic_axiom_check(inst, elements, seed=seed, strict=args.strict or None),
        partial_converse_check(inst, elements, seed=seed, probes=probes),
    ]
    ok = all(r.ok for r in reports)
    payload = {
        "instance": inst.name,
        "elements": len(elements),
        "strict": bool(args.strict),
        "reports": [r.to_obj() for r in reports],
    }
    human = [f"instance {inst.name}: {len(elements)} elements"]
    for r in reports:
        human.append(f"  {r.kind}: {'pass' if r.ok else 'FAIL'}")
        for law in r.results:
            if not law.ok:
                human.append(f"    {law.law}: FAIL {law.witnesses[:2]}")
            elif not law.exercised:
                human.append(f"    {law.law}: pass, not exercised (checked 0 times)")
    _emit(args, _report("acs-check", "ok" if ok else "violations", payload, seed), human)
    return EXIT_OK if ok else EXIT_VIOLATIONS


def cmd_adjunction(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    if args.model:
        model, _ = load_model(args.model)
    else:
        cfg = GenConfig(seed=seed, max_txs=4)
        model = gen_model(cfg, stream(cfg), name=f"gen{seed}")
    inst = ChunkAcs(model)
    report = check_adjunction(
        model, inst, seed=seed, samples=args.samples, strict=args.strict
    )
    # the law table plus the choices the checks depend on
    payload = {
        "report": report.to_obj(),
        "materialized_atomics": len(inst.atomic_elements()),
        "factor_choice": "instance canonical factorisation",
        "model_transactions": len(model.transactions),
    }
    ok = report.ok
    human = [f"model {model.name}: adjunction {'pass' if ok else 'FAIL'}"]
    for law in report.results:
        unexercised = "" if law.exercised else ", not exercised (checked 0 times)"
        human.append(f"  {law.law}: {'pass' if law.ok else 'FAIL'}{unexercised}")
    _emit(args, _report("adjunction", "ok" if ok else "violations", payload, seed), human)
    return EXIT_OK if ok else EXIT_VIOLATIONS


def cmd_church_rosser(args: argparse.Namespace) -> int:
    seed = _seed_from(args)
    if args.files:
        lists = [load_txlist(path)[0] for path in args.files]
        try:
            triples = [tuple(map(Chunk, lists))]
        except NotAChunk as exc:
            _emit(
                args,
                _report("church-rosser", "violations", {"check": exc.report.to_obj()}),
                [f"input is not a chunk: {exc.report.violation}"],
            )
            return EXIT_VIOLATIONS
    else:
        cfg = GenConfig(seed=seed)
        rng = stream(cfg)
        triples = [gen_cr_triple(cfg, rng) for _ in range(args.samples)]
    outcomes: dict[str, int] = {}
    first_bad = None
    for y, x, x2 in triples:
        rep = check_church_rosser(y, x, x2)
        outcomes[rep.status] = outcomes.get(rep.status, 0) + 1
        if rep.status == "CounterexampleFound" and first_bad is None:
            first_bad = rep.to_obj()
    ok = outcomes.get("CounterexampleFound", 0) == 0
    payload = {"triples": len(triples), "outcomes": outcomes}
    if first_bad:
        payload["counterexample"] = first_bad
    human = [f"{len(triples)} triple(s): {outcomes}"]
    _emit(
        args,
        _report("church-rosser", "ok" if ok else "violations", payload, seed),
        human,
    )
    return EXIT_OK if ok else EXIT_VIOLATIONS


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkalg",
        description="Validate transaction lists, query ledgers, and audit chunk-system laws.",
    )
    parser.add_argument("--version", action="version", version=f"chunkalg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seeded: bool = False) -> None:
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="RNG seed (or CHUNKALG_SEED)")
            p.add_argument("--samples", type=_positive_int, default=200, help="sample count (positive)")

    p = sub.add_parser("validate", help="check a transaction list file")
    p.add_argument("file")
    common(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("ledger", help="unspent/spent channel sets of a chunk file")
    p.add_argument("file")
    p.add_argument("--probe-file", default=None, help="model file providing probe candidates")
    common(p)
    p.set_defaults(handler=cmd_ledger)

    p = sub.add_parser("commute", help="compare both composition orders of two chunk files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)
    p.set_defaults(handler=cmd_commute)

    p = sub.add_parser("acs-check", help="run the axiom checkers on an instance")
    p.add_argument("instance", help="finsets | subst | chunks:<model-file>")
    p.add_argument("--strict", action="store_true", help="require perfectly-atomic laws")
    common(p, seeded=True)
    p.set_defaults(handler=cmd_acs_check)

    p = sub.add_parser("adjunction", help="round-trip checks for a model")
    p.add_argument("--model", default=None, help="model file (default: generate)")
    p.add_argument("--strict", action="store_true", help="also require the counit bijective")
    common(p, seeded=True)
    p.set_defaults(handler=cmd_adjunction)

    p = sub.add_parser("church-rosser", help="confluence premises and conclusions")
    p.add_argument("--files", nargs=3, metavar=("Y", "X", "X2"), default=None)
    common(p, seeded=True)
    p.set_defaults(handler=cmd_church_rosser)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
