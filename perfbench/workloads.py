"""The three benchmark workloads.

Each workload has a ``setup(seed, size)`` that generates (and, where the
workload says so, serializes) every input the timed phase will use, and an
``epoch(inputs, index)`` that yields the ops of one pass.  An op is a pair
``(call, check)``: ``call()`` runs the library calls and is what the runner
times; ``check(result)`` compares the result with the known answer computed
during setup and runs outside the op's timer.  ``ingested`` is the number of
transactions the op hands to the library, the base of the
scanned-per-ingested ratio.  ``key`` names the op's input: ops with equal
keys repeat the same input, so the runner can take each input's typical
time.

The library is reached only through its public module functions, looked up
as module attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

from chunkalg import acs, axioms, functors, generators, ieutxo, jsonio
from chunkalg.ieutxo import (
    BACKWARD_OR_SELF_POINTER,
    DUPLICATE_OUTPUT_POSITION,
    VALIDATION_FAILED,
    Input,
    Output,
    Transaction,
)
from chunkalg.scripts import (
    AcceptAll,
    And,
    DatumEquals,
    InputPositionIn,
    KeyEquals,
    Not,
    Or,
    RejectAll,
)


@dataclass
class Op:
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    ingested: int
    key: Hashable


# Sizes: "full" is what the benchmark measures, "tiny" is the smoke-test size.
SIZES = {
    "full": {
        "ledger_streams": 4,
        "ledger_blocks": 240,
        "cr_pool": 2000,
        "audit_models": 80,
        "setup_repeats": 5,
    },
    "tiny": {
        "ledger_streams": 2,
        "ledger_blocks": 16,
        "cr_pool": 40,
        "audit_models": 4,
        "setup_repeats": 2,
    },
}


# ---------------------------------------------------------------------------
# ledger-ingest
#
# A stream of JSON blocks of four transactions each grows one chain from
# genesis.  About one block in ten is built invalid.  Each epoch replays
# every stream onto an empty chain, so every epoch sees the same chain
# lengths and the per-op distribution does not drift with the run length;
# several independent streams per seed keep the cost of one seed's inputs
# close to another's.

TXS_PER_BLOCK = 4
INVALID_EVERY = 10
# The probe universe's input keys and the keys its output validators demand;
# everything else a block carries is blocked from that universe.
PROBE_KEYS = ("k0", "k1")
INVALID_KINDS = ("reordered", "broken_validator", "duplicate_output")
EXPECTED_KIND = {
    "reordered": BACKWARD_OR_SELF_POINTER,
    "broken_validator": VALIDATION_FAILED,
    "duplicate_output": DUPLICATE_OUTPUT_POSITION,
}


def _probe_model() -> ieutxo.IeutxoModel:
    cands = (
        Transaction([Input("u1", "k0")], [Output("u2", 0, KeyEquals("k0"))]),
        Transaction(
            [Input("u3", "k1")],
            [Output("u4", 1, KeyEquals("k1")), Output("u5", 2, RejectAll())],
        ),
    )
    return ieutxo.IeutxoModel("ledger-probes", cands, probe_candidates=cands)


@dataclass
class _Open:
    """An unspent output as the generator knows it."""

    position: str
    witness: str | None  # a key the validator accepts; None if it accepts none
    accepts_probe: bool  # does the validator accept some probe-universe key?


def _validator(rng: random.Random, position: str, datum: int) -> tuple[Any, str | None, bool]:
    """A validator, a witness key for it, and whether a probe key passes it."""
    if rng.random() < 0.08:
        return RejectAll(), None, False
    kind = rng.randrange(5)
    if kind == 0:
        witness = f"k{rng.randrange(10)}"
        script: Any = KeyEquals(witness)
        probe_ok = witness in PROBE_KEYS
    else:
        witness = f"k{rng.randrange(10)}"
        script = (
            AcceptAll(),
            DatumEquals(datum),
            InputPositionIn(frozenset({position, f"q{rng.randrange(10)}"})),
            Not(RejectAll()),
        )[kind - 1]
        probe_ok = True
    wrap = rng.randrange(4)
    if wrap == 1:
        script = Or(RejectAll(), script)
    elif wrap == 2:
        script = And(script, Not(RejectAll()))
    return script, witness, probe_ok


class _LedgerGen:
    """Builds valid blocks on top of the chain's unspent outputs."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.open: list[_Open] = []
        self.spent: set[str] = set()
        self.outputs: list[str] = []  # every output position on the chain

    def fresh(self) -> str:
        self.counter += 1
        return f"p{self.counter}"

    def _outputs(self, n: int, opened: list[_Open]) -> list[Output]:
        outs = []
        for _ in range(n):
            p = self.fresh()
            d = self.rng.randrange(10)
            script, witness, probe_ok = _validator(self.rng, p, d)
            outs.append(Output(p, d, script))
            opened.append(_Open(p, witness, probe_ok))
        return outs

    def block(self, force_internal: bool) -> tuple[list[Transaction], list[_Open], list[str], dict]:
        """A valid block over the current open outputs, not yet committed.

        Returns the transactions, the outputs it opens that it leaves
        unspent, the chain positions it spends, and ``internal``: the
        (spender index, spent index, position) of one in-block spend, if any.
        """
        rng = self.rng
        avail = [o for o in self.open if o.witness is not None]
        rng.shuffle(avail)
        opened: list[_Open] = []
        spends_chain: list[str] = []
        txs: list[Transaction] = []
        internal: dict = {}
        born: dict[str, int] = {}
        for t in range(TXS_PER_BLOCK):
            inputs: list[Input] = []
            if not self.open and t == 0:
                outs = self._outputs(6, opened)
                for o in outs:
                    born[o.position] = t
                txs.append(Transaction((), outs))
                continue
            own = [o for o in opened if o.witness is not None]
            want = rng.randint(1, 2)
            take_own = own and (rng.random() < 0.4 or (force_internal and not internal))
            if take_own:
                slot = own[rng.randrange(len(own))]
                opened.remove(slot)
                inputs.append(Input(slot.position, slot.witness))
                internal.setdefault("spend", (t, born[slot.position], slot.position))
            while len(inputs) < want and avail:
                slot = avail.pop()
                inputs.append(Input(slot.position, slot.witness))
                spends_chain.append(slot.position)
            outs = self._outputs(rng.randint(1, 3), opened)
            for o in outs:
                born[o.position] = t
            txs.append(Transaction(inputs, outs))
        return txs, opened, spends_chain, internal

    def commit(self, txs: list[Transaction], opened: list[_Open], spends_chain: list[str]) -> None:
        gone = set(spends_chain)
        self.open = [o for o in self.open if o.position not in gone] + opened
        self.spent |= gone
        self.spent |= {i.position for tx in txs for i in tx.inputs} - gone
        self.outputs.extend(o.position for tx in txs for o in tx.outputs)


def _swap(txs: list[Transaction], i: int, j: int) -> list[Transaction]:
    out = list(txs)
    out[i], out[j] = out[j], out[i]
    return out


def _reject_output(txs: list[Transaction], t: int, position: str) -> list[Transaction]:
    tx = txs[t]
    outs = [Output(o.position, o.datum, RejectAll()) if o.position == position else o for o in tx.outputs]
    out = list(txs)
    out[t] = Transaction(tx.inputs, outs)
    return out


def _reuse_chain_output(gen: _LedgerGen, txs: list[Transaction], spends: list[str]) -> list[Transaction]:
    """Give the block's last transaction an extra output at a chain output position."""
    taken = set(spends)
    choices = [p for p in gen.outputs if p not in taken]
    p = choices[gen.rng.randrange(len(choices))]
    tx = txs[-1]
    out = list(txs)
    out[-1] = Transaction(tx.inputs, tx.outputs + (Output(p, 0, AcceptAll()),))
    return out


def _ledger_stream(rng: random.Random, n_blocks: int) -> list[tuple]:
    """One stream of serialized blocks growing one chain from genesis, each
    with its known answer and its invalid kind (None when valid)."""
    gen = _LedgerGen(rng)
    blocks = []
    for b in range(n_blocks):
        invalid = b % INVALID_EVERY == INVALID_EVERY - 1 and gen.outputs
        kind = INVALID_KINDS[(b // INVALID_EVERY) % len(INVALID_KINDS)] if invalid else None
        txs, opened, spends, internal = gen.block(force_internal=kind in ("reordered", "broken_validator"))
        if kind is not None and (kind == "duplicate_output" or internal):
            if kind == "reordered":
                spender, source, _ = internal["spend"]
                txs = _swap(txs, spender, source)
            elif kind == "broken_validator":
                _, source, position = internal["spend"]
                txs = _reject_output(txs, source, position)
            else:
                txs = _reuse_chain_output(gen, txs, spends)
            answer = ("reject", EXPECTED_KIND[kind])
        else:
            kind = None
            block_in = {i.position: i.key for tx in txs for i in tx.inputs if i.position in set(spends)}
            gen.commit(txs, opened, spends)
            answer = (
                "accept",
                frozenset(o.position for o in gen.open),
                frozenset(gen.spent),
                frozenset(p for p, k in block_in.items() if k not in PROBE_KEYS),
                frozenset(o.position for o in opened if not o.accepts_probe),
            )
        text = jsonio.dumps([jsonio.tx_to_obj(tx) for tx in txs])
        blocks.append((text, len(txs), answer, kind))
    return blocks


def ledger_setup(seed: int, size: str) -> dict:
    rng = random.Random(seed)
    streams = [_ledger_stream(rng, SIZES[size]["ledger_blocks"]) for _ in range(SIZES[size]["ledger_streams"])]
    return {"streams": streams, "probe_model": _probe_model()}


class LedgerEpoch:
    """One replay of each block stream onto an empty chain."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.chain = ieutxo.EMPTY_CHUNK

    def ingest(self, text: str) -> tuple:
        txs = tuple(jsonio.tx_from_obj(obj) for obj in json.loads(text))
        report = ieutxo.check_chunk(txs)
        if not report.ok:
            return ("reject", report.violation.kind)
        block = ieutxo.Chunk(txs)
        grown = ieutxo.compose(self.chain, block)
        if grown is ieutxo.FAIL:
            return ("reject", ieutxo.check_chunk(self.chain.txs + txs).violation.kind)
        self.chain = grown
        unspent_in, unspent_out, spent = ieutxo.ledger_sets(grown)
        probes = self.inputs["probe_model"]
        return (
            "accept",
            unspent_in,
            unspent_out,
            spent,
            ieutxo.blocked_utxi(block, probes),
            ieutxo.blocked_utxo(block, probes),
        )

    def ops(self) -> Iterator[Op]:
        for s, blocks in enumerate(self.inputs["streams"]):
            self.chain = ieutxo.EMPTY_CHUNK
            yield from self._stream_ops(s, blocks)

    def _stream_ops(self, s: int, blocks: list[tuple]) -> Iterator[Op]:
        for b, (text, n_txs, answer, _kind) in enumerate(blocks):
            before = self.chain

            def check(got: tuple, answer=answer, before=before) -> bool:
                if answer[0] == "reject":
                    return got == answer and self.chain is before
                _, utxo_want, stx_want, bi_want, bo_want = answer
                return got == ("accept", frozenset(), utxo_want, stx_want, bi_want, bo_want)

            yield Op(lambda text=text: self.ingest(text), check, n_txs, (s, b))


def ledger_epoch(inputs: dict, index: int) -> Iterator[Op]:
    return LedgerEpoch(inputs).ops()


def ledger_final_checks(inputs: dict, sample: int = 24) -> list[str]:
    """Checks outside the timed phase; returns the failures found."""
    problems = []
    for s, blocks in enumerate(inputs["streams"]):
        epoch = LedgerEpoch(inputs)
        for text, _n, _answer, _kind in blocks:
            epoch.ingest(text)
        chain = epoch.chain
        if not ieutxo.is_blockchain(chain):
            problems.append(f"final chain of stream {s} has unspent inputs")
        u_in, u_out, spent = ieutxo.ledger_sets(chain)
        if (u_in & u_out) or (u_in & spent) or (u_out & spent) or (u_in | u_out | spent) != ieutxo.pos(chain):
            problems.append(f"final ledger sets of stream {s} do not partition pos")
    # The pairwise oracle must agree with the checker and with the known
    # standalone validity on a sample of short blocks, valid and invalid.
    all_blocks = [block for blocks in inputs["streams"] for block in blocks]
    rng = random.Random(len(all_blocks))
    for text, _n, _answer, kind in rng.sample(all_blocks, min(sample, len(all_blocks))):
        txs = tuple(jsonio.tx_from_obj(obj) for obj in json.loads(text))
        standalone_valid = kind in (None, "duplicate_output")
        if ieutxo.pairwise_chunk_oracle(txs) != standalone_valid or ieutxo.is_chunk(txs) != standalone_valid:
            problems.append(f"pairwise oracle or checker disagrees on a {kind or 'valid'} block")
    return problems


# ---------------------------------------------------------------------------
# confluence
#
# A pool of generated confluence triples; nine in ten satisfy the premises
# by construction (expected Verified), the rest are built to fail them:
# either the suffix spends an output of the middle chunk (utxi differs) or
# it reuses one of the middle's output positions (y·x·x2 is no chunk).

CR_FAIL_EVERY = 10


def _witness(script: Any) -> str:
    """A key accepted by a generator-made spendable validator."""
    if isinstance(script, KeyEquals):
        return script.key
    for part in (getattr(script, "left", None), getattr(script, "right", None), getattr(script, "body", None)):
        if isinstance(part, (KeyEquals, And, Or)):
            return _witness(part)
    return "k0"


def _break_premises(y, x, x2, variant: int):
    outs = [o for tx in x.txs for o in tx.outputs]
    if not outs:
        return None
    o = outs[0]
    fresh = f"w{len(y.txs) + len(x.txs) + len(x2.txs)}"
    if variant == 0:
        extra = Transaction([Input(o.position, _witness(o.validator))], [Output(fresh, 0, AcceptAll())])
    else:
        extra = Transaction((), [Output(o.position, 0, AcceptAll())])
    return y, x, ieutxo.Chunk(x2.txs + (extra,))


def confluence_setup(seed: int, size: str) -> dict:
    cfg = generators.GenConfig(seed=seed)
    rng = generators.stream(cfg)
    pool = []
    n = SIZES[size]["cr_pool"]
    while len(pool) < n:
        y, x, x2 = generators.gen_cr_triple(cfg, rng)
        if len(pool) % CR_FAIL_EVERY == CR_FAIL_EVERY - 1:
            broken = _break_premises(y, x, x2, (len(pool) // CR_FAIL_EVERY) % 2)
            if broken is None:
                continue
            pool.append((broken, ieutxo.CR_PREMISES_FAILED))
        else:
            pool.append(((y, x, x2), ieutxo.CR_VERIFIED))
    return {"pool": pool}


def confluence_epoch(inputs: dict, index: int) -> Iterator[Op]:
    for i, (triple, want) in enumerate(inputs["pool"]):
        yield Op(
            lambda triple=triple: ieutxo.check_church_rosser(*triple).status,
            lambda got, want=want: got == want,
            sum(len(c) for c in triple),
            i,
        )


# ---------------------------------------------------------------------------
# law-audit
#
# Each round audits the exhaustive finite-set and substitution instances
# (four checkers each, over their whole carriers) and then a few seeded
# models of five transactions with all four checkers plus the strict
# adjunction.  Every op builds its instance and element sample itself, so
# the ChunkAcs orientation cache never outlives one verdict.

AUDIT_TXS = 5
# The audit cost of a model grows with its number of chunks, which ranges
# from about 50 to 326 for five generated transactions, and the cost of
# check_adjunction, most of a model's audit time, with its number of
# outputs (correlation 0.85 over 30 models; 3 to 13 outputs, 110 to 670 ms).
# Keeping models whose chunk count (by ieutxo.enumerate_chunks) lies in one
# band and whose output count is the commonest one makes runs with
# different seeds comparable.
AUDIT_CHUNKS = (96, 113)
AUDIT_OUTPUTS = 8
AUDIT_SAMPLE = 20
AUDIT_PROBES = 8
AUDIT_CAPS = {"pair_cap": 400}
MONOID_CAPS = {"pair_cap": 400, "triple_cap": 1000, "list_samples": 40}
ADJUNCTION_SAMPLES = 12
AUDIT_MODELS_PER_ROUND = 2


def law_audit_setup(seed: int, size: str) -> dict:
    cfg = generators.GenConfig(seed=seed)
    rng = generators.stream(cfg)
    models = []
    while len(models) < SIZES[size]["audit_models"]:
        model = generators.gen_model(cfg, rng, name=f"audit{seed}-{len(models)}", n_txs=AUDIT_TXS)
        if len(model.transactions) != AUDIT_TXS:
            continue
        if sum(len(tx.outputs) for tx in model.transactions) != AUDIT_OUTPUTS:
            continue
        if AUDIT_CHUNKS[0] <= sum(1 for _ in ieutxo.enumerate_chunks(model)) <= AUDIT_CHUNKS[1]:
            models.append(model)
    return {"models": models}


def _exhaustive_ops() -> Iterator[Op]:
    for i, make in enumerate((
        lambda: acs.FiniteSetsAcs(("a", "b", "c", "d")),
        lambda: acs.SubstAcs(("a", "b", "c", "d"), term_pool=(acs.Fn("c"),)),
    )):
        for checker in (
            axioms.monoid_axiom_check,
            axioms.oriented_axiom_check,
            axioms.atomic_axiom_check,
            axioms.partial_converse_check,
        ):
            def call(make=make, checker=checker):
                inst = make()
                return checker(inst, inst.enumerate_carrier())

            yield Op(call, _passes, 0, ("exhaustive", i, checker.__name__))


def _model_ops(model: ieutxo.IeutxoModel, k: int) -> Iterator[Op]:
    def checker_call(checker, **kwargs):
        def call():
            inst = acs.ChunkAcs(model)
            elems = inst.sample_elements(AUDIT_SAMPLE, seed=100 + k)
            kw = dict(kwargs)
            if "probes" in kw:
                kw["probes"] = inst.sample_elements(AUDIT_PROBES, seed=200 + k)
            return checker(inst, elems, **kw)

        return call

    n = len(model.transactions)
    yield Op(checker_call(axioms.monoid_axiom_check, **MONOID_CAPS), _passes, n, (k, "monoid"))
    yield Op(checker_call(axioms.oriented_axiom_check, probes=None, **AUDIT_CAPS), _passes, n, (k, "oriented"))
    yield Op(checker_call(axioms.atomic_axiom_check, strict=True, **AUDIT_CAPS), _passes, n, (k, "atomic"))
    yield Op(checker_call(axioms.partial_converse_check, probes=None, **AUDIT_CAPS), _passes, n,
             (k, "partial_converse"))
    yield Op(
        lambda: functors.check_adjunction(
            model, acs.ChunkAcs(model), seed=k, samples=ADJUNCTION_SAMPLES, strict=True
        ),
        _passes,
        n,
        (k, "adjunction"),
    )


def _passes(report) -> bool:
    return report.ok


def law_audit_epoch(inputs: dict, index: int) -> Iterator[Op]:
    yield from _exhaustive_ops()
    models = inputs["models"]
    for j in range(AUDIT_MODELS_PER_ROUND):
        k = (index * AUDIT_MODELS_PER_ROUND + j) % len(models)
        yield from _model_ops(models[k], k)


WORKLOADS = {
    "ledger-ingest": (ledger_setup, ledger_epoch, ledger_final_checks),
    "confluence": (confluence_setup, confluence_epoch, None),
    "law-audit": (law_audit_setup, law_audit_epoch, None),
}
