"""Seeded random generation of transactions, chunks, models, arrows, and
confluence premise triples.

Every generator draws from a caller-supplied ``random.Random`` stream (or a
fresh one seeded from the config), so identical configs produce identical
output streams.  Valid-chunk generation threads fresh positions and only
spends outputs whose validator it knows a witness key for, so its output
always validates; triple generation builds the confluence premises by
construction (the middle chunk consumes only outputs of the prefix, and the
suffix never consumes the middle's outputs).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Optional, Sequence

from .atoms import Atom, Permutation, fresh_atoms
from .ieutxo import (
    Chunk,
    IeutxoArrow,
    IeutxoModel,
    Input,
    Output,
    PointedTransaction,
    Transaction,
    pos,
    validates,
)
from .scripts import (
    AcceptAll,
    And,
    DatumEquals,
    InputPositionIn,
    KeyEquals,
    Not,
    Or,
    RejectAll,
    Script,
    SpendsAtMostNInputs,
)


class BoundsTooTight(ValueError):
    """The configured bounds cannot accommodate the requested structure."""


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_atoms: int = 12
    max_txs: int = 4
    max_ios_per_tx: int = 3
    reject_rate: float = 0.15
    impure_rate: float = 0.0

    def __post_init__(self):
        if self.max_atoms < 1 or self.max_ios_per_tx < 1:
            raise BoundsTooTight("need at least one atom and one slot per transaction")
        if self.max_txs < 0:
            raise BoundsTooTight("negative bounds")


def stream(cfg: GenConfig) -> random.Random:
    return random.Random(cfg.seed)


def _rng(cfg: GenConfig, rng: Optional[random.Random]) -> random.Random:
    return rng if rng is not None else stream(cfg)


def _atom_pool(n: int) -> list[Atom]:
    letters = list(string.ascii_lowercase)
    if n <= len(letters):
        return letters[:n]
    pool = letters[:]
    counter = 1
    while len(pool) < n:
        pool.extend(f"{c}{counter}" for c in letters)
        counter += 1
    return pool[:n]


def _gen_key(rng: random.Random) -> str:
    return f"k{rng.randint(0, 9)}"


def _gen_datum(rng: random.Random) -> int:
    return rng.randint(0, 9)


def _spendable_validator(rng: random.Random, position: Atom, datum: int) -> tuple[Script, str]:
    """A validator plus a witness key guaranteed to satisfy it point-locally;
    two levels deep at most."""
    witness = _gen_key(rng)
    choices = [
        AcceptAll(),
        KeyEquals(witness),
        DatumEquals(datum),
        InputPositionIn(frozenset({position, f"q{rng.randint(0, 9)}"})),
        Not(RejectAll()),
    ]
    script = rng.choice(choices)
    if rng.random() < 0.4:
        script = rng.choice(
            [Or(RejectAll(), script), And(script, Not(RejectAll()))]
        )
    return script, witness


def _rejecting_validator(rng: random.Random) -> Script:
    if rng.random() < 0.5:
        return RejectAll()
    return And(RejectAll(), AcceptAll())


def gen_transaction(cfg: GenConfig, rng: Optional[random.Random] = None) -> Transaction:
    """An unconstrained random transaction over a small position pool.

    Positions are drawn with replacement, so collisions (and hence chunk
    violations) are likely; good for exercising the checker, not for
    building models.
    """
    rng = _rng(cfg, rng)
    pool = _atom_pool(cfg.max_atoms)
    n_in = rng.randint(0, cfg.max_ios_per_tx)
    n_out = rng.randint(0 if n_in else 1, cfg.max_ios_per_tx)
    inputs = [Input(rng.choice(pool), _gen_key(rng)) for _ in range(n_in)]
    outputs = []
    for _ in range(n_out):
        p = rng.choice(pool)
        d = _gen_datum(rng)
        if rng.random() < cfg.reject_rate:
            outputs.append(Output(p, d, _rejecting_validator(rng)))
        else:
            script, _ = _spendable_validator(rng, p, d)
            outputs.append(Output(p, d, script))
    return Transaction(inputs, outputs)


@dataclass(frozen=True)
class _OpenOutput:
    position: Atom
    witness: Optional[str]  # None means unspendable by construction


class _ChunkBuilder:
    """Threads fresh positions through a growing valid chunk."""

    def __init__(self, cfg: GenConfig, rng: random.Random, pool: Sequence[Atom]):
        self.cfg = cfg
        self.rng = rng
        self.pool = list(pool)
        self.open: list[_OpenOutput] = []
        self.txs: list[Transaction] = []

    def take_atom(self) -> Optional[Atom]:
        return self.pool.pop(0) if self.pool else None

    def spendable(self) -> list[_OpenOutput]:
        return [o for o in self.open if o.witness is not None]

    def add_transaction(self, close_inputs: bool) -> bool:
        cfg, rng = self.cfg, self.rng
        inputs: list[Input] = []
        spendable = self.spendable()
        rng.shuffle(spendable)
        n_spend = rng.randint(0, min(len(spendable), cfg.max_ios_per_tx))
        if close_inputs and self.txs and spendable and n_spend == 0:
            n_spend = 1
        for slot in spendable[:n_spend]:
            inputs.append(Input(slot.position, slot.witness))
            self.open.remove(slot)
        if not close_inputs:
            for _ in range(rng.randint(0, cfg.max_ios_per_tx - len(inputs))):
                a = self.take_atom()
                if a is None:
                    break
                inputs.append(Input(a, _gen_key(rng)))
        outputs: list[Output] = []
        n_out = rng.randint(0 if inputs else 1, cfg.max_ios_per_tx)
        for _ in range(n_out):
            a = self.take_atom()
            if a is None:
                break
            d = _gen_datum(rng)
            if rng.random() < cfg.reject_rate:
                outputs.append(Output(a, d, _rejecting_validator(rng)))
                self.open.append(_OpenOutput(a, None))
            else:
                script, witness = _spendable_validator(rng, a, d)
                outputs.append(Output(a, d, script))
                self.open.append(_OpenOutput(a, witness))
        if not inputs and not outputs:
            return False
        self.txs.append(Transaction(inputs, outputs))
        return True


def gen_valid_chunk(
    cfg: GenConfig,
    rng: Optional[random.Random] = None,
    close_inputs: bool = False,
    pool: Optional[Sequence[Atom]] = None,
) -> Chunk:
    """A chunk that always passes validation.

    With ``close_inputs`` every input spends an earlier output and the first
    transaction has none, so the result is a blockchain.
    """
    rng = _rng(cfg, rng)
    builder = _ChunkBuilder(cfg, rng, pool if pool is not None else _atom_pool(cfg.max_atoms))
    n = rng.randint(0, cfg.max_txs)
    for _ in range(n):
        if not builder.add_transaction(close_inputs):
            break
    chunk = Chunk(tuple(builder.txs))
    return chunk


def gen_txlist(
    cfg: GenConfig, rng: Optional[random.Random] = None
) -> tuple[Transaction, ...]:
    """A transaction list that may or may not be a chunk.

    Mixes valid chunks, raw random transactions, and targeted mutations of
    valid chunks so that every violation kind shows up across a stream.
    """
    rng = _rng(cfg, rng)
    mode = rng.randrange(6)
    if mode == 0:
        return gen_valid_chunk(cfg, rng).txs
    if mode == 1:
        return tuple(
            gen_transaction(cfg, rng) for _ in range(rng.randint(0, cfg.max_txs))
        )
    base = list(gen_valid_chunk(cfg, rng).txs)
    if mode == 2 and len(base) >= 2:
        # swapping two transactions breaks the earlier-output discipline
        i = rng.randrange(len(base) - 1)
        base[i], base[i + 1] = base[i + 1], base[i]
        return tuple(base)
    if mode == 3 and base:
        base.insert(rng.randint(0, len(base)), Transaction((), ()))
        return tuple(base)
    if mode == 4 and base:
        base.append(base[rng.randrange(len(base))])
        return tuple(base)
    if mode == 5:
        mutated = _break_one_validator(base, rng)
        if mutated is not None:
            return mutated
    return tuple(gen_transaction(cfg, rng) for _ in range(rng.randint(1, cfg.max_txs)))


def _break_one_validator(
    txs: list[Transaction], rng: random.Random
) -> Optional[tuple[Transaction, ...]]:
    """Replace the validator of one spent output with a rejector."""
    spent_at: list[tuple[int, Atom]] = []
    input_positions = {i.position for tx in txs for i in tx.inputs}
    for t, tx in enumerate(txs):
        for o in tx.outputs:
            if o.position in input_positions:
                spent_at.append((t, o.position))
    if not spent_at:
        return None
    t, p = spent_at[rng.randrange(len(spent_at))]
    tx = txs[t]
    outputs = [
        Output(o.position, o.datum, RejectAll()) if o.position == p else o
        for o in tx.outputs
    ]
    out = list(txs)
    out[t] = Transaction(tx.inputs, outputs)
    return tuple(out)


def gen_model(
    cfg: GenConfig,
    rng: Optional[random.Random] = None,
    name: Optional[str] = None,
    n_txs: Optional[int] = None,
) -> IeutxoModel:
    """A model whose enumeration contains composable transactions.

    Built like a valid chunk, so consecutive transactions can spend one
    another; the probe universe is the enumeration itself.
    """
    rng = _rng(cfg, rng)
    want = n_txs if n_txs is not None else max(2, cfg.max_txs)
    pool = _atom_pool(max(cfg.max_atoms, want * (cfg.max_ios_per_tx + 1)))
    builder = _ChunkBuilder(cfg, rng, pool)
    guard = 0
    while len(builder.txs) < want and guard < want * 4:
        guard += 1
        builder.add_transaction(close_inputs=False)
    txs = []
    seen = set()
    for tx in builder.txs:
        if tx not in seen and not tx.is_empty():
            seen.add(tx)
            txs.append(_maybe_impure(tx, cfg, rng))
    if not txs:
        raise BoundsTooTight("could not build any transaction within bounds")
    return IeutxoModel(name or f"gen{cfg.seed}", tuple(txs))


def _maybe_impure(tx: Transaction, cfg: GenConfig, rng: random.Random) -> Transaction:
    if cfg.impure_rate <= 0 or rng.random() >= cfg.impure_rate or not tx.outputs:
        return tx
    # the limit is never binding at these bounds, so chunk behaviour is
    # unchanged while point-locality is lost
    idx = rng.randrange(len(tx.outputs))
    outputs = list(tx.outputs)
    o = outputs[idx]
    outputs[idx] = Output(
        o.position, o.datum, And(o.validator, SpendsAtMostNInputs(cfg.max_ios_per_tx))
    )
    return Transaction(tx.inputs, outputs)


def gen_perm(
    cfg: GenConfig,
    rng: Optional[random.Random] = None,
    atoms: Optional[Sequence[Atom]] = None,
) -> Permutation:
    """A random permutation over the given atoms (default: the config pool)."""
    rng = _rng(cfg, rng)
    pool = list(atoms) if atoms is not None else _atom_pool(cfg.max_atoms)
    shuffled = pool[:]
    rng.shuffle(shuffled)
    return Permutation(dict(zip(pool, shuffled)))


def gen_arrow(
    cfg: GenConfig,
    source: IeutxoModel,
    target: Optional[IeutxoModel] = None,
    rng: Optional[random.Random] = None,
) -> IeutxoArrow:
    """A lawful arrow out of ``source``.

    Builds a consistent renaming of the source atoms, optionally dropping
    some transactions to the empty chunk.  When no ``target`` is supplied,
    the renamed enumeration itself becomes the target model; a supplied
    target must contain the renamed transactions.
    """
    rng = _rng(cfg, rng)
    atoms = sorted(pos(source.transactions))
    if rng.random() < 0.3:
        perm = Permutation.identity()
    else:
        targets = fresh_atoms(len(atoms), atoms, prefix="r") if rng.random() < 0.5 else None
        if targets is None:
            shuffled = atoms[:]
            rng.shuffle(shuffled)
            perm = Permutation(dict(zip(atoms, shuffled)))
        else:
            perm = Permutation.extending(dict(zip(atoms, targets)))
    dropped = {
        tx for tx in source.transactions if rng.random() < 0.2
    }
    table = {}
    renamed = []
    for tx in source.transactions:
        if tx in dropped:
            table[tx] = Chunk(())
        else:
            image = tx.rename(perm)
            renamed.append(image)
            table[tx] = Chunk((image,))
    if target is None:
        if not renamed:
            renamed = [source.transactions[0].rename(perm)]
            table[source.transactions[0]] = Chunk((renamed[0],))
        target = IeutxoModel(f"{source.name}-img", tuple(dict.fromkeys(renamed)))
    else:
        missing = [tx for tx in renamed if tx not in target.transactions]
        if missing:
            raise BoundsTooTight("target model does not contain the renamed image")
    return IeutxoArrow(source, target, table)


def gen_cr_triple(
    cfg: GenConfig,
    rng: Optional[random.Random] = None,
    blockchain: bool = False,
) -> tuple[Chunk, Chunk, Chunk]:
    """(y, x, x2) satisfying the confluence premises by construction.

    Every input of ``x`` spends an output of ``y``; ``x2`` spends only
    ``y``-outputs untouched by ``x`` (plus, unless ``blockchain`` is set,
    possibly fresh inputs).  With ``blockchain`` the prefix is input-closed
    and ``x2`` takes no fresh inputs, so ``y·x2`` is a blockchain.
    """
    if cfg.max_atoms < 6:
        raise BoundsTooTight("confluence triples need at least six atoms")
    rng = _rng(cfg, rng)
    pool = _atom_pool(max(cfg.max_atoms, 18))
    y_pool, rest = pool[: len(pool) // 2], pool[len(pool) // 2 :]
    x_pool, x2_pool = rest[: len(rest) // 2], rest[len(rest) // 2 :]

    y = gen_valid_chunk(cfg, rng, close_inputs=blockchain, pool=y_pool)
    while not y.txs:
        y = gen_valid_chunk(cfg, rng, close_inputs=blockchain, pool=list(y_pool))

    open_spendable = _spendable_open(y)
    rng.shuffle(open_spendable)
    cut = rng.randint(0, len(open_spendable))
    for_x, for_x2 = open_spendable[:cut], open_spendable[cut:]

    x = _consumer(cfg, rng, for_x, x_pool, fresh_inputs=False)
    x2 = _consumer(
        cfg, rng, for_x2, x2_pool, fresh_inputs=not blockchain
    )
    return y, x, x2


def _spendable_open(ch: Chunk) -> list[tuple[Atom, str]]:
    """(position, witness key) for unspent outputs we know how to satisfy."""
    spent = {i.position for tx in ch.txs for i in tx.inputs}
    out = []
    for tx in ch.txs:
        for o in tx.outputs:
            if o.position in spent:
                continue
            witness = _witness_for(o)
            if witness is not None:
                out.append((o.position, witness))
    return out


def _witness_for(o: Output) -> Optional[str]:
    """A key satisfying the output's validator, if one can be found.

    Tries every key literal mentioned in the script plus a default; sound
    for point-local validators because acceptance then cannot depend on the
    rest of the eventual spender.
    """
    candidates: list = []

    def keys_of(s: Script) -> None:
        if isinstance(s, KeyEquals):
            candidates.append(s.key)
        elif isinstance(s, (And, Or)):
            keys_of(s.left)
            keys_of(s.right)
        elif isinstance(s, Not):
            keys_of(s.body)

    keys_of(o.validator)
    for k in candidates + ["k0"]:
        single = Transaction([Input(o.position, k)], ())
        if validates(o, PointedTransaction._trusted(single, single.inputs[0])):
            return k
    return None


def _consumer(
    cfg: GenConfig,
    rng: random.Random,
    sources: list[tuple[Atom, str]],
    pool: Sequence[Atom],
    fresh_inputs: bool,
) -> Chunk:
    """A small chunk spending exactly the given outputs, with fresh outputs."""
    pool = list(pool)
    n_txs = rng.randint(0 if not sources else 1, 2)
    txs = []
    remaining = sources[:]
    for t in range(n_txs):
        inputs = []
        k = rng.randint(0, len(remaining)) if t < n_txs - 1 else len(remaining)
        for p, w in remaining[:k]:
            inputs.append(Input(p, w))
        remaining = remaining[k:]
        if fresh_inputs:
            for _ in range(rng.randint(0, 1)):
                if pool:
                    inputs.append(Input(pool.pop(0), _gen_key(rng)))
        outputs = []
        for _ in range(rng.randint(0 if inputs else 1, 2)):
            if not pool:
                break
            a = pool.pop(0)
            d = _gen_datum(rng)
            script, _ = _spendable_validator(rng, a, d)
            outputs.append(Output(a, d, script))
        if inputs or outputs:
            txs.append(Transaction(inputs, outputs))
    return Chunk(tuple(txs))
