"""Transactions, chunks, and the partial monoid of validated transaction lists.

The data model: an input is an atom-labelled key, an output is an
atom-labelled datum guarded by a validator script, and a transaction is a
pair of finite input/output sets.  A *chunk* is a transaction list in which

  1. output position occurrences are pairwise distinct,
  2. input position occurrences are pairwise distinct,
  3. an input sharing a position with an output does so with a strictly
     earlier output, and
  4. that earlier output's validator accepts the input in its transaction
     context.

Chunk validity is local: a list is a chunk iff every sublist of length at
most two is (see :func:`pairwise_chunk_oracle`, the independent oracle used
throughout the test suite).  So whether two chunks compose, and the ledger
of the result, depend only on a position index of each (its unspent
outputs, unspent inputs and spent channels): one join of two indices checks
the seam and merges them, the way a ledger applies a block to its UTxO map.
Composition, commuting, Church–Rosser and enumeration all compose through
it, and build a chunk, by the one trusted constructor, only where they
return one; :class:`Chunk` built directly validates the whole list with
:func:`check_chunk`, the from-scratch reference.  Totalizing the partial
composition with the absorbing :data:`FAIL` element turns the chunk set into
a monoid with an explicit failure top.  ``FAIL`` is an interned
:class:`TopElement`, the kind of failure element every chunk system in
:mod:`chunkalg.acs` adjoins (each under its own tag), so a top is tested
by identity.  A *blockchain* is a chunk with no unspent inputs.

Blocked-channel analysis probes each unspent input or output with the
model's probe candidates (its enumeration unless it declares others),
renamed so that one slot lands on the queried position and every other
position is fresh.  Freshness shrinks the seam to that one position, so
each probe comes down to one validator call; the fresh atoms are minted
once per call, since they need only avoid the chunk's positions and the
candidate's own.  Renaming is equivariant, and a permutation that fixes a
value's support (the atoms its renaming reads, :func:`~chunkalg.atoms.support`)
leaves the value unchanged.  So a candidate whose keys, datums and
validators mention no atom is probed by moving its positions alone; only a
candidate with support is renamed by a permutation.  Which candidates are
chunks on their own, and which are support-free, is found once, when the
model is built, and the same facts validate the model's enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .atoms import (
    Atom,
    Atomless,
    Permutation,
    act,
    act_opaque,
    fresh_atoms,
    mentions_atoms,
    value_label,
)
from .scripts import Script, evaluate_script, script_is_pure, script_label


class NotAChunk(Exception):
    """Raised when an operation defined on chunks receives an invalid list."""

    def __init__(self, report: "ChunkReport"):
        super().__init__(str(report.violation))
        self.report = report


class NotAnArrow(Exception):
    """A transaction table violates the arrow condition."""


class ModelError(ValueError):
    """A model enumeration violates the model invariants."""


# ---------------------------------------------------------------------------
# Core data


@dataclass(frozen=True)
class Input:
    position: Atom
    key: Any

    def rename(self, perm: Permutation) -> "Input":
        return Input(perm(self.position), act_opaque(perm, self.key))

    def sort_key(self) -> tuple:
        return (self.position, value_label(self.key))


@dataclass(frozen=True)
class Output:
    position: Atom
    datum: Any
    validator: Script

    def rename(self, perm: Permutation) -> "Output":
        return Output(
            perm(self.position),
            act_opaque(perm, self.datum),
            self.validator.rename(perm),
        )

    def sort_key(self) -> tuple:
        return (self.position, value_label(self.datum), script_label(self.validator))


_position = attrgetter("position")


def _slot_order(slots: Iterable, sort_key: Callable) -> tuple:
    """The slots as a set, in ``sort_key`` order.

    ``sort_key`` starts with the position, so where positions are distinct,
    as in every transaction of a chunk, position order is that order and
    nothing is labelled, and no two slots are equal, so nothing is hashed;
    only slots sharing a position need the rest.
    """
    slots = tuple(slots)
    if len({s.position for s in slots}) == len(slots):
        return tuple(sorted(slots, key=_position))
    return tuple(sorted(set(slots), key=sort_key))


def _unhashed_state(value) -> dict:
    """The pickled state of a value that keeps its hash: all but the hash."""
    return {k: v for k, v in vars(value).items() if k != "_hash"}


@dataclass(frozen=True, init=False)
class Transaction:
    """A pair of finite input and output sets, canonically ordered.

    The empty transaction is representable so that raw lists containing it
    can be checked and rejected; models refuse to enumerate it.

    The label is computed on first use and kept on the transaction: it is
    part of the immutable value, not a cache keyed by input, and the chunk
    labels and :class:`~chunkalg.scripts.AcsCompose` hashes of represented
    models are built from it.  It is not computed in the constructor, since
    most transactions (generated, parsed, renamed probes) are never
    labelled.  The hash, the one the dataclass would generate, is kept the
    same way; it is not pickled, since ``str`` hashes differ between
    processes.
    """

    inputs: tuple[Input, ...]
    outputs: tuple[Output, ...]
    # Set by label() and __hash__ on first use.
    _label = None
    _hash = None

    def __init__(self, inputs: Iterable[Input] = (), outputs: Iterable[Output] = ()):
        object.__setattr__(self, "inputs", _slot_order(inputs, Input.sort_key))
        object.__setattr__(self, "outputs", _slot_order(outputs, Output.sort_key))

    def is_empty(self) -> bool:
        return not self.inputs and not self.outputs

    def rename(self, perm: Permutation) -> "Transaction":
        return Transaction(
            (i.rename(perm) for i in self.inputs),
            (o.rename(perm) for o in self.outputs),
        )

    def label(self) -> str:
        label = self._label
        if label is None:
            ins = ",".join(f"({i.position},{value_label(i.key)})" for i in self.inputs)
            outs = ",".join(
                f"({o.position},{value_label(o.datum)},{script_label(o.validator)})"
                for o in self.outputs
            )
            label = f"tx[{ins}|{outs}]"
            object.__setattr__(self, "_label", label)
        return label

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.inputs, self.outputs))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _unhashed_state


@dataclass(frozen=True)
class PointedTransaction:
    """A transaction with one distinguished input: the shape validators see."""

    transaction: Transaction
    point: Input

    def __post_init__(self):
        if self.point not in self.transaction.inputs:
            raise ValueError("point must be one of the transaction's inputs")

    def rename(self, perm: Permutation) -> "PointedTransaction":
        return PointedTransaction(self.transaction.rename(perm), self.point.rename(perm))


TxList = tuple[Transaction, ...]


def input_channels(tx: Transaction) -> frozenset[Atom]:
    return frozenset(i.position for i in tx.inputs)


def output_channels(tx: Transaction) -> frozenset[Atom]:
    return frozenset(o.position for o in tx.outputs)


def pos(value: Any) -> frozenset[Atom]:
    """All positions mentioned by inputs or outputs of the value.

    Atoms mentioned only inside validator scripts are not positions.
    """
    if isinstance(value, Input) or isinstance(value, Output):
        return frozenset((value.position,))
    if isinstance(value, Transaction):
        return input_channels(value) | output_channels(value)
    if isinstance(value, PointedTransaction):
        return pos(value.transaction)
    if isinstance(value, Chunk):
        return _index_of(value).positions()
    if isinstance(value, (tuple, list)):
        out: frozenset[Atom] = frozenset()
        for tx in value:
            out |= pos(tx)
        return out
    raise TypeError(f"pos undefined for {type(value).__name__}")


def validates(output: Output, ptx: PointedTransaction) -> bool:
    """Does the output's validator accept the input-in-context?

    Callers are expected to have matched positions first; the predicate
    itself is total.
    """
    return evaluate_script(output.validator, output.datum, ptx)


# ---------------------------------------------------------------------------
# Chunk checking

DUPLICATE_OUTPUT_POSITION = "DuplicateOutputPosition"
DUPLICATE_INPUT_POSITION = "DuplicateInputPosition"
BACKWARD_OR_SELF_POINTER = "BackwardOrSelfPointer"
VALIDATION_FAILED = "ValidationFailed"
EMPTY_TRANSACTION = "EmptyTransaction"

VIOLATION_KINDS = (
    DUPLICATE_OUTPUT_POSITION,
    DUPLICATE_INPUT_POSITION,
    BACKWARD_OR_SELF_POINTER,
    VALIDATION_FAILED,
    EMPTY_TRANSACTION,
)


@dataclass(frozen=True)
class Violation:
    kind: str
    positions: tuple[Atom, ...]
    tx_indices: tuple[int, ...]
    detail: str = ""

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "positions": list(self.positions),
            "tx_indices": list(self.tx_indices),
            "detail": self.detail,
        }

    def __str__(self) -> str:
        where = ",".join(str(i) for i in self.tx_indices)
        at = ",".join(self.positions) or "-"
        return f"{self.kind} at position(s) {at} (tx {where})"


@dataclass(frozen=True)
class ChunkReport:
    ok: bool
    violation: Optional[Violation] = None

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "violation": self.violation.to_obj() if self.violation else None,
        }


def check_chunk(txs: Union[Sequence[Transaction], "Chunk"]) -> ChunkReport:
    """Validate the four chunk conditions, reporting the first violation.

    The scan order is deterministic: transactions left to right, a
    transaction's inputs before its outputs, positions in atom order.
    Reported ``tx_indices`` are (first occurrence, second occurrence) for
    duplicates and (input transaction, output transaction) for pointer and
    validation faults.  A :class:`Chunk` is checked like any list of its
    transactions: the reference trusts no type.
    """
    txs = tuple(txs)
    out_occ: dict[Atom, list[tuple[int, Output]]] = {}
    for t, tx in enumerate(txs):
        for o in tx.outputs:
            out_occ.setdefault(o.position, []).append((t, o))
    seen_inputs: dict[Atom, int] = {}
    seen_outputs: dict[Atom, int] = {}
    for t, tx in enumerate(txs):
        if tx.is_empty():
            return ChunkReport(
                False, Violation(EMPTY_TRANSACTION, (), (t,), "empty transaction")
            )
        for i in tx.inputs:
            p = i.position
            if p in seen_inputs:
                return ChunkReport(
                    False,
                    Violation(DUPLICATE_INPUT_POSITION, (p,), (seen_inputs[p], t)),
                )
            seen_inputs[p] = t
            occ = out_occ.get(p, ())
            if len(occ) > 1:
                return ChunkReport(
                    False,
                    Violation(
                        DUPLICATE_OUTPUT_POSITION, (p,), (occ[0][0], occ[1][0])
                    ),
                )
            if occ:
                ot, o = occ[0]
                if ot >= t:
                    return ChunkReport(
                        False,
                        Violation(
                            BACKWARD_OR_SELF_POINTER,
                            (p,),
                            (t, ot),
                            "input points to a later or same-transaction output",
                        ),
                    )
                if not validates(o, PointedTransaction(tx, i)):
                    return ChunkReport(
                        False,
                        Violation(
                            VALIDATION_FAILED,
                            (p,),
                            (ot, t),
                            "earlier output refuses the input",
                        ),
                    )
        for o in tx.outputs:
            p = o.position
            if p in seen_outputs:
                return ChunkReport(
                    False,
                    Violation(DUPLICATE_OUTPUT_POSITION, (p,), (seen_outputs[p], t)),
                )
            seen_outputs[p] = t
    return ChunkReport(True, None)


def is_chunk(txs: Union[Sequence[Transaction], "Chunk"]) -> bool:
    return check_chunk(txs).ok


def pairwise_chunk_oracle(txs: Sequence[Transaction]) -> bool:
    """Validity by brute force over every length-<=2 ordered sublist.

    Chunk validity is a local property, so this must agree with
    :func:`is_chunk`; the two stay implemented independently so each checks
    the other.
    """
    txs = tuple(txs)
    n = len(txs)
    for i in range(n):
        if not check_chunk((txs[i],)).ok:
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if not check_chunk((txs[i], txs[j])).ok:
                return False
    return True


# ---------------------------------------------------------------------------
# Chunks and their composition


@dataclass(frozen=True)
class Chunk:
    """A transaction list satisfying the chunk conditions; validated on construction.

    Like a transaction's, the label and hash are computed on first use and
    kept on the chunk (lazily, so the pools of chunks that are never
    labelled hold none), and the hash is not pickled; a composition also
    carries its position index (see :class:`_Index`).  All are parts of the
    immutable value, not caches keyed by input.
    """

    txs: TxList
    # Set only by _trusted: the index of a composition (see _Index).
    _index = None
    # Set by label() and __hash__ on first use.
    _label = None
    _hash = None

    def __post_init__(self):
        report = check_chunk(self.txs)
        if not report.ok:
            raise NotAChunk(report)
        object.__setattr__(self, "txs", tuple(self.txs))

    @classmethod
    def _trusted(cls, txs: TxList, index: Optional["_Index"] = None) -> "Chunk":
        """A chunk of ``txs`` already known valid, built without revalidation.

        The one constructor that skips :func:`check_chunk`; callers hand it
        seam-checked compositions, renamed chunks and renamed singleton
        probes.
        """
        chunk = object.__new__(cls)
        object.__setattr__(chunk, "txs", txs)
        if index is not None:
            object.__setattr__(chunk, "_index", index)
        return chunk

    def __len__(self) -> int:
        return len(self.txs)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.txs)

    def rename(self, perm: Permutation) -> "Chunk":
        # Renaming is equivariant, so the image of a chunk is a chunk.
        return Chunk._trusted(tuple(tx.rename(perm) for tx in self.txs))

    def label(self) -> str:
        label = self._label
        if label is None:
            label = "ch[" + ";".join(tx.label() for tx in self.txs) + "]"
            object.__setattr__(self, "_label", label)
        return label

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.txs,))
            object.__setattr__(self, "_hash", h)
        return h

    __getstate__ = _unhashed_state


@dataclass(frozen=True, eq=False)
class TopElement(Atomless):
    """The absorbing failure element adjoined to a partial monoid.

    Interned: there is one object per tag, so two chunk systems built
    separately share their top, and equality with a top is identity.
    """

    tag: str
    _interned = {}

    def __new__(cls, tag: str) -> "TopElement":
        top = cls._interned.get(tag)
        if top is None:
            top = cls._interned[tag] = super().__new__(cls)
        return top

    def __reduce__(self):
        return (TopElement, (self.tag,))

    def label(self) -> str:
        return f"top:{self.tag}"

    def __repr__(self) -> str:
        return f"<top {self.tag}>"


FAIL = TopElement("chunks")

ChunkOrFail = Union[Chunk, TopElement]


class _Index(NamedTuple):
    """A chunk's ledger by position, which is all a seam check reads.

    ``outs`` maps each unspent output's position to the output, ``ins`` each
    unspent input's position to its transaction and the input, and ``stx``
    holds the spent channels.  Every input position of the chunk is in
    ``ins`` or ``stx`` and every output position in ``outs`` or ``stx``.
    """

    outs: dict
    ins: dict
    stx: frozenset[Atom]

    def positions(self) -> frozenset[Atom]:
        return self.stx.union(self.outs, self.ins)


def _build_index(txs: TxList) -> _Index:
    """The index of ``txs`` in one pass; ``txs`` must be a chunk."""
    outs: dict = {}
    ins: dict = {}
    spent = []
    for tx in txs:
        for i in tx.inputs:
            if outs.pop(i.position, None) is None:
                ins[i.position] = (tx, i)
            else:
                spent.append(i.position)
        for o in tx.outputs:
            outs[o.position] = o
    return _Index(outs, ins, frozenset(spent))


# The unit carries its index, so composing with it builds none.
EMPTY_CHUNK = Chunk._trusted((), _build_index(()))


def _index_of(chunk: Chunk) -> _Index:
    """The chunk's index: a composition carries one, and an empty chunk has
    the unit's; for any other chunk it is built afresh and not kept, since
    pools hold many chunks."""
    return chunk._index or (_build_index(chunk.txs) if chunk.txs else EMPTY_CHUNK._index)


def _join(x: _Index, y: _Index) -> Optional[_Index]:
    """The index of ``x·y``, or None if ``x·y`` is not a chunk.

    Validity is local, so ``x·y`` is a chunk exactly when ``y``'s outputs
    avoid ``x``'s outputs, ``y``'s inputs avoid ``x``'s inputs, ``x``'s
    inputs avoid ``y``'s outputs, and every ``y`` input on an ``x`` output
    passes that output's validator.  A chunk's unspent outputs, unspent
    inputs and spent channels partition its positions, so on the indices:
    the only positions the two share are ``y``'s unspent inputs on ``x``'s
    unspent outputs, and those validate; the merged index spends those.
    """
    xo, yi = x.outs.keys(), y.ins.keys()
    for a in (xo, x.ins.keys(), x.stx):
        for b in (y.outs.keys(), yi, y.stx):
            if not (a is xo and b is yi) and not a.isdisjoint(b):
                return None
    spends = xo & yi
    for p in spends:
        tx, i = y.ins[p]
        if not validates(x.outs[p], PointedTransaction(tx, i)):
            return None
    outs = dict(x.outs)
    ins = {**x.ins, **y.ins}
    for p in spends:
        del outs[p]
        del ins[p]
    outs.update(y.outs)
    return _Index(outs, ins, x.stx.union(y.stx, spends))


def compose(x: ChunkOrFail, y: ChunkOrFail) -> ChunkOrFail:
    """The concatenation if it is a chunk, else FAIL; FAIL is absorbing.

    Only the seam is checked, by joining the operands' indices
    (:func:`_join`); the result is built by the trusted constructor and
    carries the joined index, for later compositions and ledger reads.
    """
    if x is FAIL or y is FAIL:
        return FAIL
    index = _join(_index_of(x), _index_of(y))
    return FAIL if index is None else Chunk._trusted(x.txs + y.txs, index)


def compose_all(parts: Iterable[ChunkOrFail]) -> ChunkOrFail:
    out: ChunkOrFail = EMPTY_CHUNK
    for part in parts:
        out = compose(out, part)
    return out


def is_sublist(small: Sequence, big: Sequence) -> bool:
    """Is ``small`` obtainable from ``big`` by deleting (never rearranging) items?"""
    it = iter(big)
    return all(any(item == other for other in it) for item in small)


def chunk_leq(x: ChunkOrFail, y: ChunkOrFail) -> bool:
    """Sublist order on chunks with FAIL on top."""
    if y is FAIL:
        return True
    if x is FAIL:
        return False
    return is_sublist(x.txs, y.txs)


def sublists(txs: TxList) -> Iterator[TxList]:
    """All 2^n sublists in a deterministic order."""
    n = len(txs)
    for mask in range(1 << n):
        yield tuple(txs[i] for i in range(n) if mask >> i & 1)


# ---------------------------------------------------------------------------
# Ledger sets


def _ledger_index(value: Union[Chunk, Sequence[Transaction]]) -> _Index:
    """The index the ledger reads use (see :func:`ledger_sets`)."""
    return _index_of(value if isinstance(value, Chunk) else Chunk(value))


def ledger_sets(
    value: Union[Chunk, Sequence[Transaction]],
) -> tuple[frozenset[Atom], frozenset[Atom], frozenset[Atom]]:
    """(unspent inputs, unspent outputs, spent channels); they partition pos.

    Read off the chunk's index; a transaction list is validated first and
    raises :class:`NotAChunk` if it is not a chunk.  :func:`utxi`,
    :func:`utxo` and :func:`stx` each read their own set the same way.
    """
    ix = _ledger_index(value)
    return frozenset(ix.ins), frozenset(ix.outs), ix.stx


def utxi(value: Union[Chunk, Sequence[Transaction]]) -> frozenset[Atom]:
    return frozenset(_ledger_index(value).ins)


def utxo(value: Union[Chunk, Sequence[Transaction]]) -> frozenset[Atom]:
    return frozenset(_ledger_index(value).outs)


def stx(value: Union[Chunk, Sequence[Transaction]]) -> frozenset[Atom]:
    return _ledger_index(value).stx


def is_blockchain(value: Union[Chunk, Sequence[Transaction]]) -> bool:
    """A blockchain is a chunk with no unspent inputs."""
    return not utxi(value)


def commuting(x: Chunk, y: Chunk) -> bool:
    """Both composition orders form chunks, or neither does."""
    ix, iy = _index_of(x), _index_of(y)
    return (_join(ix, iy) is None) == (_join(iy, ix) is None)


# ---------------------------------------------------------------------------
# Models


def _probe_facts(tx: Transaction) -> Optional[tuple[Transaction, tuple[Atom, ...], bool]]:
    """(candidate, its sorted positions, whether it is support-free: no
    key, datum or validator mentions an atom, so a permutation moves its
    positions and nothing else), or None if the candidate is not a chunk on
    its own.

    A single transaction is a chunk exactly when it is nonempty and its
    positions are distinct; renaming keeps them distinct, so no renamed
    copy of another candidate is a chunk either.
    """
    slots = tx.inputs + tx.outputs
    positions = tuple(sorted({s.position for s in slots}))
    if not slots or len(positions) != len(slots):
        return None
    # Strings in key and datum slots are opaque scalars (see act_opaque).
    opaque = [i.key for i in tx.inputs] + [o.datum for o in tx.outputs]
    values = [v for v in opaque if not isinstance(v, str)] + [o.validator for o in tx.outputs]
    support_free = not any(map(mentions_atoms, values))
    return tx, positions, support_free


@dataclass(frozen=True, eq=False)
class IeutxoModel:
    """A finitely-presented model: a named transaction enumeration and its
    probe universe.

    ``probe_candidates`` is the universe for blocked-channel analysis,
    closed under position renaming by the analysis itself; it defaults to
    the enumeration, so every model has one.  Enumerated transactions must
    be nonempty, singleton-valid (disjoint input and output channels, so
    the identity arrow exists) and pairwise distinct.

    The model is immutable: the probe candidates that are chunks on their
    own, with their positions and whether they are support-free, are found
    once here (see :func:`_probe_facts`), not on every blocked-channel
    query.  Each enumerated transaction's facts are found once, and they
    also decide whether it is a chunk on its own.  A model with another
    universe is a new model (``dataclasses.replace``).
    """

    name: str
    transactions: TxList = ()
    probe_candidates: Optional[TxList] = None
    _probes: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "transactions", tuple(self.transactions))
        facts = {}
        for tx in self.transactions:
            fact = _probe_facts(tx)
            if fact is None:
                if tx.is_empty():
                    raise ModelError("models may not enumerate the empty transaction")
                raise ModelError(
                    "enumerated transactions must be chunks on their own "
                    "(disjoint input/output channels, distinct positions)"
                )
            if tx in facts:
                raise ModelError("duplicate transaction in model enumeration")
            facts[tx] = fact
        cands = self.probe_candidates
        cands = self.transactions if cands is None else tuple(cands)
        object.__setattr__(self, "probe_candidates", cands)
        probes = (facts.get(c) or _probe_facts(c) for c in cands)
        object.__setattr__(self, "_probes", tuple(filter(None, probes)))


def enumerate_chunks(model: IeutxoModel) -> Iterator[Chunk]:
    """All chunks buildable from the model's enumerated transactions.

    Transactions never repeat inside a chunk (every nonempty transaction has
    a position, and repeats collide), so the walk uses each at most once and
    terminates; prefixes of chunks are chunks, which makes pruning safe.
    """
    singles = [((tx,), _build_index((tx,))) for tx in model.transactions]

    def walk(prefix: Chunk, used: frozenset[int]) -> Iterator[Chunk]:
        yield prefix
        for idx, (single, index) in enumerate(singles):
            if idx in used:
                continue
            grown = _join(prefix._index, index)
            if grown is not None:
                yield from walk(Chunk._trusted(prefix.txs + single, grown), used | {idx})

    return walk(EMPTY_CHUNK, frozenset())


def is_iutxo_model(model: IeutxoModel) -> bool:
    """True when every validator in the enumeration is point-local."""
    return all(
        script_is_pure(o.validator)
        for tx in model.transactions
        for o in tx.outputs
    )


# ---------------------------------------------------------------------------
# Blocked channels


_ProbePlan = list[tuple[Transaction, Union[Input, Output], dict, bool]]


def _probe_plan(
    model: IeutxoModel, avoid: frozenset[Atom], slots: Callable[[Transaction], tuple]
) -> _ProbePlan:
    """(candidate, slot, renaming of the candidate's other positions, whether
    the candidate is support-free) for each probe candidate and each of its
    ``slots`` (its inputs, outputs or both), in candidate order and then
    slot position order.

    Made once per call, not once per probe: the other positions go to
    atoms minted outside ``avoid`` and the candidate's positions, and every
    queried atom lies in ``avoid``, so the fresh atoms do not depend on the
    queried atom or on the slot.  Of the ``2 * len(cpos) - 1`` atoms minted
    outside ``avoid``, at most ``len(cpos)`` are the candidate's own, so
    dropping those leaves enough, with no copy of ``avoid``.
    """
    plan = []
    for cand, cpos, support_free in model._probes:
        fresh = [a for a in fresh_atoms(2 * len(cpos) - 1, avoid) if a not in cpos]
        for slot in sorted(slots(cand), key=_position):
            others = [p for p in cpos if p != slot.position]
            plan.append((cand, slot, dict(zip(others, fresh)), support_free))
    return plan


def _relocated(moves: dict, value: Union[Input, Output, Transaction]):
    """``value`` with each position ``p`` moved to ``moves[p]`` and nothing
    else changed: what every permutation extending ``moves`` makes of a
    value whose keys, datums and validators mention no atom."""
    if isinstance(value, Transaction):
        return Transaction(
            [Input(moves[i.position], i.key) for i in value.inputs],
            [Output(moves[o.position], o.datum, o.validator) for o in value.outputs],
        )
    if isinstance(value, Input):
        return Input(moves[value.position], value.key)
    return Output(moves[value.position], value.datum, value.validator)


def _renamed_probes(
    plan: _ProbePlan, a: Atom
) -> Iterator[tuple[Transaction, Union[Input, Output], Callable]]:
    """Each planned (candidate, slot) with the renaming that lands the slot
    on ``a`` and the other positions on their fresh atoms.

    For a candidate with support the renaming is the exact permutation
    completing that map, so scripts, keys or datums that name a fresh atom
    or ``a`` are renamed consistently with the positions; a support-free
    candidate only has its positions moved (:func:`_relocated`).
    """
    for cand, slot, others, support_free in plan:
        moves = {**others, slot.position: a}
        if support_free:
            yield cand, slot, partial(_relocated, moves)
        else:
            yield cand, slot, partial(act, Permutation.extending(moves))


def _blocked(ch: Chunk, model: IeutxoModel, inputs: bool) -> frozenset[Atom]:
    """The unspent inputs (or outputs) of ``ch`` that no probe connects to.

    A probe for an unspent input ``a`` is a candidate renamed so that one of
    its outputs lands on ``a``, and goes before ``ch``; one for an unspent
    output has one of its inputs there and goes after.  Its other positions
    are fresh, outside ``ch``'s positions, so the probe meets ``ch`` at
    ``a`` alone, and by locality the concatenation is a chunk exactly when
    the output at ``a`` accepts the input at ``a``: one validator call, with
    no index or seam check.  The whole renamed probe is built only where it
    is read: as the spender's context at an unspent output.

    A permutation that fixes a value's support leaves the value unchanged,
    so a support-free candidate (see :func:`_probe_facts`) keeps its keys,
    datums and validators under every probe: its probe is the candidate
    with its positions moved, and no permutation is built or validator
    renamed.  A candidate with support is renamed by the exact permutation
    (see :func:`_renamed_probes`).
    """
    ix = _index_of(ch)
    slots = (lambda c: c.outputs) if inputs else (lambda c: c.inputs)
    plan = _probe_plan(model, ix.positions(), slots)

    def connects(a: Atom) -> bool:
        if inputs:
            spender = PointedTransaction(*ix.ins[a])
            return any(
                validates(rename(slot), spender)
                for _, slot, rename in _renamed_probes(plan, a)
            )
        out = ix.outs[a]
        return any(
            validates(out, PointedTransaction(rename(cand), rename(slot)))
            for cand, slot, rename in _renamed_probes(plan, a)
        )

    return frozenset(a for a in (ix.ins if inputs else ix.outs) if not connects(a))


def blocked_utxi(ch: Chunk, model: IeutxoModel) -> frozenset[Atom]:
    """Unspent inputs that no candidate chunk can ever connect to.

    The quantification over all chunks of the model is approximated by the
    model's probe universe closed under renaming of non-queried positions.
    Single-transaction probes suffice because validity is local, and a
    probe whose other positions are fresh meets the chunk at the queried
    input alone, so each probe costs one validator call (see
    :func:`_blocked`).
    """
    return _blocked(ch, model, inputs=True)


def blocked_utxo(ch: Chunk, model: IeutxoModel) -> frozenset[Atom]:
    """Unspent outputs no candidate chunk can spend; dual to :func:`blocked_utxi`."""
    return _blocked(ch, model, inputs=False)


def renamed_probe_chunks(
    atoms: Iterable[Atom], model: IeutxoModel
) -> list[Chunk]:
    """The renaming closure of the probe universe, targeted at ``atoms``.

    Every candidate slot (input or output) is retargeted onto every queried
    atom with the remaining positions fresh, giving the singleton chunks
    that can possibly connect there.  Candidates that are not chunks on
    their own are skipped.
    """
    avoid = frozenset(atoms)
    plan = _probe_plan(model, avoid, lambda c: c.inputs + c.outputs)
    return [
        Chunk._trusted((rename(cand),))
        for a in sorted(avoid)
        for cand, _, rename in _renamed_probes(plan, a)
    ]


# ---------------------------------------------------------------------------
# Church-Rosser

CR_VERIFIED = "Verified"
CR_PREMISES_FAILED = "PremisesFailed"
CR_COUNTEREXAMPLE = "CounterexampleFound"


@dataclass(frozen=True)
class ChurchRosserReport:
    status: str
    detail: str = ""

    def to_obj(self) -> dict:
        return {"status": self.status, "detail": self.detail}


def check_church_rosser(y: Chunk, x: Chunk, x2: Chunk) -> ChurchRosserReport:
    """Confluence for chunk attachment.

    Premises: ``y·x·x2`` is a chunk and attaching ``x`` in the middle leaves
    the unspent inputs unchanged (``utxi(y·x2) == utxi(y·x·x2)``).  Under
    them, ``x`` and ``x2`` must commute and ``y·x2·x`` must be a chunk; a
    premise-satisfying triple violating either conclusion indicates an
    implementation bug.
    """
    iy, ix, ix2 = _index_of(y), _index_of(x), _index_of(x2)
    yx = _join(iy, ix)
    full = None if yx is None else _join(yx, ix2)
    if full is None:
        return ChurchRosserReport(CR_PREMISES_FAILED, "y·x·x2 is not a chunk")
    # y·x2 is a sublist of the chunk y·x·x2, so by locality it is a chunk.
    yx2 = _join(iy, ix2)
    if yx2.ins.keys() != full.ins.keys():
        return ChurchRosserReport(
            CR_PREMISES_FAILED, "utxi(y·x2) differs from utxi(y·x·x2)"
        )
    problems = []
    if (_join(ix, ix2) is None) != (_join(ix2, ix) is None):
        problems.append("x and x2 do not commute")
    if _join(yx2, ix) is None:
        problems.append("y·x2·x is not a chunk")
    if problems:
        return ChurchRosserReport(CR_COUNTEREXAMPLE, "; ".join(problems))
    return ChurchRosserReport(CR_VERIFIED)


# ---------------------------------------------------------------------------
# Arrows between models


@dataclass(eq=False)
class IeutxoArrow:
    """A map from source transactions to target chunks, as a finite table."""

    source: IeutxoModel
    target: IeutxoModel
    table: dict

    def __post_init__(self):
        for tx in self.source.transactions:
            if tx not in self.table:
                raise NotAnArrow(f"table misses source transaction {tx.label()}")
        for image in self.table.values():
            if not isinstance(image, Chunk):
                raise NotAnArrow("arrow images must be chunks")

    def __call__(self, tx: Transaction) -> Chunk:
        try:
            return self.table[tx]
        except KeyError:
            raise NotAnArrow(f"transaction not in arrow table: {tx.label()}") from None


def identity_arrow(model: IeutxoModel) -> IeutxoArrow:
    return IeutxoArrow(model, model, {tx: Chunk((tx,)) for tx in model.transactions})


def arrow_violation(
    f: IeutxoArrow,
) -> Optional[tuple[Transaction, Transaction]]:
    """First source pair whose chunkhood the table fails to preserve."""
    txs = f.source.transactions
    for s in txs:
        for t in txs:
            if s == t:
                continue
            if is_chunk((s, t)) and compose(f(s), f(t)) is FAIL:
                return (s, t)
    return None


def arrow_check(f: IeutxoArrow) -> bool:
    return arrow_violation(f) is None


def arrow_apply(f: IeutxoArrow, x: ChunkOrFail) -> ChunkOrFail:
    """Extend the table to chunks: act transactionwise and compose the
    images; the failure element maps to itself."""
    if x is FAIL:
        return FAIL
    return compose_all(f(tx) for tx in x.txs)


def arrow_compose(f: IeutxoArrow, g: IeutxoArrow) -> IeutxoArrow:
    """The arrow doing ``f`` then ``g`` (pointwise on the table)."""
    if f.target is not g.source and f.target.transactions != g.source.transactions:
        raise NotAnArrow("arrow targets/sources do not line up")
    table = {tx: arrow_apply(g, f(tx)) for tx in f.source.transactions}
    for tx, image in table.items():
        if image is FAIL:
            raise NotAnArrow(f"composite maps {tx.label()} to FAIL")
    return IeutxoArrow(f.source, g.target, table)


def arrows_equal(f: IeutxoArrow, g: IeutxoArrow) -> bool:
    return f.table == g.table
