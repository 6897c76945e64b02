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
outputs, unspent inputs and spent channels).  A seam check on two indices
decides whether they compose; a merge of the two, the way a ledger applies
a block to its UTxO map, gives the result's index.  Verdicts (composable,
commuting, Church–Rosser, whose premises and conclusions are four seams on
its operands' indices) check seams alone; only a returned chunk merges;
enumeration walks a table of pair seams (:func:`pair_masks`), which the
model keeps, and indexes no chunk.  Composition and
enumeration build a chunk, by the one trusted constructor, only where they
return one; :class:`Chunk` built directly validates the whole list with
:func:`check_chunk`, the from-scratch reference.  A validator reads a datum
and a :class:`PointedTransaction`; a context whose point is read off the
transaction's own inputs (the scan's matched inputs, a seam's spends, the
chunk's spender at an unspent input) is built unchecked, and only a point
from elsewhere is checked.  Totalizing the partial
composition with the absorbing :data:`FAIL` element turns the chunk set into
a monoid with an explicit failure top.  ``FAIL`` is an interned
:class:`TopElement`, the kind of failure element every chunk system in
:mod:`chunkalg.acs` adjoins (each under its own tag), so a top is tested
by identity.  A *blockchain* is a chunk with no unspent inputs.

Blocked-channel analysis probes each unspent input or output with the
model's probe candidates (its enumeration unless it declares others),
renamed so that one slot lands on the queried position and every other
position is fresh.  Freshness shrinks the seam to that one position, so
each probe comes down to one validator call.  The model keeps one table of
candidate slots per side, and a query renames a probe, by the one
permutation :func:`_retarget` builds, only when it evaluates it.  Renaming
is equivariant, and a permutation that fixes a value's support (the atoms
its renaming reads, :func:`~chunkalg.atoms.support`) leaves the value
unchanged.  So a candidate whose keys, datums and validators mention no
atom has one probe per slot, whatever the renaming, and needs no
permutation: its output slot as it is (no validator sees its output's
position), or the point ``Input(a, key)``, whose spender is renamed only
when a validator reads it (only ``SpendsAtMostNInputs`` does).  Which
candidates are chunks on their own, and which are support-free, is found
once, when the model is built, and the same facts validate the model's
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .atoms import (
    Atom,
    Atomless,
    Permutation,
    act_opaque,
    fresh_atoms,
    mentions_atoms,
    value_label,
)
from .scripts import Script, evaluate_script, frozen_slotted, script_is_pure, script_label


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


@frozen_slotted
class Input:
    """An atom-labelled key.  A blocked-channel query builds one per probe
    at an unspent output, so the constructor fills the slots through their
    descriptors, not through the frozen ``__setattr__``; the value is the
    frozen dataclass's."""

    position: Atom
    key: Any

    def __init__(self, position: Atom, key: Any):
        _set_input_position(self, position)
        _set_input_key(self, key)

    def rename(self, perm: Permutation) -> "Input":
        return Input(perm(self.position), act_opaque(perm, self.key))

    def sort_key(self) -> tuple:
        return (self.position, value_label(self.key))


@frozen_slotted
class Output:
    """An atom-labelled datum guarded by a validator; built like :class:`Input`."""

    position: Atom
    datum: Any
    validator: Script

    def __init__(self, position: Atom, datum: Any, validator: Script):
        _set_output_position(self, position)
        _set_output_datum(self, datum)
        _set_output_validator(self, validator)

    def rename(self, perm: Permutation) -> "Output":
        return Output(
            perm(self.position),
            act_opaque(perm, self.datum),
            self.validator.rename(perm),
        )

    def sort_key(self) -> tuple:
        return (self.position, value_label(self.datum), script_label(self.validator))


# The slot descriptors' setters, which a frozen slotted dataclass still has.
_set_input_position, _set_input_key = Input.position.__set__, Input.key.__set__
_set_output_position = Output.position.__set__
_set_output_datum, _set_output_validator = Output.datum.__set__, Output.validator.__set__


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
    part of the immutable value, not a cache keyed by input, and every
    label of a chunk over the transaction reads it again.  It is not
    computed in the constructor, since most transactions (generated,
    parsed, renamed probes) are never labelled.  The hash, the one the
    dataclass would generate, is kept the same way; it is not pickled,
    since ``str`` hashes differ between processes.
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
    """A transaction with one distinguished input: the shape validators see.

    Built directly, it checks that the point is one of the transaction's
    inputs; renaming is built that way, and so is a probe's spender once a
    validator reads it (see :class:`_SpendingContext`).  A context whose
    point is read off the transaction's own inputs (a chunk's scan in
    :func:`check_chunk`, a seam's spends in :func:`_seam`, the chunk's
    spender at an unspent input in :func:`_blocked`, a generated output's
    key search) is built unchecked by :meth:`_trusted`.
    """

    transaction: Transaction
    point: Input

    def __post_init__(self):
        if self.point not in self.transaction.inputs:
            raise ValueError("point must be one of the transaction's inputs")

    @classmethod
    def _trusted(cls, transaction: Transaction, point: Input) -> "PointedTransaction":
        """``transaction`` pointed at ``point``, one of its own inputs, built
        without the membership check."""
        ptx = object.__new__(cls)
        fields = ptx.__dict__
        fields["transaction"], fields["point"] = transaction, point
        return ptx

    def rename(self, perm: Permutation) -> "PointedTransaction":
        return PointedTransaction(self.transaction.rename(perm), self.point.rename(perm))


class _SpendingContext:
    """A pointed transaction whose transaction is built on first read.

    Every node kind but ``SpendsAtMostNInputs`` reads only the point, so a
    probe's spender, ``build()``, is built only for a validator that
    reads it; it is then checked by :class:`PointedTransaction`, and kept.
    """

    def __init__(self, point: Input, build: Callable[[], Transaction]):
        self.point, self._build = point, build

    @cached_property
    def transaction(self) -> Transaction:
        return PointedTransaction(self._build(), self.point).transaction


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
    violation: Optional[Violation] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

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
    duplicates, (input transaction, output transaction) for pointer faults
    and (output transaction, input transaction) for validation faults.  A
    :class:`Chunk` is checked like any list of its transactions: the
    reference trusts no type, builds no index and calls the validator for
    every matched input.  It is the checking path of :class:`Chunk`: a chunk
    built directly is validated here, and only :meth:`Chunk._trusted` skips it.

    A first pass records each output position's first output and the
    transaction of its second occurrence, if any; the earliest such
    transaction is where the scan's output check fires, unless an input
    violation comes first.  A matched input's context is read off its own
    transaction, so it is built unchecked (:meth:`PointedTransaction._trusted`).
    """
    txs = tuple(txs)
    first: dict[Atom, tuple[int, Output]] = {}
    second: dict[Atom, int] = {}
    for t, tx in enumerate(txs):
        for o in tx.outputs:
            p = o.position
            if p not in first:
                first[p] = (t, o)
            elif p not in second:
                second[p] = t
    dup_t = min(second.values(), default=None)
    seen_inputs: dict[Atom, int] = {}
    pointed = PointedTransaction._trusted
    for t, tx in enumerate(txs):
        if tx.is_empty():
            return ChunkReport(
                Violation(EMPTY_TRANSACTION, (), (t,), "empty transaction")
            )
        for i in tx.inputs:
            p = i.position
            if p in seen_inputs:
                return ChunkReport(
                    Violation(DUPLICATE_INPUT_POSITION, (p,), (seen_inputs[p], t)),
                )
            seen_inputs[p] = t
            if p in second:
                return ChunkReport(
                    Violation(DUPLICATE_OUTPUT_POSITION, (p,), (first[p][0], second[p])),
                )
            occ = first.get(p)
            if occ is not None:
                ot, o = occ
                if ot >= t:
                    return ChunkReport(
                        Violation(
                            BACKWARD_OR_SELF_POINTER,
                            (p,),
                            (t, ot),
                            "input points to a later or same-transaction output",
                        ),
                    )
                if not validates(o, pointed(tx, i)):
                    return ChunkReport(
                        Violation(
                            VALIDATION_FAILED,
                            (p,),
                            (ot, t),
                            "earlier output refuses the input",
                        ),
                    )
        if t == dup_t:
            # The first output here that is not its position's first occurrence.
            p = next(o.position for o in tx.outputs if first[o.position] != (t, o))
            return ChunkReport(
                Violation(DUPLICATE_OUTPUT_POSITION, (p,), (first[p][0], t)),
            )
    return ChunkReport()


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

    The hash is computed on first use and kept on the chunk, like a
    transaction's, and is not pickled; a composition also carries its
    position index (see :class:`_Index`).  Both are parts of the immutable
    value, not caches keyed by input.  The label is not kept: it joins the
    labels its transactions keep, and is built on each call, since a
    chunk's label is read at most once (to sort a carrier or to report).
    """

    txs: TxList
    # Set only by _trusted: the index of a composition (see _Index).
    _index = None
    # Set by __hash__ on first use.
    _hash = None

    def __post_init__(self):
        object.__setattr__(self, "txs", tuple(self.txs))
        report = check_chunk(self.txs)
        if not report.ok:
            raise NotAChunk(report)

    @classmethod
    def _trusted(cls, txs: TxList, index: Optional["_Index"] = None) -> "Chunk":
        """A chunk of ``txs`` already known valid, built without revalidation.

        The one constructor that skips :func:`check_chunk`; callers hand it
        seam-checked compositions, enumerated chunks, renamed chunks and
        probes, factors of a chunk and a model's transactions as singletons.
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
        return "ch[" + ";".join(tx.label() for tx in self.txs) + "]"

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
    the unit's; for any other chunk (a directly built or enumerated one) it
    is built afresh and not kept, since pools hold many chunks."""
    return chunk._index or (_build_index(chunk.txs) if chunk.txs else EMPTY_CHUNK._index)


def _seam(x: _Index, y: _Index) -> Optional[set[Atom]]:
    """The positions ``x·y`` spends across the seam, or None if ``x·y`` is
    not a chunk; the set may be empty, so test it against None.

    Validity is local, so ``x·y`` is a chunk exactly when ``y``'s outputs
    avoid ``x``'s outputs, ``y``'s inputs avoid ``x``'s inputs, ``x``'s
    inputs avoid ``y``'s outputs, and every ``y`` input on an ``x`` output
    passes that output's validator.  A chunk's unspent outputs, unspent
    inputs and spent channels partition its positions, so on the indices:
    the only positions the two share are ``y``'s unspent inputs on ``x``'s
    unspent outputs, and those validate.  Each disjointness test has a key
    view or two sets as its receiver, so it iterates the smaller operand.
    """
    xo, xi, xs = x.outs.keys(), x.ins.keys(), x.stx
    yo, yi, ys = y.outs.keys(), y.ins.keys(), y.stx
    if not (
        xo.isdisjoint(yo) and xo.isdisjoint(ys)
        and xi.isdisjoint(yo) and xi.isdisjoint(yi) and xi.isdisjoint(ys)
        and yo.isdisjoint(xs) and yi.isdisjoint(xs) and xs.isdisjoint(ys)
    ):
        return None
    spends = xo & yi
    for p in spends:
        tx, i = y.ins[p]
        if not validates(x.outs[p], PointedTransaction._trusted(tx, i)):
            return None
    return spends


def compose(x: ChunkOrFail, y: ChunkOrFail) -> ChunkOrFail:
    """The concatenation if it is a chunk, else FAIL; FAIL is absorbing.

    Only the seam is checked, on the operands' indices (:func:`_seam`); the
    result is built by the trusted constructor and carries their merge,
    which spends the seam's positions, for later compositions and ledger
    reads.
    """
    if x is FAIL or y is FAIL:
        return FAIL
    ix, iy = _index_of(x), _index_of(y)
    spends = _seam(ix, iy)
    if spends is None:
        return FAIL
    outs = dict(ix.outs)
    ins = {**ix.ins, **iy.ins}
    for p in spends:
        del outs[p]
        del ins[p]
    outs.update(iy.outs)
    return Chunk._trusted(x.txs + y.txs, _Index(outs, ins, ix.stx.union(iy.stx, spends)))


def composable(x: ChunkOrFail, y: ChunkOrFail) -> bool:
    """Is ``x·y`` a chunk?  The answer ``compose(x, y) is not FAIL`` gives,
    from the seam check alone (:func:`_seam`), without building the product."""
    return x is not FAIL and y is not FAIL and _seam(_index_of(x), _index_of(y)) is not None


def compose_all(parts: Iterable[ChunkOrFail]) -> ChunkOrFail:
    out: ChunkOrFail = EMPTY_CHUNK
    for part in parts:
        out = compose(out, part)
    return out


def is_sublist(small: Sequence, big: Sequence) -> bool:
    """Is ``small`` obtainable from ``big`` by deleting (never rearranging) items?"""
    it = iter(big)
    return all(item in it for item in small)


def chunk_leq(x: ChunkOrFail, y: ChunkOrFail) -> bool:
    """Sublist order on chunks with FAIL on top."""
    if y is FAIL:
        return True
    if x is FAIL:
        return False
    return is_sublist(x.txs, y.txs)


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
    return (_seam(ix, iy) is None) == (_seam(iy, ix) is None)


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
    query.  From them it also builds one table per side of (candidate,
    positions, slot, support-free), which the queries read in order (see
    :func:`_blocked`): the output slots, which probe unspent inputs, and the
    input slots, which probe unspent outputs, support-free candidates first
    and then in candidate and slot position order.  Each enumerated
    transaction's facts are found once, and they also decide whether it is
    a chunk on its own.  Its pair table (:func:`pair_masks`) is kept from
    its first read, not built here: most models are never enumerated.  A
    model with another universe is a new model (``dataclasses.replace``).
    """

    name: str
    transactions: TxList = ()
    probe_candidates: Optional[TxList] = None
    _probes: tuple = field(default=(), init=False, repr=False)
    _out_probes: tuple = field(default=(), init=False, repr=False)
    _in_probes: tuple = field(default=(), init=False, repr=False)
    _pairs: Optional[tuple] = field(default=None, init=False, repr=False)

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
        probes = tuple(filter(None, (facts.get(c) or _probe_facts(c) for c in cands)))
        object.__setattr__(self, "_probes", probes)
        # Support-free candidates first.  A candidate's slots are in
        # position order, since its positions are distinct.
        ordered = sorted(probes, key=lambda fact: not fact[2])
        outs = tuple((c, p, o, free) for c, p, free in ordered for o in c.outputs)
        ins = tuple((c, p, i, free) for c, p, free in ordered for i in c.inputs)
        object.__setattr__(self, "_out_probes", outs)
        object.__setattr__(self, "_in_probes", ins)


def pair_masks(model: IeutxoModel) -> tuple[int, ...]:
    """Bit ``j`` of entry ``i`` is set exactly when model transaction ``j``
    may follow transaction ``i``, that is, when ``(t_i, t_j)`` is a chunk:
    ``n²`` seam checks on the singleton indices, ``i = j`` included (no
    transaction follows itself).  By locality this table fixes every chunk.
    The model is immutable, so it keeps the table from the first read."""
    pairs = model._pairs
    if pairs is None:
        singles = [_build_index((tx,)) for tx in model.transactions]
        pairs = tuple(
            sum(1 << j for j, y in enumerate(singles) if _seam(x, y) is not None)
            for x in singles
        )
        object.__setattr__(model, "_pairs", pairs)
    return pairs


def walk_chunks(model: IeutxoModel) -> Iterator[tuple[Chunk, int, int]]:
    """All chunks of the model, each with its mask (bit ``j`` for transaction
    ``j``) and the mask of transactions allowed after it: :data:`EMPTY_CHUNK`,
    then depth first in transaction order.  By locality ``t`` extends a chunk
    exactly when it may follow each of its transactions, so the walk ANDs
    their :func:`pair_masks` entries, checks no seam and indexes no chunk."""
    follows = pair_masks(model)

    def walk(prefix: TxList, mask: int, allowed: int) -> Iterator[tuple[Chunk, int, int]]:
        for j, tx in enumerate(model.transactions):
            if allowed >> j & 1:
                grown = prefix + (tx,)
                grown_mask, after = mask | 1 << j, allowed & follows[j]
                yield Chunk._trusted(grown), grown_mask, after
                yield from walk(grown, grown_mask, after)

    everything = (1 << len(follows)) - 1
    yield EMPTY_CHUNK, 0, everything
    yield from walk((), 0, everything)


def pair_mismatch(
    table: dict, source: IeutxoModel, target: IeutxoModel
) -> Optional[tuple[Transaction, Transaction]]:
    """First pair ``(s, t)`` of ``source`` transactions that is a chunk
    exactly when ``(table[s], table[t])`` is not one of ``target``; None
    when ``table``, which maps each source transaction to a target
    transaction, carries one :func:`pair_masks` table onto the other.  By
    locality a bijection of the transactions that does so maps the source's
    chunks onto the target's.  ``n²`` bit tests on the kept tables; no chunk
    is built."""
    index = {tx: j for j, tx in enumerate(target.transactions)}
    images = [index[table[tx]] for tx in source.transactions]
    src, tgt = pair_masks(source), pair_masks(target)
    for i, s in enumerate(source.transactions):
        row = tgt[images[i]]
        for j, t in enumerate(source.transactions):
            if (src[i] >> j & 1) != (row >> images[j] & 1):
                return (s, t)
    return None


def enumerate_chunks(model: IeutxoModel) -> Iterator[Chunk]:
    """All chunks of the model's transactions, in :func:`walk_chunks` order."""
    return (chunk for chunk, _, _ in walk_chunks(model))


def is_iutxo_model(model: IeutxoModel) -> bool:
    """True when every validator in the enumeration is point-local."""
    return all(
        script_is_pure(o.validator)
        for tx in model.transactions
        for o in tx.outputs
    )


# ---------------------------------------------------------------------------
# Blocked channels


def _retarget(
    cpos: tuple[Atom, ...], slot: Atom, a: Atom, avoid: frozenset[Atom]
) -> Permutation:
    """The renaming of a probe candidate whose sorted positions are
    ``cpos`` that sends ``slot`` to ``a`` and the other positions, in order,
    to fresh atoms outside ``avoid`` and ``cpos``.  Every probe, and every
    probe's spender, is its candidate renamed by it, so scripts, keys or
    datums that name a fresh atom or ``a`` move with the positions."""
    others = [p for p in cpos if p != slot]
    moves = dict(zip(others, fresh_atoms(len(others), avoid.union(cpos))))
    moves[slot] = a
    return Permutation.extending(moves)


def _blocked(ch: Chunk, model: IeutxoModel, inputs: bool) -> frozenset[Atom]:
    """The unspent inputs (or outputs) of ``ch`` that no probe connects to.

    A probe for an unspent input ``a`` is a candidate renamed so that one of
    its outputs lands on ``a``, and goes before ``ch``; one for an unspent
    output has one of its inputs there and goes after.  Its other positions
    are fresh, outside ``ch``'s positions, so the probe meets ``ch`` at
    ``a`` alone, and by locality the concatenation is a chunk exactly when
    the output at ``a`` accepts the input at ``a``: one validator call, with
    no index or seam check.  The probes are the entries of the model's
    table for that side, in its order; each is renamed by :func:`_retarget`
    only when it is evaluated.  A probe builds its point, and builds the
    spender's transaction only when a validator reads it (only
    ``SpendsAtMostNInputs`` does; see :class:`_SpendingContext`).

    A permutation that fixes a value's support leaves the value unchanged,
    so a support-free candidate (see :func:`_probe_facts`) has one probe per
    slot, whatever the renaming, and needs no permutation to evaluate: at
    an unspent input its output slot is evaluated as it is (no validator
    sees its own output's position); at an unspent output the point is
    ``Input(a, key)``, and only a spender that is read is renamed.
    """
    ix = _index_of(ch)

    def retarget(cpos, slot, a) -> Permutation:
        return _retarget(cpos, slot.position, a, ix.positions())

    def spending(cand, cpos, slot, support_free, a) -> _SpendingContext:
        if support_free:
            return _SpendingContext(Input(a, slot.key), lambda: cand.rename(retarget(cpos, slot, a)))
        perm = retarget(cpos, slot, a)
        return _SpendingContext(slot.rename(perm), partial(cand.rename, perm))

    def connects(a: Atom) -> bool:
        if inputs:
            spender = PointedTransaction._trusted(*ix.ins[a])
            return any(
                validates(slot if free else slot.rename(retarget(cpos, slot, a)), spender)
                for _, cpos, slot, free in model._out_probes
            )
        out = ix.outs[a]
        return any(validates(out, spending(*probe, a)) for probe in model._in_probes)

    return frozenset(a for a in (ix.ins if inputs else ix.outs) if not connects(a))


def blocked_utxi(ch: Chunk, model: IeutxoModel) -> frozenset[Atom]:
    """Unspent inputs that no candidate chunk can ever connect to.

    The quantification over all chunks of the model is approximated by the
    model's probe universe closed under renaming of non-queried positions.
    Single-transaction probes suffice because validity is local, and a
    probe whose other positions are fresh meets the chunk at the queried
    input alone, so each probe costs one validator call, and builds no
    transaction: the spender is the chunk's own (see :func:`_blocked`).  The
    probes are the model's table of output slots; a support-free
    candidate's slot is evaluated as it is, and only a candidate with
    support is renamed (by :func:`_retarget`).
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
    that can possibly connect there; each candidate, support-free or not,
    is renamed by its exact permutation.  Candidates that are not chunks on
    their own are skipped.
    """
    avoid = frozenset(atoms)
    return [
        Chunk._trusted((cand.rename(_retarget(cpos, slot, a, avoid)),))
        for a in sorted(avoid)
        for cand, cpos, _ in model._probes
        for slot in cpos
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

    Validity is local, so everything is decided by seams on the three
    operands' own indices, and nothing is merged.  ``y·x·x2`` is a chunk
    exactly when the seams ``y·x``, ``y·x2`` and ``x·x2`` hold.  Its input
    positions are then distinct, so its unspent inputs exceed those of
    ``y·x2`` by the inputs of ``x`` that ``y`` leaves unspent and the inputs
    of ``x2`` that ``x`` spends: the second premise holds exactly when
    neither set has a member.  Under both premises ``x·x2`` is a chunk, so
    the two conclusions fail together, exactly when the seam ``x2·x`` fails.
    """
    iy, ix, ix2 = _index_of(y), _index_of(x), _index_of(x2)
    if _seam(iy, ix) is None or _seam(iy, ix2) is None or _seam(ix, ix2) is None:
        return ChurchRosserReport(CR_PREMISES_FAILED, "y·x·x2 is not a chunk")
    if not (ix.ins.keys() <= iy.outs.keys() and ix2.ins.keys().isdisjoint(ix.outs)):
        return ChurchRosserReport(
            CR_PREMISES_FAILED, "utxi(y·x2) differs from utxi(y·x·x2)"
        )
    if _seam(ix2, ix) is None:
        return ChurchRosserReport(
            CR_COUNTEREXAMPLE, "x and x2 do not commute; y·x2·x is not a chunk"
        )
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
    return IeutxoArrow(model, model, {tx: Chunk._trusted((tx,)) for tx in model.transactions})


def arrow_violation(
    f: IeutxoArrow,
) -> Optional[tuple[Transaction, Transaction]]:
    """First source pair whose chunkhood the table fails to preserve.  The
    source's chunk pairs are read off its :func:`pair_masks` table."""
    txs = f.source.transactions
    for s, follows in zip(txs, pair_masks(f.source)):
        for j, t in enumerate(txs):
            if follows >> j & 1 and not composable(f(s), f(t)):
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
