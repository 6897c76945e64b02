"""The chunk scan against a frozen copy of its earlier form, and its trusted contexts.

``check_chunk`` keeps each output position's first output and the index of
its second occurrence, and builds each validator context unchecked; the
earlier scan kept every occurrence of every output position, a second
table of outputs seen so far, and built each context with the checking
constructor.  A verbatim copy of the earlier scan is kept here as the
reference, and Hypothesis requires the two reports to be equal on lists
that force every violation kind and each tie-break between them.

The trusted context (:meth:`PointedTransaction._trusted`) must be the
value the checking constructor builds, and the library's hot paths must
not reach the checking constructor at all.
"""

import copy
import dataclasses
import pickle
from typing import Sequence, Union

import pytest
from hypothesis import HealthCheck, event, find, given, settings
from hypothesis import strategies as st

from chunkalg.atoms import Atom, swap
from chunkalg.ieutxo import (
    BACKWARD_OR_SELF_POINTER,
    DUPLICATE_INPUT_POSITION,
    DUPLICATE_OUTPUT_POSITION,
    EMPTY_CHUNK,
    EMPTY_TRANSACTION,
    VALIDATION_FAILED,
    Chunk,
    ChunkReport,
    Input,
    Output,
    PointedTransaction,
    Transaction,
    Violation,
    blocked_utxi,
    blocked_utxo,
    check_chunk,
    compose,
    pos,
    validates,
)
from chunkalg.jsonio import load_model, load_txlist
from chunkalg.scripts import (
    AcceptAll,
    KeyEquals,
    Not,
    Or,
    RejectAll,
    SpendsAtMostNInputs,
)

from conftest import fixture_path


# ---------------------------------------------------------------------------
# Frozen reference: the scan as it was before it kept one first-occurrence
# table (its code verbatim, apart from the ``ref_`` name)


def ref_check_chunk(txs: Union[Sequence[Transaction], "Chunk"]) -> ChunkReport:
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
                Violation(EMPTY_TRANSACTION, (), (t,), "empty transaction")
            )
        for i in tx.inputs:
            p = i.position
            if p in seen_inputs:
                return ChunkReport(
                    Violation(DUPLICATE_INPUT_POSITION, (p,), (seen_inputs[p], t)),
                )
            seen_inputs[p] = t
            occ = out_occ.get(p, ())
            if len(occ) > 1:
                return ChunkReport(
                    Violation(
                        DUPLICATE_OUTPUT_POSITION, (p,), (occ[0][0], occ[1][0])
                    ),
                )
            if occ:
                ot, o = occ[0]
                if ot >= t:
                    return ChunkReport(
                        Violation(
                            BACKWARD_OR_SELF_POINTER,
                            (p,),
                            (t, ot),
                            "input points to a later or same-transaction output",
                        ),
                    )
                if not validates(o, PointedTransaction(tx, i)):
                    return ChunkReport(
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
                    Violation(DUPLICATE_OUTPUT_POSITION, (p,), (seen_outputs[p], t)),
                )
            seen_outputs[p] = t
    return ChunkReport()


# ---------------------------------------------------------------------------
# Strategies: a base list, valid or not, with injected faults

ATOMS = ("a", "b", "c", "d", "e")
KEYS = ("k0", "k1")
# Validators that accept a spender with key k0 and at most two inputs, and
# others that refuse some spenders; some read the key, some the transaction.
ACCEPTING = (AcceptAll(), KeyEquals("k0"), Or(KeyEquals("k1"), SpendsAtMostNInputs(2)))
VALIDATORS = ACCEPTING + (RejectAll(), Not(KeyEquals("k0")), SpendsAtMostNInputs(1))

slot_inputs = st.builds(Input, st.sampled_from(ATOMS), st.sampled_from(KEYS))
slot_outputs = st.builds(
    Output, st.sampled_from(ATOMS), st.integers(0, 2), st.sampled_from(VALIDATORS)
)
random_txs = st.builds(
    Transaction, st.lists(slot_inputs, max_size=3), st.lists(slot_outputs, max_size=3)
)


@st.composite
def valid_chains(draw):
    """A chunk: each transaction spends some earlier unspent outputs, with a
    key and input count every output accepts, and makes fresh outputs."""
    txs, unspent, fresh = [], [], iter(f"p{n}" for n in range(100))
    for _ in range(draw(st.integers(1, 5))):
        spent = draw(st.lists(st.sampled_from(unspent), unique=True, max_size=2)) if unspent else []
        unspent = [p for p in unspent if p not in spent]
        made = [next(fresh) for _ in range(draw(st.integers(1 if not spent else 0, 2)))]
        outs = [Output(p, 0, draw(st.sampled_from(ACCEPTING))) for p in made]
        txs.append(Transaction([Input(p, "k0") for p in spent], outs))
        unspent += made
    return txs


def _positions(txs) -> list:
    return sorted(pos(list(txs))) or ["a"]


def _add(tx: Transaction, inputs=(), outputs=()) -> Transaction:
    return Transaction(tx.inputs + tuple(inputs), tx.outputs + tuple(outputs))


def _empty_at(draw, txs):
    txs.insert(draw(st.integers(0, len(txs))), Transaction())


def _listed_twice(draw, txs):
    if txs:
        j = draw(st.integers(0, len(txs) - 1))
        txs.insert(draw(st.integers(j + 1, len(txs))), txs[j])


def _two_outputs_in_one_tx(draw, txs):
    if txs:
        t = draw(st.integers(0, len(txs) - 1))
        p = draw(st.sampled_from(_positions(txs)))
        v = draw(st.sampled_from(VALIDATORS))
        txs[t] = _add(txs[t], outputs=[Output(p, 10, v), Output(p, 11, v)])


def _input_meets_duplicated_output(draw, txs):
    """An output at ``p``, a later input at ``p``, then a second output at
    ``p`` after the input."""
    p = draw(st.sampled_from(_positions(txs) + ["q"]))
    cuts = sorted(draw(st.lists(st.integers(0, len(txs)), min_size=3, max_size=3)))
    pattern = [
        Transaction((), [Output(p, 20, AcceptAll())]),
        Transaction([Input(p, "k0")], ()),
        Transaction((), [Output(p, 21, AcceptAll())]),
    ]
    for offset, (cut, tx) in enumerate(zip(cuts, pattern)):
        txs.insert(cut + offset, tx)


def _pointer(draw, txs):
    """An input at ``p`` in the same transaction as an output at ``p`` (a
    self pointer), or in an earlier one (a later pointer)."""
    p = draw(st.sampled_from(_positions(txs) + ["q"]))
    key = draw(st.sampled_from(KEYS))
    if not txs or draw(st.booleans()):
        t = draw(st.integers(0, len(txs)))
        txs.insert(t, Transaction([Input(p, key)], [Output(p, 30, AcceptAll())]))
        return
    t = draw(st.integers(0, len(txs) - 1))
    later = draw(st.integers(t + 1, len(txs)))
    txs.insert(later, Transaction((), [Output(p, 31, AcceptAll())]))
    txs[t] = _add(txs[t], inputs=[Input(p, key)])


def _refused_spend(draw, txs):
    """An output whose validator refuses, spent by a later input."""
    p = draw(st.sampled_from(["q", "r"]))
    v = draw(st.sampled_from((RejectAll(), KeyEquals("k1"), SpendsAtMostNInputs(0))))
    t = draw(st.integers(0, len(txs)))
    txs.insert(t, Transaction((), [Output(p, 40, v)]))
    later = draw(st.integers(t + 1, len(txs)))
    if later < len(txs) and draw(st.booleans()):
        txs[later] = _add(txs[later], inputs=[Input(p, "k0")])
    else:
        txs.insert(later, Transaction([Input(p, "k0")], ()))


def _duplicate_input(draw, txs):
    """A second input at an input position, in the same or a later transaction."""
    ins = [(t, i) for t, tx in enumerate(txs) for i in tx.inputs]
    if not ins:
        return
    t, i = draw(st.sampled_from(ins))
    other = Input(i.position, "k1" if i.key == "k0" else "k0")
    u = draw(st.integers(t, len(txs)))
    if u == len(txs):
        txs.append(Transaction([other], ()))
    else:
        txs[u] = _add(txs[u], inputs=[other])


FAULTS = (
    _empty_at,
    _listed_twice,
    _two_outputs_in_one_tx,
    _input_meets_duplicated_output,
    _pointer,
    _refused_spend,
    _duplicate_input,
)


@st.composite
def tx_lists(draw):
    txs = list(draw(st.one_of(valid_chains(), st.lists(random_txs, max_size=4))))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        fault(draw, txs)
    return txs


def _kind(report: ChunkReport) -> str:
    return report.violation.kind if report.violation else "ok"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tx_lists())
def test_scan_matches_the_frozen_reference(txs):
    want = ref_check_chunk(txs)
    event(_kind(want))
    assert check_chunk(txs) == want
    assert check_chunk(iter(txs)) == want
    if want.ok:
        assert check_chunk(Chunk(txs)) == want


def _meets_duplicate(xs) -> bool:
    v = ref_check_chunk(xs).violation
    if v is None or v.kind != DUPLICATE_OUTPUT_POSITION:
        return False
    t0, t2 = v.tx_indices
    return any(i.position == v.positions[0] for tx in xs[t0 + 1 : t2] for i in tx.inputs)


def _twice(xs) -> bool:
    v = ref_check_chunk(xs).violation
    return v is not None and len(v.tx_indices) == 2 and v.tx_indices[0] != v.tx_indices[1] and (
        xs[v.tx_indices[0]] is xs[v.tx_indices[1]]
    )


def _violation_is(kind, same_tx=None, index=None):
    def holds(xs) -> bool:
        v = ref_check_chunk(xs).violation
        if v is None or v.kind != kind:
            return False
        if index is not None:
            return v.tx_indices[0] == index
        return same_tx is None or (v.tx_indices[0] == v.tx_indices[1]) == same_tx

    return holds


TIE_BREAKS = {
    "valid": lambda xs: ref_check_chunk(xs).ok and len(xs) > 2,
    "two outputs at one position in one transaction": _violation_is(
        DUPLICATE_OUTPUT_POSITION, same_tx=True
    ),
    "the same transaction listed twice": _twice,
    "an input meets a duplicated output before its second occurrence": _meets_duplicate,
    "a self pointer": _violation_is(BACKWARD_OR_SELF_POINTER, same_tx=True),
    "a later pointer": _violation_is(BACKWARD_OR_SELF_POINTER, same_tx=False),
    "a refusing validator": _violation_is(VALIDATION_FAILED),
    "an empty transaction first": _violation_is(EMPTY_TRANSACTION, index=0),
    "an empty transaction later": lambda xs: _violation_is(EMPTY_TRANSACTION)(xs)
    and ref_check_chunk(xs).violation.tx_indices[0] > 0,
    "a duplicate input in one transaction": _violation_is(DUPLICATE_INPUT_POSITION, same_tx=True),
    "a duplicate input in a later transaction": _violation_is(
        DUPLICATE_INPUT_POSITION, same_tx=False
    ),
}


@pytest.mark.parametrize("case", sorted(TIE_BREAKS))
def test_the_strategy_reaches_each_tie_break(case):
    """Each violation kind and tie-break is the first violation of some
    drawn list, and there the two scans agree."""
    xs = find(tx_lists(), TIE_BREAKS[case], settings=settings(max_examples=5_000, database=None))
    assert check_chunk(xs) == ref_check_chunk(xs)


# ---------------------------------------------------------------------------
# The trusted context


def _contexts():
    tx = Transaction(
        [Input("a", "k0"), Input("b", ("c", "k1"))],
        [Output("d", 1, KeyEquals("k0"))],
    )
    return [(tx, i) for i in tx.inputs]


@pytest.mark.parametrize("tx, point", _contexts())
def test_trusted_context_is_the_checked_one(tx, point):
    trusted, checked = PointedTransaction._trusted(tx, point), PointedTransaction(tx, point)
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert type(trusted) is PointedTransaction
    assert (trusted.transaction, trusted.point) == (tx, point)
    assert pos(trusted) == pos(checked)
    perm = swap("a", "c")
    assert trusted.rename(perm) == checked.rename(perm)
    assert pickle.loads(pickle.dumps(trusted)) == checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        trusted.point = Input("z", "k0")


def test_checking_constructor_still_refuses_a_foreign_point():
    tx, _ = _contexts()[0]
    with pytest.raises(ValueError):
        PointedTransaction(tx, Input("a", "k1"))
    with pytest.raises(ValueError):
        PointedTransaction(tx, Input("z", "k0"))


def test_input_fills_its_fields_like_the_dataclass():
    """``Input`` fills its fields directly; it is still the frozen value the
    dataclass describes: equal and hashed by its fields, immutable,
    copyable, picklable and replaceable."""
    i = Input("a", ("b", "k"))
    assert (i.position, i.key) == ("a", ("b", "k"))
    assert i == Input(position="a", key=("b", "k")) and hash(i) == hash(("a", ("b", "k")))
    assert i != Input("a", "k") and i != Input("b", ("b", "k"))
    assert repr(i) == "Input(position='a', key=('b', 'k'))"
    assert [f.name for f in dataclasses.fields(Input)] == ["position", "key"]
    for same in (copy.copy(i), copy.deepcopy(i), pickle.loads(pickle.dumps(i))):
        assert same == i and hash(same) == hash(i)
    assert dataclasses.replace(i, key="k") == Input("a", "k")
    with pytest.raises(dataclasses.FrozenInstanceError):
        i.key = "k"


@pytest.fixture
def counted_checks(monkeypatch):
    """The number of contexts built through the checking constructor."""
    calls = []
    check = PointedTransaction.__post_init__

    def counting(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(PointedTransaction, "__post_init__", counting)
    return calls


def test_hot_paths_never_call_the_checking_constructor(counted_checks):
    """Scanning, composing and probing a fixture chunk build every validator
    context on the trusted path; the counter itself does see a checked one."""
    model, _ = load_model(fixture_path("backbone_model.json"))
    txs, _ = load_txlist(fixture_path("backbone_full.json"))
    chunk = Chunk(txs)
    assert check_chunk(txs).ok
    head, tail = Chunk(txs[:2]), Chunk(txs[2:])
    assert compose(head, tail) == chunk
    assert compose(EMPTY_CHUNK, chunk) == chunk
    for part in (head, tail, chunk):
        blocked_utxi(part, model)
        blocked_utxo(part, model)
    assert counted_checks == []
    PointedTransaction(txs[1], txs[1].inputs[0])
    assert len(counted_checks) == 1
