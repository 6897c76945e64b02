"""Nominal support, read off renaming, against renaming.

``support`` records the atoms a value's renaming asks about.  That set
must be exactly the atoms renaming can move: a permutation that fixes it
pointwise leaves the value equal to itself, and swapping any of its atoms
with a fresh atom changes it.  The values cover every kind that renames:
every script node, inputs, outputs, transactions, pointed transactions,
chunks, terms, substitutions, tops, and bare atoms, atom tuples and atom
sets, with keys and datums that are opaque strings, numbers, or tuples and
sets whose strings are atoms, and ``acs_compose`` nodes whose element is a
chunk, a finite set or a substitution.

The model constructor reads each transaction's support-free flag and its
singleton validity from one call of ``_probe_facts``; both are pinned
against ``check_chunk`` here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg.acs import Fn, Subst, TopElement, Var
from chunkalg.atoms import Permutation, act, support, support_opaque, swap
from chunkalg.functors import eta
from chunkalg.generators import GenConfig, gen_transaction
from chunkalg.ieutxo import (
    EMPTY_CHUNK,
    EMPTY_TRANSACTION,
    FAIL,
    Chunk,
    IeutxoModel,
    Input,
    ModelError,
    Output,
    PointedTransaction,
    Transaction,
    _probe_facts,
    check_chunk,
    compose,
)
from chunkalg.scripts import (
    AcceptAll,
    AcsCompose,
    And,
    DatumEquals,
    InputPositionIn,
    KeyEquals,
    Not,
    Or,
    RejectAll,
    SpendsAtMostNInputs,
)

POOL = ("a", "b", "c", "d")
# Atoms no drawn value mentions.
FRESH = ("w1", "w2")

_atoms = st.sampled_from(POOL)
_payloads = st.one_of(
    st.sampled_from(POOL + ("k",)),  # opaque in a key or datum slot
    st.integers(0, 2),
    st.none(),
    st.lists(st.one_of(_atoms, st.integers(0, 1)), min_size=1, max_size=2).map(tuple),
    st.frozensets(_atoms, min_size=1, max_size=2),
)


@st.composite
def _transactions(draw, scripts):
    ps = draw(st.lists(_atoms, min_size=1, max_size=3, unique=True))
    is_out = draw(st.lists(st.booleans(), min_size=len(ps), max_size=len(ps)))
    return Transaction(
        [Input(p, draw(_payloads)) for p, o in zip(ps, is_out) if not o],
        [Output(p, draw(_payloads), draw(scripts)) for p, o in zip(ps, is_out) if o],
    )


@st.composite
def _chunks(draw, scripts):
    ch = EMPTY_CHUNK
    for tx in draw(st.lists(_transactions(scripts), max_size=3)):
        grown = compose(ch, Chunk((tx,)))
        ch = ch if grown is FAIL else grown
    return Chunk(ch.txs)


_plain_leaves = st.one_of(
    st.just(AcceptAll()),
    st.just(RejectAll()),
    st.builds(KeyEquals, _payloads),
    st.builds(DatumEquals, _payloads),
    st.builds(InputPositionIn, st.frozensets(_atoms, max_size=2)),
    st.builds(SpendsAtMostNInputs, st.integers(0, 2)),
)
_plain_scripts = st.recursive(
    _plain_leaves,
    lambda s: st.one_of(st.builds(Not, s), st.builds(And, s, s), st.builds(Or, s, s)),
    max_leaves=3,
)
_terms = st.one_of(st.builds(Var, _atoms), st.just(Fn("c")), st.builds(lambda a: Fn("f", (Var(a),)), _atoms))
_elements = st.one_of(
    _chunks(_plain_scripts),
    st.frozensets(_atoms, max_size=2),
    st.lists(st.tuples(_atoms, _terms), max_size=2).map(Subst),
    st.just(TopElement("t")),
)
_scripts = st.recursive(
    st.one_of(_plain_leaves, st.builds(AcsCompose, _elements, st.none())),
    lambda s: st.one_of(st.builds(Not, s), st.builds(And, s, s), st.builds(Or, s, s)),
    max_leaves=3,
)


@st.composite
def _pointed(draw, scripts):
    tx = draw(_transactions(scripts).filter(lambda t: t.inputs))
    return PointedTransaction(tx, draw(st.sampled_from(tx.inputs)))


values = st.one_of(
    _scripts,
    st.builds(Input, _atoms, _payloads),
    st.builds(Output, _atoms, _payloads, _scripts),
    _transactions(_scripts),
    _pointed(_scripts),
    _chunks(_scripts),
    _terms,
    st.lists(st.tuples(_atoms, _terms), max_size=2).map(Subst),
    st.just(TopElement("t")),
    _atoms,
    st.lists(_atoms, max_size=3).map(tuple),
    st.frozensets(_atoms, max_size=3),
)


@given(values, st.permutations(FRESH + POOL))
@settings(max_examples=400, deadline=None)
def test_support_mirrors_rename(value, shuffled):
    supp = support(value)
    assert isinstance(supp, frozenset)
    assert supp <= set(POOL)
    # A permutation fixing the support pointwise: the other atoms are
    # shuffled among themselves and the fresh ones.
    outside = [x for x in FRESH + POOL if x not in supp]
    moved = [x for x in shuffled if x not in supp]
    assert act(Permutation(zip(outside, moved)), value) == value
    for x in outside:
        assert act(swap(x, FRESH[0]), value) == value
    # Moving a support atom to an atom outside the support changes the value.
    for x in supp:
        assert act(swap(x, FRESH[0]), value) != value


def test_support_of_each_kind():
    chunk = Chunk((Transaction([Input("a", ("b", "k"))], [Output("c", "d", InputPositionIn(frozenset("e")))]),))
    cases = [
        (KeyEquals("a"), set()),
        (KeyEquals(("a", 1)), {"a"}),
        (DatumEquals(frozenset({"a", "b"})), {"a", "b"}),
        (InputPositionIn(frozenset({"a"})), {"a"}),
        (Not(And(InputPositionIn(frozenset({"a"})), Or(AcceptAll(), KeyEquals(("b",))))), {"a", "b"}),
        (AcsCompose(chunk, None), {"a", "b", "k", "c", "e"}),
        (AcsCompose(Subst([("a", Fn("f", (Var("b"),)))]), None), {"a", "b"}),
        (Input("a", "b"), {"a"}),
        (Output("a", ("b",), AcsCompose(frozenset({"c"}), None)), {"a", "b", "c"}),
        (chunk, {"a", "b", "k", "c", "e"}),
        (PointedTransaction(chunk.txs[0], Input("a", ("b", "k"))), {"a", "b", "k", "c", "e"}),
        (FAIL, set()),
        (TopElement("t"), set()),
        (Subst([("a", Fn("f", (Var("b"),))), ("c", Fn("c"))]), {"a", "b", "c"}),
        ("a", {"a"}),
        (("a", ("b", 1), frozenset({"c"})), {"a", "b", "c"}),
        (None, set()),
        (2.5, set()),
    ]
    for value, expected in cases:
        assert support(value) == expected, value
    for scalar in ("a", 3, 2.5, True, None):
        assert support_opaque(scalar) == set()
    assert support_opaque(("a",)) == {"a"}
    assert support_opaque(chunk) == {"a", "b", "k", "c", "e"}
    with pytest.raises(TypeError):
        support(object())


_EMPTY_MESSAGE = "models may not enumerate the empty transaction"
_NOT_A_CHUNK_MESSAGE = (
    "enumerated transactions must be chunks on their own "
    "(disjoint input/output channels, distinct positions)"
)


@given(
    st.one_of(
        st.just(Transaction((), ())),
        st.builds(
            lambda seed, atoms: gen_transaction(GenConfig(seed=seed, max_atoms=atoms)),
            st.integers(0, 2**20),
            st.integers(1, 6),
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_probe_facts_decide_singleton_validity(tx):
    """A transaction has no probe facts exactly when it is not a chunk on
    its own, and a model enumerating it is refused exactly then, with the
    empty-transaction message exactly for an empty transaction."""
    report = check_chunk((tx,))
    assert (_probe_facts(tx) is None) == (not report.ok)
    if report.ok:
        assert IeutxoModel("m", (tx,))._probes == (_probe_facts(tx),)
        return
    with pytest.raises(ModelError) as refused:
        IeutxoModel("m", (tx,))
    empty = report.violation.kind == EMPTY_TRANSACTION
    assert str(refused.value) == (_EMPTY_MESSAGE if empty else _NOT_A_CHUNK_MESSAGE)


def _support_free(tx):
    (facts,) = IeutxoModel("m", (tx,))._probes
    return facts[2]


def test_support_free_flags(backbone_model):
    """A candidate is support-free when no key, datum or validator mentions
    an atom, even one of its own positions."""
    assert not _support_free(Transaction([Input("a", ("a",))], []))
    assert _support_free(Transaction([Input("b", "b")], [Output("a", "a", KeyEquals("a"))]))
    assert not _support_free(Transaction([], [Output("a", 0, InputPositionIn(frozenset("a")))]))
    assert all(facts[2] for facts in backbone_model._probes)
    represented = eta(backbone_model).model
    assert represented._probes
    assert not any(facts[2] for facts in represented._probes)
