"""Nominal support against renaming.

``support()`` must name exactly the atoms ``rename`` can move: a
permutation that fixes the support pointwise leaves the value equal to
itself, and swapping any support atom with a fresh atom changes it.  The
values cover every script node, inputs, outputs, transactions and chunks,
with keys and datums that are opaque strings, numbers, or tuples and sets
whose strings are atoms, and ``acs_compose`` nodes whose element is a
chunk, a finite set or a substitution.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg.acs import Fn, Subst, TopElement, Var
from chunkalg.atoms import Permutation, support, swap
from chunkalg.ieutxo import EMPTY_CHUNK, FAIL, Chunk, Input, Output, Transaction, compose
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
values = st.one_of(
    _scripts,
    st.builds(Input, _atoms, _payloads),
    st.builds(Output, _atoms, _payloads, _scripts),
    _transactions(_scripts),
    _chunks(_scripts),
)


@given(values, st.permutations(FRESH + POOL))
@settings(max_examples=400, deadline=None)
def test_support_mirrors_rename(value, shuffled):
    supp = value.support()
    assert supp == support(value)
    assert supp <= set(POOL)
    # A permutation fixing the support pointwise: the other atoms are
    # shuffled among themselves and the fresh ones.
    outside = [x for x in FRESH + POOL if x not in supp]
    moved = [x for x in shuffled if x not in supp]
    assert value.rename(Permutation(zip(outside, moved))) == value
    for x in outside:
        assert value.rename(swap(x, FRESH[0])) == value
    # Moving a support atom to an atom outside the support changes the value.
    for x in supp:
        assert value.rename(swap(x, FRESH[0])) != value


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
        (FAIL, set()),
    ]
    for value, expected in cases:
        assert value.support() == expected, value
