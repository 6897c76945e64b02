"""Transaction slot order against the reference ``sorted(set(slots), key=sort_key)``.

A transaction sorts its slots by position and reads the rest of the sort
key (the labels of keys, datums and validators) only to order slots that
share a position.  The strategies draw positions from a pool of three, so
ties are common, and validators nest ``And``/``Or``/``Not``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkalg import atoms, ieutxo, scripts
from chunkalg.generators import GenConfig, gen_valid_chunk, stream
from chunkalg.ieutxo import EMPTY_CHUNK, Input, Output, Transaction
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

positions = st.sampled_from("abc")
values = st.one_of(
    st.integers(0, 3),
    st.text(max_size=2),
    st.none(),
    st.tuples(st.integers(0, 2), st.sampled_from("ab")),
    st.frozensets(st.sampled_from("ab")),
)
leaf_scripts = st.one_of(
    st.just(AcceptAll()),
    st.just(RejectAll()),
    values.map(KeyEquals),
    values.map(DatumEquals),
    st.frozensets(positions).map(InputPositionIn),
    st.integers(0, 3).map(SpendsAtMostNInputs),
)
validators = st.recursive(
    leaf_scripts,
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda lr: And(*lr)),
        st.tuples(inner, inner).map(lambda lr: Or(*lr)),
    ),
    max_leaves=4,
)
inputs = st.builds(Input, positions, values)
outputs = st.builds(Output, positions, values, validators)

_TIED_OUTPUTS = [
    Output("a", 1, And(KeyEquals("k"), AcceptAll())),
    Output("a", 1, Or(KeyEquals("k"), AcceptAll())),
    Output("a", 1, Not(KeyEquals("k"))),
    Output("a", 0, Not(Not(KeyEquals("k")))),
    Output("b", 2, AcceptAll()),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(inputs, max_size=6), st.lists(outputs, max_size=6))
@example([Input("a", "k2"), Input("a", 1), Input("b", ("x", 1))], _TIED_OUTPUTS)
def test_slots_sort_by_the_full_key(ins, outs):
    tx = Transaction(ins, outs)
    assert tx.inputs == tuple(sorted(set(ins), key=Input.sort_key))
    assert tx.outputs == tuple(sorted(set(outs), key=Output.sort_key))


@pytest.fixture
def label_calls(monkeypatch):
    """Names of the label functions called, wherever they are bound."""
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        return wrapper

    for mod in (atoms, scripts, ieutxo):
        for name in ("value_label", "script_label"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return calls


def test_distinct_positions_label_nothing(label_calls):
    cfg = GenConfig(seed=3)
    rng = stream(cfg)
    chunks = [gen_valid_chunk(cfg, rng) for _ in range(20)]
    validator = Or(And(KeyEquals(frozenset("k")), Not(DatumEquals(("x", 1)))), RejectAll())
    tx = Transaction(
        [Input("c", frozenset({"k"})), Input("a", ("k", 1))],
        [Output("d", ("d", 2), validator), Output("b", None, InputPositionIn(frozenset("ab")))],
    )
    tx.rename(atoms.swap("a", "z"))
    for ch in chunks:
        ch.rename(atoms.swap("a", "b"))
    assert label_calls == []
    # Slots at distinct positions are distinct, so the sort does not even
    # hash them; an acs_compose node hashes by its element's hash, so
    # hashing it labels nothing either.
    node = AcsCompose(chunks[0], None)
    Transaction([Input("a", EMPTY_CHUNK)], [Output("b", 0, Not(node)), Output("c", 0, node)])
    Transaction([Input("a", EMPTY_CHUNK)], [Output("b", 0, node)])
    hash(node)
    assert label_calls == []
    # A tie does label, so the counters see the sort.
    Transaction((), _TIED_OUTPUTS)
    assert "script_label" in label_calls and label_calls.count("value_label") > 1
