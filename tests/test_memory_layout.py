"""Memory layout of the values a chunk pool holds most of.

Inputs, outputs and every script node are slotted frozen dataclasses: an
instance keeps its fields in slots and carries no ``__dict__``, so it keeps
no label or hash.  The nodes checked are read off the ``Script`` union, so
a node kind added there without an example here fails at import.  The
field-free nodes ``AcceptAll`` and ``RejectAll`` are interned, one object
per class, through every copy, pickle and renaming.  Slotting must leave
each value as the frozen dataclass describes it, refusing every attribute
set and delete with ``FrozenInstanceError``.
"""

import copy
import dataclasses
import pickle
import typing

import pytest

from chunkalg.atoms import swap
from chunkalg.ieutxo import Input, Output, Transaction
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
    Script,
    SpendsAtMostNInputs,
)

EXAMPLES = {
    AcceptAll: AcceptAll(),
    RejectAll: RejectAll(),
    KeyEquals: KeyEquals(("a", "k")),
    DatumEquals: DatumEquals(3),
    InputPositionIn: InputPositionIn(frozenset({"a", "b"})),
    SpendsAtMostNInputs: SpendsAtMostNInputs(2),
    Not: Not(KeyEquals("k")),
    And: And(AcceptAll(), DatumEquals("d")),
    Or: Or(RejectAll(), KeyEquals("k")),
    AcsCompose: AcsCompose(("a",), None),
}
# One example of every node kind the union names.
NODES = [EXAMPLES[cls] for cls in typing.get_args(Script)]
SLOTTED = [Input("a", "k"), Output("a", 1, AcceptAll()), *NODES]


@pytest.mark.parametrize("value", SLOTTED, ids=lambda v: type(v).__name__)
def test_slotted_values_keep_no_dict(value):
    assert not hasattr(value, "__dict__")
    assert dataclasses.is_dataclass(value)
    assert type(value).__dataclass_params__.frozen
    assert {f.name for f in dataclasses.fields(value)} <= set(type(value).__slots__)


def _copies(value):
    perm = swap("a", "b")
    yield copy.copy(value)
    yield copy.deepcopy(value)
    yield value.rename(perm)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("cls", [AcceptAll, RejectAll])
def test_field_free_nodes_are_interned(cls):
    node = cls()
    assert cls() is node
    for same in _copies(node):
        assert same is node
    # Inside a copied or pickled value too.
    out = Output("a", 0, And(node, Not(node)))
    for moved in (copy.deepcopy(out), pickle.loads(pickle.dumps(out))):
        assert moved.validator.left is node and moved.validator.right.body is node
    assert AcceptAll() != RejectAll() and hash(AcceptAll()) == hash(AcceptAll())


@pytest.mark.parametrize(
    "value", [v for v in NODES if dataclasses.fields(v)], ids=lambda v: type(v).__name__
)
def test_nodes_with_fields_copy_as_values(value):
    for same in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and hash(same) == hash(value)
    assert value.rename(swap("x", "y")) == value


def test_output_is_the_frozen_dataclass_value():
    """``Output`` fills its slots directly; it is still the frozen value the
    dataclass describes: equal and hashed by its fields, immutable,
    copyable, picklable and replaceable."""
    v = KeyEquals("k")
    o = Output("a", ("b", 1), v)
    assert (o.position, o.datum, o.validator) == ("a", ("b", 1), v)
    assert [f.name for f in dataclasses.fields(Output)] == ["position", "datum", "validator"]
    assert o == Output(position="a", datum=("b", 1), validator=v)
    assert hash(o) == hash(("a", ("b", 1), v))
    assert o != Output("b", ("b", 1), v) and o != Output("a", 1, v) and o != Output("a", ("b", 1), AcceptAll())
    assert repr(o) == "Output(position='a', datum=('b', 1), validator=KeyEquals(key='k'))"
    for same in (copy.copy(o), copy.deepcopy(o), pickle.loads(pickle.dumps(o))):
        assert same == o and hash(same) == hash(o)
    assert dataclasses.replace(o, datum=2) == Output("a", 2, v)
    assert o.rename(swap("a", "b")) == Output("b", ("a", 1), v)
    for name in ("position", "datum", "validator"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(o, name, None)
    # A name that is no field is refused the same way.
    with pytest.raises(dataclasses.FrozenInstanceError):
        o.extra = 1
    assert not hasattr(o, "extra")


@pytest.mark.parametrize("value", SLOTTED, ids=lambda v: type(v).__name__)
def test_slotted_values_refuse_every_set_and_delete(value):
    """Every name is refused with ``FrozenInstanceError``, on set and on
    delete, whether it is a field or not."""
    fields = [f.name for f in dataclasses.fields(value)]
    for attr in fields + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, attr, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, attr)
    assert [getattr(value, f) for f in fields] == [getattr(copy.copy(value), f) for f in fields]


def test_transactions_of_slotted_values_round_trip():
    tx = Transaction([Input("a", "k")], [Output("b", 1, And(AcceptAll(), KeyEquals(("a",))))])
    for same in (copy.deepcopy(tx), pickle.loads(pickle.dumps(tx))):
        assert same == tx and hash(same) == hash(tx) and same.label() == tx.label()
