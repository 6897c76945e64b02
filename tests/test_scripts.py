import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chunkalg
from chunkalg.acs import ChunkAcs, FiniteSetsAcs, Fn, Subst, SubstAcs
from chunkalg.atoms import swap
from chunkalg.ieutxo import EMPTY_CHUNK, Chunk, Input, Output, PointedTransaction, Transaction
from chunkalg.scripts import (
    AcceptAll,
    And,
    AcsCompose,
    DatumEquals,
    InputPositionIn,
    KeyEquals,
    Not,
    Or,
    RejectAll,
    SpendsAtMostNInputs,
    script_is_pure,
    script_label,
    script_to_obj,
)


def ptx(*inputs, point=0):
    tx = Transaction([Input(p, k) for p, k in inputs], ())
    return PointedTransaction(tx, tx.inputs[point])


def test_constant_nodes():
    p = ptx(("a", "k1"))
    assert AcceptAll().evaluate(0, p)
    assert not RejectAll().evaluate(0, p)


def test_key_equals_inspects_the_point():
    p = ptx(("a", "k1"), ("b", "k2"), point=0)
    assert KeyEquals("k1").evaluate(0, p)
    assert not KeyEquals("k2").evaluate(0, p)


def test_datum_equals_inspects_local_state():
    p = ptx(("a", "k1"))
    assert DatumEquals(5).evaluate(5, p)
    assert not DatumEquals(5).evaluate(6, p)


def test_input_position():
    p = ptx(("a", "k1"))
    assert InputPositionIn(frozenset({"a", "z"})).evaluate(0, p)
    assert not InputPositionIn(frozenset({"z"})).evaluate(0, p)


def test_spend_limit_sees_whole_transaction():
    p = ptx(("a", "k1"), ("b", "k2"))
    assert SpendsAtMostNInputs(2).evaluate(0, p)
    assert not SpendsAtMostNInputs(1).evaluate(0, p)


def test_combinators():
    p = ptx(("a", "k1"))
    assert Not(RejectAll()).evaluate(0, p)
    assert And(AcceptAll(), Not(RejectAll())).evaluate(0, p)
    assert Or(RejectAll(), AcceptAll()).evaluate(0, p)
    assert not And(AcceptAll(), RejectAll()).evaluate(0, p)


def test_purity():
    pure = And(KeyEquals("k"), Or(DatumEquals(1), InputPositionIn(frozenset({"a"}))))
    assert script_is_pure(pure)
    assert not script_is_pure(SpendsAtMostNInputs(3))
    assert not script_is_pure(Not(SpendsAtMostNInputs(3)))
    assert not script_is_pure(And(AcceptAll(), SpendsAtMostNInputs(3)))


# Point-local, though the label of its element names a non-local node.
_ELEMENT_WITH_IMPURE_OUTPUT = Chunk((Transaction((), [Output("b", 0, SpendsAtMostNInputs(1))]),))
_leaf_scripts = st.one_of(
    st.just(AcceptAll()),
    st.just(RejectAll()),
    st.integers(0, 2).map(KeyEquals),
    st.integers(0, 2).map(DatumEquals),
    st.frozensets(st.sampled_from("ab"), max_size=2).map(InputPositionIn),
    st.integers(0, 3).map(SpendsAtMostNInputs),
    st.just(AcsCompose(_ELEMENT_WITH_IMPURE_OUTPUT, None)),
)
_scripts = st.recursive(
    _leaf_scripts,
    lambda s: st.one_of(st.builds(Not, s), st.builds(And, s, s), st.builds(Or, s, s)),
    max_leaves=6,
)


def _node_kinds(obj):
    if isinstance(obj, dict):
        yield obj.get("node")
        for v in obj.values():
            yield from _node_kinds(v)


@settings(max_examples=300, deadline=None)
@given(_scripts)
def test_purity_is_the_absence_of_a_spends_at_most_node(script):
    kinds = set(_node_kinds(json.loads(script_label(script))))
    assert script_is_pure(script) == ("spends_at_most_n_inputs" not in kinds)


def test_rename_touches_position_literals_not_keys():
    s = And(KeyEquals("a"), InputPositionIn(frozenset({"a", "b"})))
    r = s.rename(swap("a", "z"))
    assert r == And(KeyEquals("a"), InputPositionIn(frozenset({"z", "b"})))


def test_script_label_deterministic():
    s = InputPositionIn(frozenset({"b", "a"}))
    assert script_label(s) == script_label(InputPositionIn(frozenset({"a", "b"})))
    obj = script_to_obj(s)
    assert obj["positions"] == ["a", "b"]


class _ToyInstance:
    top = "TOP"

    def mcompose(self, x, y):
        return "TOP" if x == y else (x, y)


def test_acs_compose_consults_the_instance():
    inst = _ToyInstance()
    node = AcsCompose("e1", inst)
    good = ptx(("a", "e2"))
    bad = ptx(("a", "e1"))
    assert node.evaluate("e1", good)
    assert not node.evaluate("e1", bad)
    assert script_is_pure(node)


def test_acs_compose_total_on_junk_keys():
    class Exploding:
        top = "TOP"

        def mcompose(self, x, y):
            raise TypeError("no such composition")

    node = AcsCompose("e1", Exploding())
    assert not node.evaluate("e1", ptx(("a", "junk")))


def test_acs_compose_refuses_keys_from_another_carrier(backbone_model):
    elements = {
        FiniteSetsAcs(("a", "b")): frozenset({"a"}),
        SubstAcs(("a", "b")): Subst([("a", Fn("c"))]),
        ChunkAcs(backbone_model): EMPTY_CHUNK,
    }
    for inst, element in elements.items():
        node = AcsCompose(element, inst)
        for other, junk in elements.items():
            if other is not inst:
                assert not node.evaluate(0, ptx(("a", junk)))
        assert not node.evaluate(0, ptx(("a", "junk")))


def test_acs_compose_propagates_instance_faults():
    class Faulty:
        top = "TOP"

        def mcompose(self, x, y):
            raise RuntimeError("bug in the instance")

    node = AcsCompose("e1", Faulty())
    with pytest.raises(RuntimeError, match="bug in the instance"):
        node.evaluate("e1", ptx(("a", "e2")))


_PICKLE_NODE = """
import pickle, sys
from chunkalg.ieutxo import Chunk, Input, Output, Transaction
from chunkalg.scripts import AcceptAll, AcsCompose

tx = Transaction([Input("a", "k")], [Output("b", 1, AcceptAll())])
chunk = Chunk((tx,))
fresh = (tx, chunk, AcsCompose(chunk, None))
if sys.argv[1] == "dump":
    for value in fresh:
        hash(value)
    sys.stdout.buffer.write(pickle.dumps(fresh))
else:
    for got, want in zip(pickle.loads(sys.stdin.buffer.read()), fresh):
        print(got == want, hash(got) == hash(want), got in {want})
"""


def test_kept_hashes_are_not_pickled():
    """A transaction, a chunk and an ``AcsCompose`` node hashed and pickled
    in one process hash as fresh values in another, whose ``str`` hashes
    differ."""
    src = os.path.dirname(os.path.dirname(chunkalg.__file__))

    def run(seed, mode, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        cmd = [sys.executable, "-c", _PICKLE_NODE, mode]
        return subprocess.run(cmd, input=data, env=env, capture_output=True, check=True).stdout

    assert run("2", "load", run("1", "dump")).split() == [b"True"] * 9
