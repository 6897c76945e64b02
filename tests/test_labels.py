"""Labels and hashes computed once, against from-scratch references.

``script_label`` must equal the JSON wire form ``json.dumps(script_to_obj(s),
sort_keys=True, separators=(",", ":"))`` and the same form built from an
independent walk that reads no kept label.
Transactions keep their label and hash after first use, and chunks their
hash; a chunk's label is joined afresh on each call, and an ``AcsCompose``
node hashes by its element's hash and keeps nothing.  Each is compared
with an independent recomputation, also after renaming.  ``is_top`` tests
interned tops, ``FAIL`` among them, by identity, which must not change what
counts as top.
"""

import copy
import json
import pickle
from functools import lru_cache
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg.acs import ChunkAcs, FiniteSetsAcs, Fn, Subst, SubstAcs, TopElement, Var
from chunkalg.atoms import Permutation, act, value_label
from chunkalg.functors import g_object
from chunkalg.generators import GenConfig, gen_model, stream
from chunkalg.ieutxo import (
    EMPTY_CHUNK,
    FAIL,
    Chunk,
    Input,
    Output,
    Transaction,
    compose,
    enumerate_chunks,
    pos,
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
    script_label,
    script_to_obj,
)

from test_axiom_checkers import _UnionNoDisjointness


def _json_label(script):
    return json.dumps(script_to_obj(script), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Independent recomputation: no kept label or hash is read.


def _ref_label(value):
    if isinstance(value, Chunk):
        return "ch[" + ";".join(_ref_label(tx) for tx in value.txs) + "]"
    if isinstance(value, Transaction):
        ins = ",".join(f"({i.position},{_ref_label(i.key)})" for i in value.inputs)
        outs = ",".join(
            f"({o.position},{_ref_label(o.datum)},{_ref_script_label(o.validator)})"
            for o in value.outputs
        )
        return f"tx[{ins}|{outs}]"
    return value_label(value)


def _ref_hash_key(value):
    """A plain tuple that hashes like ``value``: a tuple's hash reads only
    its items' hashes, and a dataclass hashes the tuple of its fields."""
    if isinstance(value, Chunk):
        return (tuple(_ref_hash_key(tx) for tx in value.txs),)
    if isinstance(value, Transaction):
        return (tuple(map(_ref_hash_key, value.inputs)), tuple(map(_ref_hash_key, value.outputs)))
    if isinstance(value, Input):
        return (value.position, _ref_hash_key(value.key))
    if isinstance(value, Output):
        return (value.position, _ref_hash_key(value.datum), _ref_hash_key(value.validator))
    if isinstance(value, AcsCompose):
        return (_ref_hash_key(value.element),)
    if isinstance(value, Not):
        return (_ref_hash_key(value.body),)
    if isinstance(value, (And, Or)):
        return (_ref_hash_key(value.left), _ref_hash_key(value.right))
    return value


def _ref_script_obj(script):
    if isinstance(script, AcsCompose):
        return {"node": "acs_compose", "element": _ref_label(script.element)}
    if isinstance(script, Not):
        return {"node": "not", "body": _ref_script_obj(script.body)}
    if isinstance(script, (And, Or)):
        return {
            "node": "and" if isinstance(script, And) else "or",
            "left": _ref_script_obj(script.left),
            "right": _ref_script_obj(script.right),
        }
    return script_to_obj(script)


def _ref_script_label(script):
    return json.dumps(_ref_script_obj(script), sort_keys=True, separators=(",", ":"))


@lru_cache(maxsize=None)
def _models():
    """Two generated models, each with its represented model and that
    one's, whose transactions carry ``AcsCompose`` validators over chunks,
    two levels deep."""
    cfg = GenConfig(seed=71, max_atoms=6)
    rng = stream(cfg)
    out = []
    for i in range(2):
        model = gen_model(cfg, rng, name=f"labels-{i}", n_txs=3)
        gm = g_object(ChunkAcs(model))
        out.append((model, gm.model, g_object(ChunkAcs(gm.model)).model))
    return tuple(out)


@lru_cache(maxsize=None)
def _represented():
    """The chunks of each plain model, and those of at most two
    transactions of each represented one."""
    out = []
    for plain, *represented in _models():
        out += enumerate_chunks(plain)
        for model in represented:
            out += [c for c in enumerate_chunks(model) if len(c) <= 2]
    return tuple(out)


def _fresh_copy(value):
    """An equal value rebuilt from its parts, keeping no label or hash."""
    if isinstance(value, Chunk):
        return Chunk(tuple(_fresh_copy(tx) for tx in value.txs))
    if isinstance(value, Transaction):
        return Transaction(
            [Input(i.position, _fresh_copy(i.key)) for i in value.inputs],
            [Output(o.position, _fresh_copy(o.datum), _fresh_copy(o.validator)) for o in value.outputs],
        )
    if isinstance(value, AcsCompose):
        return AcsCompose(_fresh_copy(value.element), value.inst)
    if isinstance(value, Not):
        return Not(_fresh_copy(value.body))
    if isinstance(value, (And, Or)):
        return type(value)(_fresh_copy(value.left), _fresh_copy(value.right))
    return value


# ---------------------------------------------------------------------------
# Strategies

atoms = st.text(min_size=1, max_size=4)
scalars = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", '"\\"', "é", "ü\"x", "☃", "\U0001f600", "\x00\n\t"]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)
non_scalars = st.one_of(
    st.frozensets(st.one_of(st.text(max_size=3), st.integers()), max_size=3),
    st.tuples(st.integers(), st.text(max_size=3)),
    st.lists(st.booleans(), max_size=2).map(tuple),
)
slot_values = st.one_of(scalars, non_scalars)


@st.composite
def acs_compose_nodes(draw):
    element = draw(st.sampled_from(_represented()))
    return AcsCompose(element, None)


leaf_scripts = st.one_of(
    st.just(AcceptAll()),
    st.just(RejectAll()),
    slot_values.map(KeyEquals),
    slot_values.map(DatumEquals),
    st.frozensets(atoms, max_size=4).map(InputPositionIn),
    st.integers(0, 2**40).map(SpendsAtMostNInputs),
    acs_compose_nodes(),
)
scripts = st.recursive(
    leaf_scripts,
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda lr: And(*lr)),
        st.tuples(inner, inner).map(lambda lr: Or(*lr)),
    ),
    max_leaves=8,
)


# ---------------------------------------------------------------------------
# script_label


@settings(max_examples=400, deadline=None)
@given(scripts)
def test_script_label_is_the_json_wire_form(script):
    assert script_label(script) == _json_label(script)
    assert script_label(script) == _ref_script_label(script)


def test_script_label_every_node_kind():
    element = _represented()[-1]
    nodes = [
        AcceptAll(),
        RejectAll(),
        KeyEquals('q"uo\\te é'),
        KeyEquals(frozenset({"a", "b"})),
        DatumEquals(2.5),
        DatumEquals(float("nan")),
        DatumEquals(float("-inf")),
        DatumEquals(True),
        DatumEquals(None),
        DatumEquals(10**30),
        DatumEquals(("x", 1)),
        InputPositionIn(frozenset()),
        InputPositionIn(frozenset({"b", "a", "ä"})),
        SpendsAtMostNInputs(3),
        Not(Not(KeyEquals("k"))),
        And(Or(AcceptAll(), RejectAll()), Not(DatumEquals(0))),
        AcsCompose(element, None),
        Or(AcsCompose(element, None), Not(AcsCompose(EMPTY_CHUNK, None))),
    ]
    for node in nodes:
        assert script_label(node) == _json_label(node)


# ---------------------------------------------------------------------------
# Kept labels and hashes


def _renamings(value):
    atoms_ = sorted(pos(value))
    perms = [Permutation.swap(atoms_[0], "fresh0")] if atoms_ else []
    if len(atoms_) >= 2:
        perms.append(Permutation.swap(atoms_[0], atoms_[-1]))
    return perms


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_represented()))
def test_kept_chunk_and_transaction_labels(chunk):
    for value in (chunk, _fresh_copy(chunk)):
        first = value.label()
        assert first == _ref_label(value)
        assert value.label() == first
        for tx in value.txs:
            assert tx.label() == _ref_label(tx)
        for perm in _renamings(value):
            renamed = value.rename(perm)
            assert renamed.label() == _ref_label(renamed)
            assert value.label() == first
            for tx in value.txs:
                renamed_tx = tx.rename(perm)
                assert renamed_tx.label() == _ref_label(renamed_tx)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_represented()))
def test_acs_compose_hashes_by_its_element(chunk):
    """The node's hash is the dataclass's, ``hash((element,))``, and equal
    nodes hash equal however they were built: copied, pickled, rebuilt
    from their parts, or renamed and rebuilt from the renamed element."""
    node = AcsCompose(chunk, None)
    want = hash(_ref_hash_key(node))
    assert hash(node) == want == hash((chunk,)) and hash(node) == want
    for same in (
        _fresh_copy(node),
        copy.copy(node),
        copy.deepcopy(node),
        *(pickle.loads(pickle.dumps(node, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ):
        assert same == node and hash(same) == want
    for perm in _renamings(chunk):
        renamed = node.rename(perm)
        rebuilt = AcsCompose(_fresh_copy(chunk.rename(perm)), None)
        assert renamed == rebuilt and hash(renamed) == hash(rebuilt) == hash(_ref_hash_key(rebuilt))
        assert hash(node) == want


def test_hashing_acs_compose_labels_nothing(monkeypatch):
    """Hashing a node, and the represented transactions and chunks that
    carry it, reads hashes only: no value, transaction or chunk is labelled."""

    def refuse(*args):
        raise AssertionError("labelled while hashing")

    fresh = [_fresh_copy(chunk) for chunk in _represented()]
    for mod in ("atoms", "scripts", "ieutxo", "acs"):
        monkeypatch.setattr(f"chunkalg.{mod}.value_label", refuse)
    monkeypatch.setattr(Transaction, "label", refuse)
    monkeypatch.setattr(Chunk, "label", refuse)
    for chunk in fresh:
        hash(AcsCompose(chunk, None))
        hash(chunk)


def test_carrier_chunks_keep_no_label():
    """Sorting a carrier by label and labelling its chunks again keeps no
    label on any chunk; their transactions keep theirs."""
    for model in chain.from_iterable(_models()):
        carrier = ChunkAcs(model).enumerate_carrier()[:-1]
        for chunk in carrier:
            assert chunk.label() == _ref_label(chunk)
            assert "_label" not in vars(chunk)
            assert all("_label" in vars(tx) for tx in chunk.txs)


def _unhashed(value):
    assert "_hash" not in vars(value)
    return value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_represented()))
def test_kept_chunk_and_transaction_hashes(chunk):
    """The kept hash is the one the dataclass generates, ``hash((txs,))``
    and ``hash((inputs, outputs))``, on every way of building an equal
    value; it is computed on first use, not at construction."""
    want = hash(_ref_hash_key(chunk))
    txs = chunk.txs
    fresh = _fresh_copy(chunk)
    assert all("_hash" not in vars(tx) for tx in fresh.txs)
    images = [
        fresh,
        Chunk(txs),
        Chunk._trusted(txs),
        compose(EMPTY_CHUNK, Chunk._trusted(txs)),
        compose(Chunk._trusted(txs), EMPTY_CHUNK),
        compose(Chunk._trusted(txs[:1]), Chunk._trusted(txs[1:])),
    ]
    for value in [chunk] + [_unhashed(image) for image in images]:
        assert value == chunk
        assert hash(value) == want == hash((value.txs,)) and hash(value) == want
        for tx in value.txs:
            tx_want = hash(_ref_hash_key(tx))
            assert hash(tx) == tx_want == hash((tx.inputs, tx.outputs)) and hash(tx) == tx_want
    for perm in _renamings(chunk):
        renamed = _unhashed(chunk.rename(perm))
        assert all("_hash" not in vars(tx) for tx in renamed.txs)
        assert hash(renamed) == hash(_ref_hash_key(renamed)) == hash(_fresh_copy(renamed))
        for tx in txs:
            renamed_tx = tx.rename(perm)
            assert "_hash" not in vars(renamed_tx)
            assert hash(renamed_tx) == hash(_ref_hash_key(renamed_tx))
        assert hash(chunk) == want


def test_transaction_label_not_computed_at_construction():
    tx = Transaction([Input("a", "k")], [Output("b", 1, AcceptAll())])
    assert "_label" not in vars(tx)
    tx.label()
    assert "_label" in vars(tx)


# ---------------------------------------------------------------------------
# is_top and Subst.dom


def test_is_top_across_separately_built_finsets():
    a, b = FiniteSetsAcs(("a", "b")), FiniteSetsAcs(("a", "b", "c"))
    assert a.top is b.top and a.top == TopElement("finsets")
    assert a.is_top(b.top) and b.is_top(a.top)
    assert b.is_top(a.mcompose(frozenset("a"), frozenset("a")))
    assert not any(a.is_top(x) for x in a.enumerate_carrier()[:-1])
    assert not a.is_top(SubstAcs().top)


def test_is_top_subst_and_chunks(backbone_model):
    a, b = SubstAcs(("a", "b")), SubstAcs(("a", "b"), term_pool=(Fn("c"),))
    assert a.is_top(b.top) and b.is_top(a.top)
    x = Subst([("a", Fn("c"))])
    assert b.is_top(a.mcompose(x, Subst([("a", Var("b"))])))
    assert not a.is_top(x) and not a.is_top(a.bot)
    inst = ChunkAcs(backbone_model)
    assert inst.is_top(FAIL) and not inst.is_top(EMPTY_CHUNK)


def test_fail_is_the_interned_chunk_top(backbone_model, pair_model):
    assert isinstance(FAIL, TopElement) and FAIL is TopElement(FAIL.tag)
    assert pickle.loads(pickle.dumps(FAIL)) is FAIL and copy.deepcopy(FAIL) is FAIL
    perm = Permutation.swap("a", "z")
    a, b = ChunkAcs(backbone_model), ChunkAcs(pair_model)
    assert act(perm, FAIL) is FAIL and a.act(perm, FAIL) is FAIL
    assert a.top is b.top is FAIL
    assert a.is_top(b.top) and b.is_top(a.top)
    assert not FiniteSetsAcs().is_top(FAIL) and not SubstAcs().is_top(FAIL)
    assert "is_top" not in vars(ChunkAcs) and "act" not in vars(ChunkAcs)


def test_is_top_on_a_carrier_valued_top():
    broken = _UnionNoDisjointness(("a", "b"))
    assert broken.is_top(frozenset({"b", "a"}))
    assert not broken.is_top(frozenset({"a"}))
    assert not broken.is_top(TopElement("finsets"))


def test_subst_dom_kept_and_not_compared():
    x = Subst([("b", Fn("c")), ("a", Var("a"))])
    assert x.dom == frozenset({"a", "b"}) and x.dom is x.dom
    assert x == Subst([("a", Var("a")), ("b", Fn("c"))])
    assert x.rename(Permutation.swap("a", "z")).dom == frozenset({"z", "b"})
