"""The two functors, the unit and counit, and their defining equations."""

import re

import pytest

from chunkalg.acs import (
    AcsArrow,
    ChunkAcs,
    FiniteSetsAcs,
    Fn,
    Subst,
    SubstAcs,
    acs_arrows_equal,
    compose_acs_arrows,
    identity_acs_arrow,
)
from chunkalg.functors import (
    eta,
    f_arrow,
    f_object,
    g_arrow,
    g_object,
)
from chunkalg.generators import GenConfig, gen_arrow, gen_model, stream
from chunkalg.ieutxo import (
    Chunk,
    EMPTY_CHUNK,
    FAIL,
    ModelError,
    arrow_check,
    arrow_compose,
    arrows_equal,
    compose,
    enumerate_chunks,
    identity_arrow,
    is_chunk,
    is_iutxo_model,
)
from chunkalg.scripts import AcsCompose


def test_f_object_is_the_chunk_system(pair_model):
    inst = f_object(pair_model)
    assert inst.bot == EMPTY_CHUNK
    assert inst.top is FAIL
    tx, ty = pair_model.transactions
    assert inst.mcompose(Chunk((tx,)), Chunk((ty,))) == Chunk((tx, ty))
    assert inst.atomic_elements() == [Chunk((tx,)), Chunk((ty,))]
    # composition agrees with chunk composition on all pairs
    for a in inst.enumerate_carrier():
        for b in inst.enumerate_carrier():
            if a is FAIL or b is FAIL:
                continue
            assert inst.mcompose(a, b) == compose(a, b)


def test_f_arrow_identity_and_fail(backbone_model):
    ident = identity_arrow(backbone_model)
    fid = f_arrow(ident)
    for x in ChunkAcs(backbone_model).enumerate_carrier():
        assert fid(x) == x
    assert fid(FAIL) is FAIL


def test_f_arrow_functorial():
    cfg = GenConfig(seed=41)
    rng = stream(cfg)
    model = gen_model(cfg, rng, name="src", n_txs=3)
    f = gen_arrow(cfg, model, rng=rng)
    g = gen_arrow(cfg, f.target, rng=rng)
    composite = f_arrow(arrow_compose(f, g))
    stepwise = compose_acs_arrows(f_arrow(f), f_arrow(g))
    assert acs_arrows_equal(composite, stepwise)
    # and on non-atomic samples too
    inst = ChunkAcs(model)
    for x in inst.sample_elements(20, seed=1):
        assert composite(x) == stepwise(x)


def test_g_object_shapes_finsets():
    fs = FiniteSetsAcs(("a", "b"))
    gm = g_object(fs)
    tx = gm.tx_of[frozenset("a")]
    assert tx.inputs == ()
    assert len(tx.outputs) == 1 and tx.outputs[0].position == "a"
    assert isinstance(tx.outputs[0].validator, AcsCompose)
    assert tx.outputs[0].datum == frozenset("a")


def test_g_object_shapes_subst():
    su = SubstAcs(("a", "b"), term_pool=(Fn("c"),))
    gm = g_object(su)
    sub = Subst((("a", Fn("c")),))
    tx = gm.tx_of[sub]
    assert len(tx.inputs) == 1 and tx.inputs[0].position == "a"
    assert tx.inputs[0].key == sub
    assert tx.outputs == ()


def test_g_object_pair_law(backbone_model):
    """Represented transactions compose exactly when their elements do."""
    for inst in (
        FiniteSetsAcs(("a", "b", "c")),
        SubstAcs(("a", "b"), term_pool=(Fn("c"),)),
        ChunkAcs(backbone_model),
    ):
        gm = g_object(inst)
        for x in gm.atomics:
            for y in gm.atomics:
                assert is_chunk((gm.tx_of[x], gm.tx_of[y])) == (
                    not inst.is_top(inst.mcompose(x, y))
                ), inst.name


def test_g_object_injective_and_pure(backbone_model):
    inst = ChunkAcs(backbone_model)
    gm = g_object(inst)
    txs = list(gm.tx_of.values())
    assert len(set(txs)) == len(txs)
    assert is_iutxo_model(gm.model)
    from chunkalg.ieutxo import pos

    for x in gm.atomics:
        assert pos(gm.tx_of[x]) == inst.posi(x)


def test_g_arrow_identity_and_functoriality():
    fs = FiniteSetsAcs(("a", "b"))
    gm = g_object(fs)
    ident = identity_acs_arrow(fs)
    gi = g_arrow(ident, gm, gm)
    assert arrows_equal(gi, identity_arrow(gm.model))
    from chunkalg.acs import perm_acs_arrow
    from chunkalg.atoms import Permutation

    p = perm_acs_arrow(fs, Permutation.swap("a", "b"))
    gp = g_arrow(p, gm, gm)
    assert arrow_check(gp)
    both = compose_acs_arrows(p, p)
    assert arrows_equal(
        g_arrow(both, gm, gm), arrow_compose(g_arrow(p, gm, gm), g_arrow(p, gm, gm))
    )


def test_g_arrow_multi_factor_image():
    fs = FiniteSetsAcs(("a", "b"))
    gm = g_object(fs)
    # send {a} to the two-factor element {a,b}; lawful because the source
    # atomics never compose anyway ({a}·{a} and {a}·{b} both exist... {a}·{b}
    # maps to {a,b}·{a,b} = top, so restrict to the singleton source
    one = FiniteSetsAcs(("a",))
    gm_one = g_object(one)
    arrow = AcsArrow(one, fs, lambda x: frozenset("ab") if x == frozenset("a") else x)
    gi = g_arrow(arrow, gm_one, gm)
    image = gi(gm_one.tx_of[frozenset("a")])
    assert len(image) == 2


def test_g_arrow_requires_materialization():
    """An arrow whose image factors through an element that is not an
    atomic of the target is not materialized in the target's
    representation."""
    one = FiniteSetsAcs(("a",))
    su = SubstAcs(("a",), term_pool=(Fn("c"),))
    unmaterialized = Subst([("a", Fn("d"))])
    assert unmaterialized not in su.atomic_elements()
    arrow = AcsArrow(one, su, lambda x: unmaterialized if x else su.bot)
    with pytest.raises(ModelError):
        g_arrow(arrow, g_object(one), g_object(su))


def test_eta_map(backbone_model, backbone):
    """The unit sends each transaction to the one represented transaction
    of its singleton chunk, keeping its positions, and the counit undoes it
    chunkwise."""
    et = eta(backbone_model)
    unit = et.as_arrow()
    assert arrow_check(unit)
    from chunkalg.ieutxo import pos

    for tx in backbone:
        image = unit(tx)
        assert len(image) == 1
        assert pos(image) == pos(tx)
        assert image.txs == et.on_list((tx,))
    tx1, tx2, tx3, tx4 = backbone
    ch = Chunk((tx1, tx2))
    assert et.on_element(et.on_chunk(ch)) == ch
    assert et.on_chunk(ch) == compose(unit(tx1), unit(tx2))
    assert et.on_chunk(FAIL) is FAIL


def test_unit_table_is_read_off_the_singletons():
    """``on_list`` agrees, on every enumerated chunk of generated models,
    with looking each transaction's singleton chunk up in ``tx_of``."""
    for seed in range(4):
        cfg = GenConfig(seed=seed)
        model = gen_model(cfg, stream(cfg), name="m", n_txs=4)
        et = eta(model)
        for c in enumerate_chunks(model):
            assert et.on_list(c.txs) == tuple(et.tx_of[Chunk((tx,))] for tx in c.txs)


def test_unit_refuses_foreign_transactions(backbone_model, pair_txs):
    et = eta(backbone_model)
    with pytest.raises(ModelError):
        et.on_list((pair_txs[0],))
    with pytest.raises(ModelError):
        et.on_chunk(Chunk((pair_txs[0],)))
    gm = g_object(FiniteSetsAcs(("a", "b")))
    for txs in (backbone_model.transactions[:1], gm.model.transactions[:1]):
        with pytest.raises(ModelError):
            gm.on_list(txs)


def test_counit_refuses_foreign_transactions(backbone_model, pair_txs):
    """A chunk holding a transaction outside the represented model is
    refused with a ModelError that names the transaction, as the unit's
    ``on_chunk`` refuses one outside its source."""
    foreign = pair_txs[0]
    for gm in (eta(backbone_model), g_object(FiniteSetsAcs(("a", "b")))):
        with pytest.raises(ModelError, match=re.escape(foreign.label())):
            gm.on_element(Chunk((foreign,)))


def test_unit_arrow_needs_a_models_chunk_system():
    for inst in (FiniteSetsAcs(("a",)), SubstAcs(("a",))):
        with pytest.raises(ModelError, match="not a model's chunk system"):
            g_object(inst).as_arrow()


def test_eta_preserves_and_reflects(backbone_model, backbone):
    et = eta(backbone_model)
    tx1, tx2, tx3, tx4 = backbone
    for lst in [
        (tx1, tx2),
        (tx2, tx1),
        (tx1, tx3, tx2, tx4),
        (tx4, tx4),
        (tx1,),
        (),
    ]:
        assert is_chunk(lst) == is_chunk(et.on_list(lst))


def test_eta_bijective_on_enumerated_chunks(pair_model):
    et = eta(pair_model)
    src = list(enumerate_chunks(pair_model))
    images = {et.on_chunk(c).txs for c in src}
    assert len(images) == len(src)
    assert images == {c.txs for c in enumerate_chunks(et.model)}


def test_epsilon_map():
    fs = FiniteSetsAcs(("a", "b", "c"))
    eps = g_object(fs)
    assert eps.on_element(EMPTY_CHUNK) == fs.bot
    assert eps.on_element(FAIL) == fs.top
    w = eps.surjectivity_witness(frozenset("ab"))
    assert eps.on_element(w) == frozenset("ab")
    assert eps.surjectivity_witness(fs.top) is FAIL
    assert eps.on_element(eps.surjectivity_witness(fs.bot)) == fs.bot


def test_epsilon_round_trip_through_eta(backbone_model):
    """The counit undoes the unit's image chunkwise."""
    et = eta(backbone_model)
    for ch in list(enumerate_chunks(backbone_model))[:15]:
        assert et.on_element(et.on_chunk(ch)) == ch


def test_epsilon_is_monoid_map():
    fs = FiniteSetsAcs(("a", "b"))
    eps = g_object(fs)
    fg = ChunkAcs(eps.model)
    elems = fg.enumerate_carrier()
    for u in elems:
        for v in elems:
            assert eps.on_element(fg.mcompose(u, v)) == fs.mcompose(
                eps.on_element(u), eps.on_element(v)
            )
