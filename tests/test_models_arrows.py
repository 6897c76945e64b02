import pytest

from chunkalg.generators import GenConfig, gen_arrow, gen_model, stream
from chunkalg.ieutxo import (
    Chunk,
    EMPTY_CHUNK,
    FAIL,
    IeutxoArrow,
    IeutxoModel,
    ModelError,
    NotAnArrow,
    Transaction,
    arrow_apply,
    arrow_check,
    arrow_compose,
    arrow_violation,
    arrows_equal,
    enumerate_chunks,
    identity_arrow,
    is_iutxo_model,
)
from chunkalg.scripts import AcceptAll, And, KeyEquals, SpendsAtMostNInputs

from conftest import mk_tx


def test_model_rejects_bad_enumerations(pair_txs):
    with pytest.raises(ModelError):
        IeutxoModel("m", (Transaction((), ()),))
    with pytest.raises(ModelError):
        IeutxoModel("m", (mk_tx([("a", "k")], [("a", 0)]),))
    with pytest.raises(ModelError):
        IeutxoModel("m", (pair_txs[0], pair_txs[0]))


def test_enumerate_chunks(backbone_model):
    chunks = list(enumerate_chunks(backbone_model))
    labels = {c.txs for c in chunks}
    tx1, tx2, tx3, tx4 = backbone_model.transactions
    assert (tx1, tx2, tx3, tx4) in labels
    assert (tx1, tx3, tx2, tx4) in labels
    assert (tx2, tx1) not in labels
    assert () in labels
    # prefixes of everything present are present
    for c in chunks:
        for k in range(len(c.txs)):
            assert c.txs[:k] in labels


def test_identity_arrow(backbone_model):
    ident = identity_arrow(backbone_model)
    assert arrow_check(ident)
    ch = Chunk(backbone_model.transactions[:2])
    assert arrow_apply(ident, ch) == ch
    assert arrow_apply(ident, FAIL) is FAIL


def test_arrow_violation_detected(pair_model, pair_txs):
    tx, ty = pair_txs
    # swap the images: ty's image then conflicts with tx's on d and e
    table = {tx: Chunk((ty,)), ty: Chunk((tx,))}
    bad = IeutxoArrow(pair_model, pair_model, table)
    assert arrow_violation(bad) == (tx, ty)
    assert not arrow_check(bad)


def test_arrow_table_must_cover_source(pair_model, pair_txs):
    tx, ty = pair_txs
    with pytest.raises(NotAnArrow):
        IeutxoArrow(pair_model, pair_model, {tx: Chunk((tx,))})


def test_drop_arrows_are_lawful(pair_model, pair_txs):
    tx, ty = pair_txs
    drop = IeutxoArrow(pair_model, pair_model, {tx: EMPTY_CHUNK, ty: Chunk((ty,))})
    assert arrow_check(drop)
    assert arrow_apply(drop, Chunk((tx, ty))) == Chunk((ty,))


def test_arrow_compose_matches_pointwise(backbone_model):
    cfg = GenConfig(seed=61)
    rng = stream(cfg)
    f = gen_arrow(cfg, backbone_model, rng=rng)
    g = gen_arrow(cfg, f.target, rng=rng)
    fg = arrow_compose(f, g)
    assert arrow_check(fg)
    for tx in backbone_model.transactions:
        assert fg(tx) == arrow_apply(g, f(tx))
    ident = identity_arrow(backbone_model)
    assert arrows_equal(arrow_compose(ident, f), f)


def test_generated_arrows_check_out():
    cfg = GenConfig(seed=62)
    rng = stream(cfg)
    for i in range(25):
        model = gen_model(cfg, rng, name=f"m{i}", n_txs=3)
        f = gen_arrow(cfg, model, rng=rng)
        assert arrow_check(f)


def test_is_iutxo_model(backbone):
    pure = IeutxoModel("pure", backbone)
    assert is_iutxo_model(pure)
    shapeful = mk_tx([], [("z", 0, And(AcceptAll(), SpendsAtMostNInputs(1)))])
    impure = IeutxoModel("impure", (shapeful,))
    assert not is_iutxo_model(impure)
    keysonly = IeutxoModel(
        "keys", (mk_tx([], [("y", 0, KeyEquals("k"))]),)
    )
    assert is_iutxo_model(keysonly)
