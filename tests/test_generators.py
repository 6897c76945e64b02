"""Determinism, validity, coverage, and bounds of the generator engine."""

import pytest

from chunkalg.generators import (
    BoundsTooTight,
    GenConfig,
    gen_arrow,
    gen_cr_triple,
    gen_model,
    gen_perm,
    gen_transaction,
    gen_txlist,
    gen_valid_chunk,
    stream,
)
from chunkalg.ieutxo import (
    VIOLATION_KINDS,
    IeutxoModel,
    arrow_check,
    check_chunk,
    is_blockchain,
)
from chunkalg.jsonio import dumps, model_to_obj, tx_to_obj


def test_identical_seeds_identical_streams():
    cfg = GenConfig(seed=12345)
    def snapshot():
        rng = stream(cfg)
        out = []
        for _ in range(40):
            out.append(dumps([tx_to_obj(tx) for tx in gen_txlist(cfg, rng)]))
        out.append(dumps(model_to_obj(gen_model(cfg, rng))))
        y, x, x2 = gen_cr_triple(cfg, rng)
        out.append(dumps([tx_to_obj(t) for t in y.txs + x.txs + x2.txs]))
        return out

    assert snapshot() == snapshot()


def test_different_seeds_differ():
    a = dumps([tx_to_obj(t) for t in gen_valid_chunk(GenConfig(seed=1)).txs])
    b = dumps([tx_to_obj(t) for t in gen_valid_chunk(GenConfig(seed=2)).txs])
    assert a != b


def test_valid_chunks_validate():
    cfg = GenConfig(seed=9)
    rng = stream(cfg)
    for _ in range(300):
        assert check_chunk(gen_valid_chunk(cfg, rng).txs).ok


def test_zero_txs_gives_empty_chunk():
    cfg = GenConfig(seed=9, max_txs=0)
    assert gen_valid_chunk(cfg).txs == ()


def test_blockchain_flag():
    cfg = GenConfig(seed=10)
    rng = stream(cfg)
    for _ in range(100):
        assert is_blockchain(gen_valid_chunk(cfg, rng, close_inputs=True))


def test_txlist_coverage():
    cfg = GenConfig(seed=42, max_txs=6, max_atoms=8)
    rng = stream(cfg)
    kinds = set()
    outcomes = set()
    for _ in range(1000):
        rep = check_chunk(gen_txlist(cfg, rng))
        outcomes.add(rep.ok)
        if not rep.ok:
            kinds.add(rep.violation.kind)
    assert outcomes == {True, False}
    assert kinds == set(VIOLATION_KINDS)


def test_bounds_errors():
    with pytest.raises(BoundsTooTight):
        GenConfig(max_atoms=0)
    with pytest.raises(BoundsTooTight):
        GenConfig(max_ios_per_tx=0)
    with pytest.raises(BoundsTooTight):
        gen_cr_triple(GenConfig(seed=1, max_atoms=5))


def test_cr_triple_refuses_a_config_that_allows_no_transaction():
    """With no transaction allowed every prefix drawn is empty, and the
    prefix must not be, so the draw would never end."""
    with pytest.raises(BoundsTooTight, match="at least one transaction"):
        gen_cr_triple(GenConfig(seed=1, max_txs=0))
    y, _, _ = gen_cr_triple(GenConfig(seed=1, max_txs=1))
    assert len(y) == 1


def test_gen_model_deterministic_and_probed():
    cfg = GenConfig(seed=77)
    m1 = gen_model(cfg, stream(cfg), name="m")
    m2 = gen_model(cfg, stream(cfg), name="m")
    assert dumps(model_to_obj(m1)) == dumps(model_to_obj(m2))
    assert m1.probe_candidates == m1.transactions


def test_gen_model_impure_rate():
    from chunkalg.ieutxo import is_iutxo_model

    cfg = GenConfig(seed=78, impure_rate=1.0)
    model = gen_model(cfg, stream(cfg), n_txs=4)
    assert not is_iutxo_model(model)


def test_gen_arrow_lawful_and_target_checked():
    cfg = GenConfig(seed=79)
    rng = stream(cfg)
    src = gen_model(cfg, rng, name="src", n_txs=3)
    for _ in range(10):
        f = gen_arrow(cfg, src, rng=rng)
        assert arrow_check(f)
    with pytest.raises(BoundsTooTight):
        other = gen_model(GenConfig(seed=80), name="other", n_txs=2)
        # an unrelated target model cannot absorb a fresh renaming
        while True:
            gen_arrow(cfg, src, target=other, rng=rng)


def test_gen_arrow_out_of_an_empty_model_is_the_empty_arrow():
    """No transaction to rename or drop: the arrow's table is empty, onto an
    empty image model or onto the target supplied."""
    empty = IeutxoModel("e", ())
    target = gen_model(GenConfig(seed=80), name="t", n_txs=2)
    for seed in range(10):
        cfg = GenConfig(seed=seed)
        f = gen_arrow(cfg, empty)
        assert f.table == {} and f.target.transactions == ()
        assert arrow_check(f)
        g = gen_arrow(cfg, empty, target=target)
        assert g.table == {} and g.target is target
        assert arrow_check(g)


def test_gen_perm_is_permutation():
    cfg = GenConfig(seed=81)
    p = gen_perm(cfg)
    assert p.compose(p.invert()).is_identity()


def test_gen_transaction_uses_pool():
    cfg = GenConfig(seed=82, max_atoms=3)
    rng = stream(cfg)
    pool = set("abc") | {f"q{i}" for i in range(10)}
    for _ in range(50):
        tx = gen_transaction(cfg, rng)
        from chunkalg.ieutxo import pos

        assert pos(tx) <= pool
