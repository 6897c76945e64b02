"""Unspent/spent channel sets, blockchains, and blocked channels."""

import pytest

from chunkalg.atoms import Permutation
from chunkalg.generators import GenConfig, gen_valid_chunk, stream
from chunkalg.ieutxo import (
    Chunk,
    FAIL,
    IeutxoModel,
    Input,
    NotAChunk,
    Output,
    Transaction,
    blocked_utxi,
    blocked_utxo,
    compose,
    enumerate_chunks,
    is_blockchain,
    ledger_sets,
    pos,
    renamed_probe_chunks,
    stx,
    utxi,
    utxo,
)
from chunkalg.scripts import KeyEquals, RejectAll

from conftest import mk_tx


def test_singleton_sets(pair_txs):
    tx, _ = pair_txs
    assert utxi((tx,)) == frozenset("abc")
    assert utxo((tx,)) == frozenset("de")
    assert stx((tx,)) == frozenset()


def test_combined_sets(pair_txs):
    tx, ty = pair_txs
    assert stx((tx, ty)) == frozenset("de")
    assert utxi((tx, ty)) == frozenset("abc")
    assert utxo((tx, ty)) == frozenset("f")


def test_empty_chunk_sets():
    assert ledger_sets(()) == (frozenset(), frozenset(), frozenset())


def test_sets_require_a_chunk(pair_txs):
    tx, ty = pair_txs
    with pytest.raises(NotAChunk):
        utxi((ty, tx))


def test_partition(pair_txs, backbone):
    for txs in [pair_txs, backbone, backbone[:2], (backbone[0],)]:
        unspent_in, unspent_out, spent = ledger_sets(txs)
        assert unspent_in | unspent_out | spent == pos(txs)
        assert not (unspent_in & unspent_out)
        assert not (unspent_in & spent)
        assert not (unspent_out & spent)


def test_blockchain_classification(backbone, pair_txs):
    tx1, tx2, tx3, tx4 = backbone
    tx, ty = pair_txs
    assert is_blockchain((tx1, tx2, tx3, tx4))
    assert is_blockchain((tx1, tx3, tx2, tx4))
    assert is_blockchain((tx1, tx2))
    assert is_blockchain((tx1, tx3))
    assert is_blockchain(())
    for chunk_not_chain in [(tx3, tx4), (tx2, tx4), (tx,)]:
        assert utxi(chunk_not_chain)  # unspent inputs are what disqualifies
        assert not is_blockchain(chunk_not_chain)
    # a genesis transaction alone has no inputs at all, so its utxi is empty
    # and it is a (one-block) blockchain
    assert utxi((tx1,)) == frozenset()
    assert is_blockchain((tx1,))
    with pytest.raises(NotAChunk):
        is_blockchain((tx2, tx1))


def test_shared_positions_of_composable_chunks():
    cfg = GenConfig(seed=31)
    rng = stream(cfg)
    checked = 0
    for _ in range(300):
        a = gen_valid_chunk(cfg, rng)
        b = gen_valid_chunk(cfg, rng)
        if compose(a, b) is FAIL:
            continue
        checked += 1
        assert pos(a) & pos(b) <= utxo(a) & utxi(b)
    assert checked  # the generator does produce composable pairs


def test_generated_blockchains_are_closed():
    cfg = GenConfig(seed=32)
    rng = stream(cfg)
    for _ in range(100):
        ch = gen_valid_chunk(cfg, rng, close_inputs=True)
        assert is_blockchain(ch)


# ---------------------------------------------------------------------------
# Blocked channels


def test_rejecting_output_is_blocked():
    dead = mk_tx([], [("m", 0, RejectAll())])
    live = mk_tx([], [("n", 0)])
    spender = mk_tx([("n", "k")], [("q", 0)])
    model = IeutxoModel("d", (dead, live, spender), probe_candidates=(dead, live, spender))
    assert blocked_utxo(Chunk((dead,)), model) == frozenset("m")
    assert blocked_utxo(Chunk((live,)), model) == frozenset()


def test_unsatisfiable_input_is_blocked():
    locked = mk_tx([], [("p", 0, KeyEquals("secret"))])
    wrong = mk_tx([("p", "guess")], [("q", 0, KeyEquals("secret"))])
    model = IeutxoModel("lock", (locked, wrong), probe_candidates=(locked, wrong))
    # every probe output demands "secret" but the chunk's input only offers "guess"
    ch = Chunk((mk_tx([("r", "guess")], [("s", 0, KeyEquals("secret"))]),))
    assert "r" in blocked_utxi(ch, model)
    rich = mk_tx([("p", "secret")], [("q2", 0)])
    model2 = IeutxoModel("lock2", (locked, rich), probe_candidates=(locked, rich))
    ch2 = Chunk((locked,))
    assert blocked_utxo(ch2, model2) == frozenset()


def test_blocked_default_universe_is_the_enumeration(backbone):
    """A model that declares no probe candidates probes its enumeration,
    exactly as the same model declaring it."""
    bare = IeutxoModel("bare", backbone)
    declared = IeutxoModel("declared", backbone, probe_candidates=backbone)
    assert bare.probe_candidates == declared.probe_candidates == tuple(backbone)
    chunks = list(enumerate_chunks(bare))
    assert len(chunks) > len(backbone)
    for ch in chunks:
        assert blocked_utxi(ch, bare) == blocked_utxi(ch, declared)
        assert blocked_utxo(ch, bare) == blocked_utxo(ch, declared)
        got = [c.txs for c in renamed_probe_chunks(pos(ch), bare)]
        assert got == [c.txs for c in renamed_probe_chunks(pos(ch), declared)]


def test_probe_renaming_avoids_collisions(backbone_model, backbone):
    tx1, tx2, tx3, tx4 = backbone
    # tx4's d-input is satisfiable by a renamed copy of tx2 even though tx2's
    # own input channel b collides with nothing here
    ch = Chunk((tx4,))
    assert "d" not in blocked_utxi(ch, backbone_model)
    assert blocked_utxi(ch, backbone_model) == frozenset()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "known defect: blocked_utxi probes one renaming per (candidate, slot),"
        " sending the candidate's other positions to fresh atoms, but a"
        " candidate with support can connect only under a renaming that sends"
        " its support onto atoms the chunk's keys mention, so a blocked set"
        " can be too large"
    ),
)
def test_blocked_utxi_closes_over_every_renaming():
    """``a`` is not blocked: the renaming r->w, p->a of ``cand`` outputs at
    ``a`` a validator demanding the key ``("w",)`` that ``ch`` offers."""
    cand = Transaction([Input("r", "k")], [Output("p", 0, KeyEquals(("r",)))])
    model = IeutxoModel("m", (cand,))
    ch = Chunk((Transaction([Input("a", ("w",))], []),))
    renamed = Chunk((cand.rename(Permutation.extending({"r": "w", "p": "a"})),))
    assert compose(renamed, ch) is not FAIL
    assert blocked_utxi(ch, model) == frozenset()
