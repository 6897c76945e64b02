"""A model's chunk system composes its carrier chunks from a pair table.

``ChunkAcs`` reads the table from ``pair_masks``, the table the enumeration
walks, when it first enumerates its carrier.  For two carrier chunks
``mcompose`` must answer what ``compose`` answers, and a defined answer must
be the carrier's own chunk, which carries no index; every other operand goes
through ``compose``.  ``compose``, ``check_chunk`` and
``pairwise_chunk_oracle`` are the references.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg import acs
from chunkalg.acs import ChunkAcs
from chunkalg.atoms import Permutation, fresh_atoms
from chunkalg.generators import GenConfig, gen_model, stream
from chunkalg.ieutxo import (
    EMPTY_CHUNK,
    FAIL,
    IeutxoModel,
    check_chunk,
    compose,
    enumerate_chunks,
    pair_masks,
    pairwise_chunk_oracle,
    pos,
)


def _model(seed: int, n_txs: int) -> IeutxoModel:
    cfg = GenConfig(seed=seed, max_txs=n_txs)
    return gen_model(cfg, stream(cfg), name=f"m{seed}", n_txs=n_txs)


@pytest.fixture
def counted_compose(monkeypatch):
    """The operand pairs ``mcompose`` hands to ``compose``."""
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return compose(x, y)

    monkeypatch.setattr(acs, "compose", counted)
    return calls


@given(st.integers(0, 2**20), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_carrier_pairs_compose_as_compose_does(seed, n_txs):
    inst = ChunkAcs(_model(seed, n_txs))
    carrier = inst.enumerate_carrier()[:-1]
    own = {c.txs: c for c in carrier}
    for x in carrier:
        for y in carrier:
            got = inst.mcompose(x, y)
            assert got == compose(x, y)
            cat = x.txs + y.txs
            if got is FAIL:
                # the oracle is costly; a transaction repeated across the
                # operands already fails it
                assert len(set(cat)) < len(cat) or not pairwise_chunk_oracle(cat)
            else:
                assert pairwise_chunk_oracle(cat)
                assert got is own[cat]


@given(st.integers(0, 2**20), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_pair_table_matches_check_chunk_on_every_ordered_pair(seed, n_txs):
    """Bit (i, j) is set exactly when (t_i, t_j) is a chunk, i = j included."""
    model = _model(seed, n_txs)
    txs = model.transactions
    table = pair_masks(model)
    assert len(table) == len(txs)
    for i, t in enumerate(txs):
        for j, u in enumerate(txs):
            assert bool(table[i] >> j & 1) == check_chunk((t, u)).ok
        assert table[i] >> len(txs) == 0


@given(st.integers(0, 2**20), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_other_operands_go_through_compose(seed, n_txs):
    model = _model(seed, n_txs)
    # Before the carrier is enumerated every composition goes through
    # compose, and none enumerates it.
    early = ChunkAcs(model)
    chunks = list(enumerate_chunks(model))
    for x in chunks:
        for y in chunks:
            got = early.mcompose(x, y)
            assert got == compose(x, y)
    assert early._carrier is None

    inst = ChunkAcs(model)
    carrier = inst.enumerate_carrier()
    for x in carrier:
        assert inst.mcompose(FAIL, x) is FAIL and inst.mcompose(x, FAIL) is FAIL
    # A chunk renamed to fresh positions is no carrier chunk.
    for x in carrier[1:-1]:
        fresh = fresh_atoms(len(pos(x)), set(pos(x)))
        moved = inst.act(Permutation.extending(dict(zip(sorted(pos(x)), fresh))), x)
        assert moved not in carrier
        for y in carrier:
            for a, b in ((moved, y), (y, moved)):
                got = inst.mcompose(a, b)
                assert got == compose(a, b)
                assert (got is not FAIL) == (
                    b is not FAIL and a is not FAIL and pairwise_chunk_oracle(a.txs + b.txs)
                )


def test_carrier_pairs_reach_compose_only_when_renamed(backbone_model, counted_compose):
    inst = ChunkAcs(backbone_model)
    inst.mcompose(EMPTY_CHUNK, EMPTY_CHUNK)
    assert len(counted_compose) == 1
    carrier = inst.enumerate_carrier()
    for x in carrier:
        for y in carrier:
            inst.mcompose(x, y)
    # A list of the model's transactions composes from the table whatever
    # object carries it, so factors do too.
    longest = max(carrier[:-1], key=len)
    out = inst.bot
    for part in inst.factor(longest):
        out = inst.mcompose(out, part)
    assert out is longest
    assert len(counted_compose) == 1
    x = next(c for c in carrier if "a" in pos(c))
    moved = inst.act(Permutation.swap("a", "z"), x)
    inst.mcompose(moved, EMPTY_CHUNK)
    assert counted_compose[1:] == [(moved, EMPTY_CHUNK)]


def test_the_table_is_read_in_operand_order_over_every_transaction(backbone_model):
    """A transaction never follows itself, the first operand's transactions
    must each allow the second's, and not the other way round."""
    inst = ChunkAcs(backbone_model)
    carrier = inst.enumerate_carrier()
    s1, s2, s3, s4 = (
        next(c for c in carrier if c.txs == (tx,)) for tx in backbone_model.transactions
    )
    assert inst.mcompose(s1, s1) is FAIL
    assert inst.mcompose(s1, s2).txs == s1.txs + s2.txs
    assert inst.mcompose(s2, s1) is FAIL
    # tx2 may follow tx1 but not tx4, which spends its output
    x = inst.mcompose(s1, s4)
    assert x.txs == s1.txs + s4.txs
    assert inst.mcompose(x, s2) is FAIL is compose(x, s2)
    assert inst.mcompose(s1, inst.mcompose(s2, s4)).txs == s1.txs + s2.txs + s4.txs
    assert inst.mcompose(inst.mcompose(s1, s3), s4) in carrier
