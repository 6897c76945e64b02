"""A model's chunk system composes its carrier chunks from a pair table.

The model keeps its pair table (``pair_masks``) from the first read, so it
checks its ``n²`` seams once.  ``walk_chunks`` walks the table and yields
each chunk with its mask and its allowed-after mask, and ``ChunkAcs`` keeps
those masks for its carrier chunks when it first enumerates its carrier.
For two carrier chunks ``mcompose`` must answer what ``compose`` answers,
and a defined answer must be the carrier's own chunk, which carries no
index; every other operand goes through ``compose``.  ``compose``,
``check_chunk`` and ``pairwise_chunk_oracle`` are the references.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg import acs, ieutxo
from chunkalg.acs import ChunkAcs
from chunkalg.atoms import Permutation, fresh_atoms
from chunkalg.functors import eta
from chunkalg.generators import GenConfig, gen_arrow, gen_model, stream
from chunkalg.ieutxo import (
    EMPTY_CHUNK,
    FAIL,
    IeutxoArrow,
    IeutxoModel,
    arrow_violation,
    check_chunk,
    composable,
    compose,
    enumerate_chunks,
    is_chunk,
    pair_masks,
    pair_mismatch,
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


def _folded_masks(model: IeutxoModel) -> dict:
    """Each chunk's (mask, allowed-after) pair, folded from its transactions
    as ``ChunkAcs`` once did, over a pair table read off ``check_chunk``."""
    txs = model.transactions
    follows = {
        t: sum(1 << j for j, u in enumerate(txs) if check_chunk((t, u)).ok) for t in txs
    }
    bit = {tx: 1 << k for k, tx in enumerate(txs)}
    out = {}
    for c in enumerate_chunks(model):
        mask, after = 0, ~0
        for tx in c.txs:
            mask |= bit[tx]
            after &= follows[tx]
        out[c.txs] = (mask, after)
    return out


@given(st.integers(0, 2**20), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_carrier_masks_are_the_fold_of_each_chunk(seed, n_txs):
    """The walk's masks are the fold of each carrier chunk's transactions,
    on a generated model and on its represented model.  The fold starts the
    allowed mask from ``~0`` and the walk from the ``n`` low bits, so the
    empty chunk's is compared below bit ``n`` only."""
    model = _model(seed, n_txs) if n_txs else IeutxoModel("empty", ())
    for m in (model, eta(model).model):
        inst = ChunkAcs(m)
        carrier = inst.enumerate_carrier()[:-1]
        folded = _folded_masks(m)
        assert len(carrier) == len(folded) and {c.txs for c in carrier} == set(folded)
        low = (1 << len(m.transactions)) - 1
        for c in carrier:
            mask, after = inst._masks[c]
            want_mask, want_after = folded[c.txs]
            if c is EMPTY_CHUNK:
                after, want_after = after & low, want_after & low
            assert (mask, after) == (want_mask, want_after)
        assert inst._masks[EMPTY_CHUNK] == (0, low)


def test_a_model_checks_its_pair_seams_once(backbone_model, monkeypatch):
    """The first enumeration checks the ``n²`` pair seams; the model keeps
    the table, so a fresh chunk system enumerating its carrier checks none.
    A replaced model is a new model and builds its own table."""
    seams = []
    seam = ieutxo._seam

    def counted(x, y):
        seams.append((x, y))
        return seam(x, y)

    monkeypatch.setattr(ieutxo, "_seam", counted)
    model = replace(backbone_model)
    n = len(model.transactions)
    chunks = list(enumerate_chunks(model))
    assert len(seams) == n * n
    carrier = ChunkAcs(model).enumerate_carrier()
    assert len(seams) == n * n
    assert set(carrier[:-1]) == set(chunks)
    assert pair_masks(model) is pair_masks(model)
    again = replace(model)
    assert pair_masks(again) == pair_masks(model)
    assert len(seams) == 2 * n * n


def _chunk_sets_match(table: dict, source: IeutxoModel, target: IeutxoModel) -> bool:
    """The reference the unit's law once was: every source chunk mapped
    through ``table`` transaction by transaction, injectively, onto the
    target's enumerated chunk set."""
    chunks = list(enumerate_chunks(source))
    image = {tuple(table[tx] for tx in c.txs) for c in chunks}
    return len(image) == len(chunks) and image == {c.txs for c in enumerate_chunks(target)}


@given(st.integers(0, 2**20), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_pair_mismatch_agrees_with_the_chunk_set_reference(seed, n_txs, data):
    """On the unit of ``eta`` and on that unit with two images swapped (both
    bijections of the transactions), the pair tables agree exactly when the
    mapped chunk set is the round trip's."""
    model = _model(seed, n_txs)
    et = eta(model)
    tables = [et.unit]
    txs = model.transactions
    if len(txs) >= 2:
        indices = st.integers(0, len(txs) - 1)
        i, j = data.draw(st.lists(indices, min_size=2, max_size=2, unique=True))
        tables.append({**et.unit, txs[i]: et.unit[txs[j]], txs[j]: et.unit[txs[i]]})
    for table in tables:
        mismatch = pair_mismatch(table, model, et.model)
        assert (mismatch is None) == _chunk_sets_match(table, model, et.model)
        if mismatch is not None:
            s, t = mismatch
            assert is_chunk((s, t)) != is_chunk((table[s], table[t]))
    assert pair_mismatch(et.unit, model, et.model) is None


def _arrow_violation_reference(f: IeutxoArrow):
    """``arrow_violation`` as a ``check_chunk`` on every ordered source pair."""
    txs = f.source.transactions
    for s in txs:
        for t in txs:
            if s != t and is_chunk((s, t)) and not composable(f(s), f(t)):
                return (s, t)
    return None


@given(st.integers(0, 2**20), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_arrow_violation_agrees_with_the_check_chunk_loop(seed, n_txs, data):
    """On generated (lawful) arrows, and on each with one image replaced by
    another transaction's image, the kept pair table finds the reference's
    first violation."""
    cfg = GenConfig(seed=seed, max_txs=n_txs)
    rng = stream(cfg)
    model = gen_model(cfg, rng, name=f"m{seed}", n_txs=n_txs)
    f = gen_arrow(cfg, model, rng=rng)
    assert arrow_violation(f) is None is _arrow_violation_reference(f)
    txs = model.transactions
    indices = st.integers(0, len(txs) - 1)
    i, j = data.draw(indices), data.draw(indices)
    broken = IeutxoArrow(model, f.target, {**f.table, txs[i]: f.table[txs[j]]})
    assert arrow_violation(broken) == _arrow_violation_reference(broken)
