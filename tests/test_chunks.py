"""Chunk validity, the checker's diagnostics, and the locality oracle."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg.atoms import Permutation, act, swap
from chunkalg.generators import GenConfig, gen_model, gen_perm, gen_txlist, gen_valid_chunk, stream
from chunkalg.ieutxo import (
    BACKWARD_OR_SELF_POINTER,
    Chunk,
    ChunkReport,
    DUPLICATE_INPUT_POSITION,
    DUPLICATE_OUTPUT_POSITION,
    EMPTY_TRANSACTION,
    FAIL,
    EMPTY_CHUNK,
    NotAChunk,
    Transaction,
    VALIDATION_FAILED,
    check_chunk,
    chunk_leq,
    compose,
    enumerate_chunks,
    input_channels,
    is_chunk,
    is_sublist,
    output_channels,
    pairwise_chunk_oracle,
    pos,
)
from chunkalg.scripts import And, InputPositionIn, KeyEquals

from conftest import mk_tx, sublists


def test_pair_is_a_chunk(pair_txs):
    tx, ty = pair_txs
    assert check_chunk((tx, ty)).ok
    assert is_chunk(())  # vacuous


def test_swapped_pair_is_backward(pair_txs):
    tx, ty = pair_txs
    rep = check_chunk((ty, tx))
    assert not rep.ok
    assert rep.violation.kind == BACKWARD_OR_SELF_POINTER
    assert rep.violation.positions == ("d",)


def test_backbone_swap_is_backward(backbone):
    tx1, tx2, _, _ = backbone
    rep = check_chunk((tx2, tx1))
    assert rep.violation.kind == BACKWARD_OR_SELF_POINTER
    assert rep.violation.positions == ("b",)


def test_self_overlap_is_backward():
    t = mk_tx([("a", "k")], [("a", 0)])
    rep = check_chunk((t,))
    assert rep.violation.kind == BACKWARD_OR_SELF_POINTER


def test_empty_transaction_rejected():
    rep = check_chunk((Transaction((), ()),))
    assert rep.violation.kind == EMPTY_TRANSACTION


def test_report_ok_is_the_absence_of_a_violation():
    """``ok`` is read off ``violation``, so the two cannot disagree."""
    refused = check_chunk((Transaction((), ()),))
    assert not refused.ok and refused.to_obj()["ok"] is False
    assert not ChunkReport(refused.violation).ok
    assert ChunkReport().to_obj() == {"ok": True, "violation": None}
    with pytest.raises(TypeError):
        ChunkReport(True, None)


def test_duplicate_kinds():
    a1 = mk_tx([], [("a", 0)])
    a2 = mk_tx([], [("a", 1)])
    assert check_chunk((a1, a2)).violation.kind == DUPLICATE_OUTPUT_POSITION
    i1 = mk_tx([("p", "k")], [("x", 0)])
    i2 = mk_tx([("p", "k")], [("y", 0)])
    assert check_chunk((i1, i2)).violation.kind == DUPLICATE_INPUT_POSITION


def test_validation_failed():
    locked = mk_tx([], [("a", 0, KeyEquals("secret"))])
    thief = mk_tx([("a", "guess")], [("b", 0)])
    rep = check_chunk((locked, thief))
    assert rep.violation.kind == VALIDATION_FAILED
    honest = mk_tx([("a", "secret")], [("b", 0)])
    assert check_chunk((locked, honest)).ok


def test_positions(pair_txs):
    from chunkalg.ieutxo import PointedTransaction

    tx, ty = pair_txs
    assert pos(tx) == frozenset("abcde")
    assert pos(ty) == frozenset("def")
    assert pos(()) == frozenset()
    assert pos(tx.inputs[0]) == frozenset("a")
    assert pos(tx.outputs[0]) == frozenset("d")
    assert pos(PointedTransaction(tx, tx.inputs[0])) == pos(tx)
    assert pos(Chunk((tx, ty))) == frozenset("abcdef")
    assert input_channels(tx) == frozenset("abc")
    assert output_channels(tx) == frozenset("de")
    assert input_channels(mk_tx([], [("a", 0)])) == frozenset()


def test_singleton_validity_is_channel_disjointness(pair_txs):
    tx, _ = pair_txs
    assert is_chunk((tx,))
    assert pos(tx) == input_channels(tx) | output_channels(tx)
    bad = mk_tx([("a", "k")], [("a", 0)])
    assert not is_chunk((bad,))


def test_check_chunk_finds_the_spent_output(pair_txs):
    """An input meets the unique output at its position: spending an earlier
    one is checked against its validator, a later one is a backward
    pointer with the (input, output) transaction indices."""
    tx, ty = pair_txs
    assert ty.inputs[0].position == "d" and tx.outputs[0].position == "d"
    assert check_chunk((tx, ty)).ok
    assert check_chunk((tx,)).ok  # tx's inputs meet no output
    rep = check_chunk((ty, tx))
    assert rep.violation.kind == BACKWARD_OR_SELF_POINTER
    assert rep.violation.positions == ("d",) and rep.violation.tx_indices == (0, 1)
    locked = mk_tx([("a", "x1")], [("d", 1, KeyEquals("nobody")), ("e", 2)])
    rep = check_chunk((locked, ty))
    assert rep.violation.kind == VALIDATION_FAILED
    assert rep.violation.positions == ("d",) and rep.violation.tx_indices == (0, 1)


def test_check_chunk_ambiguous_output():
    a1 = mk_tx([], [("a", 0)])
    a2 = mk_tx([], [("a", 1)])
    spender = mk_tx([("a", "k")], [])
    rep = check_chunk((a1, a2, spender))
    assert rep.violation.kind == DUPLICATE_OUTPUT_POSITION
    assert rep.violation.positions == ("a",) and rep.violation.tx_indices == (0, 1)


def test_compose_unit_and_fail(pair_txs):
    tx, ty = pair_txs
    ch = Chunk((tx, ty))
    assert compose(ch, EMPTY_CHUNK) == ch
    assert compose(EMPTY_CHUNK, ch) == ch
    assert compose(FAIL, ch) is FAIL
    assert compose(ch, FAIL) is FAIL
    assert compose(Chunk((tx,)), Chunk((ty,))) == ch
    assert compose(Chunk((ty,)), Chunk((tx,))) is FAIL


def test_compose_disjoint_always_defined(backbone):
    tx1, _, _, tx4 = backbone
    a, b = Chunk((tx1,)), Chunk((tx4,))
    assert not (pos(a) & pos(b))
    assert compose(a, b) is not FAIL
    assert compose(b, a) is not FAIL


def test_sublist():
    assert is_sublist((), (1, 2, 3))
    assert is_sublist((1, 3), (1, 2, 3, 4))
    assert not is_sublist((2, 1), (1, 2))
    assert not is_sublist((1, 1), (1, 2))


def _sublist_reference(small, big):
    """Some increasing choice of indices into ``big`` spells ``small``."""
    return any(
        [big[i] for i in idx] == list(small)
        for idx in combinations(range(len(big)), len(small))
    )


_short = st.lists(st.integers(0, 2), max_size=6)


@given(_short, _short, st.lists(st.booleans(), min_size=6, max_size=6))
@settings(max_examples=300, deadline=None)
def test_sublist_matches_index_subset_reference(small, big, kept):
    """On short lists with repeated items, against every index subset; a
    list with items deleted from ``big`` is always a sublist of it."""
    assert is_sublist(small, big) == _sublist_reference(small, big)
    deleted = [x for x, keep in zip(big, kept) if keep]
    assert is_sublist(deleted, big) and _sublist_reference(deleted, big)


@given(st.integers(0, 2**20))
@settings(max_examples=20, deadline=None)
def test_chunk_leq_matches_index_subset_reference(seed):
    """The sublist order on a generated model's chunks, FAIL on top."""
    cfg = GenConfig(seed=seed)
    chunks = list(enumerate_chunks(gen_model(cfg, stream(cfg), n_txs=4)))
    for x in chunks:
        assert chunk_leq(x, FAIL) and not chunk_leq(FAIL, x)
        for y in chunks:
            assert chunk_leq(x, y) == _sublist_reference(x.txs, y.txs)


def test_chunk_constructor_rejects_invalid(pair_txs):
    tx, ty = pair_txs
    with pytest.raises(NotAChunk):
        Chunk((ty, tx))


def test_oracle_agrees_on_examples(pair_txs, backbone):
    tx, ty = pair_txs
    assert pairwise_chunk_oracle((tx, ty))
    assert not pairwise_chunk_oracle((ty, tx))
    assert pairwise_chunk_oracle(())
    assert pairwise_chunk_oracle(backbone)


def test_oracle_catches_invalid_singletons():
    bad = mk_tx([("a", "k")], [("a", 0)])
    assert not pairwise_chunk_oracle((bad,))
    assert not is_chunk((bad,))


def test_oracle_agreement_on_random_lists():
    cfg = GenConfig(seed=777, max_txs=6, max_atoms=8)
    rng = stream(cfg)
    for _ in range(400):
        txs = gen_txlist(cfg, rng)
        assert is_chunk(txs) == pairwise_chunk_oracle(txs)


def test_down_closure_on_generated_chunks():
    cfg = GenConfig(seed=101)
    rng = stream(cfg)
    for _ in range(60):
        ch = gen_valid_chunk(cfg, rng)
        for sub in sublists(ch.txs):
            assert is_chunk(sub)


def test_validity_is_equivariant():
    cfg = GenConfig(seed=55)
    rng = stream(cfg)
    perm = Permutation.extending({"a": "u1", "b": "u2", "c": "u3", "d": "u4"})
    for _ in range(150):
        txs = gen_txlist(cfg, rng)
        assert is_chunk(txs) == is_chunk(act(perm, txs))


def test_analysis_is_equivariant(pair_txs):
    from chunkalg.ieutxo import ledger_sets

    tx, ty = pair_txs
    perm = swap("d", "z")
    moved = act(perm, (tx, ty))
    assert pos(moved) == frozenset(perm(a) for a in pos((tx, ty)))
    before = ledger_sets((tx, ty))
    after = ledger_sets(moved)
    for s_before, s_after in zip(before, after):
        assert s_after == frozenset(perm(a) for a in s_before)


@st.composite
def tiny_txlists(draw):
    """Lists over a 4-atom pool with accept-all validators."""
    pool = "abcd"
    n = draw(st.integers(0, 3))
    txs = []
    for _ in range(n):
        ins = draw(st.sets(st.sampled_from(pool), max_size=2))
        outs = draw(st.sets(st.sampled_from(pool), max_size=2))
        txs.append(mk_tx([(p, "k") for p in ins], [(p, 0) for p in outs]))
    return tuple(txs)


@given(tiny_txlists())
@settings(max_examples=200, deadline=None)
def test_locality_property(txs):
    assert is_chunk(txs) == pairwise_chunk_oracle(txs)


@given(tiny_txlists())
@settings(max_examples=150, deadline=None)
def test_down_closure_property(txs):
    if is_chunk(txs):
        for sub in sublists(txs):
            assert is_chunk(sub)


# A spend that only its named position passes, next to generated chunks,
# whose validators name their own position and a q-atom about a fifth of
# the time.
_NAMED = Chunk((
    mk_tx([], [
        ("a", 0, InputPositionIn(frozenset({"a", "q1"}))),
        ("b", 1, And(InputPositionIn(frozenset("b")), KeyEquals("k"))),
    ]),
    mk_tx([("a", "x"), ("b", "k")], [("c", 2)]),
))


@st.composite
def renamed_chunks(draw):
    """Chunks from one seeded stream and a permutation of their positions,
    the atoms their validators name, and as many fresh atoms."""
    cfg = GenConfig(seed=draw(st.integers(0, 2**20)), max_atoms=draw(st.integers(4, 10)))
    rng = stream(cfg)
    if draw(st.booleans()):
        chunks = [gen_valid_chunk(cfg, rng, close_inputs=draw(st.booleans())) for _ in range(3)]
    else:
        chunks = [c for c in enumerate_chunks(gen_model(cfg, rng, n_txs=4)) if len(c) <= 3]
    chunks.append(_NAMED)
    atoms = sorted(set().union(*map(pos, chunks)))
    atoms += [f"q{i}" for i in range(10)] + [f"u{i}" for i in range(len(atoms))]
    return chunks, gen_perm(cfg, rng, atoms)


@settings(max_examples=60, deadline=None)
@given(renamed_chunks())
def test_renamed_chunks_are_chunks(case):
    chunks, perm = case
    for ch in chunks:
        renamed = ch.rename(perm)
        assert renamed.txs == tuple(tx.rename(perm) for tx in ch.txs)
        assert check_chunk(renamed.txs).ok
