"""The chunk monoid's laws, commutation, freshness, and confluence."""

import random

from chunkalg.atoms import Permutation, fresh_atoms
from chunkalg.generators import GenConfig, gen_cr_triple, gen_valid_chunk, stream
from chunkalg.ieutxo import (
    CR_PREMISES_FAILED,
    CR_VERIFIED,
    Chunk,
    EMPTY_CHUNK,
    FAIL,
    check_church_rosser,
    chunk_leq,
    commuting,
    compose,
    is_blockchain,
    pos,
)

from conftest import mk_tx, sublists

CFG = GenConfig(seed=2024)


def _chunks(n, seed=0, close=False):
    cfg = GenConfig(seed=seed)
    rng = stream(cfg)
    return [gen_valid_chunk(cfg, rng, close_inputs=close) for _ in range(n)]


def _mixed(n, seed=0):
    out = _chunks(n - 2, seed)
    out.extend([EMPTY_CHUNK, FAIL])
    return out


def test_associativity_unit_absorption():
    rng = random.Random(5)
    elems = _mixed(40, seed=9)
    for _ in range(800):
        x, y, z = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert compose(compose(x, y), z) == compose(x, compose(y, z))
    for x in elems:
        assert compose(EMPTY_CHUNK, x) == x
        assert compose(x, EMPTY_CHUNK) == x
        assert compose(FAIL, x) is FAIL
        assert compose(x, FAIL) is FAIL


def test_monotone_and_down_closed():
    rng = random.Random(6)
    chunks = _chunks(60, seed=10)
    for _ in range(400):
        x = chunks[rng.randrange(len(chunks))]
        y = chunks[rng.randrange(len(chunks))]
        subs = list(sublists(x.txs))
        x_sub = Chunk(subs[rng.randrange(len(subs))])
        assert chunk_leq(x_sub, x)
        # down-closure: if x·y is defined then x'·y is, and stays below
        if compose(x, y) is not FAIL:
            assert compose(x_sub, y) is not FAIL
            assert chunk_leq(compose(x_sub, y), compose(x, y))
        # monotone holds in the totalized order even when x·y fails
        assert chunk_leq(compose(x_sub, y), compose(x, y))
        assert chunk_leq(compose(y, x_sub), compose(y, x))
        # increasing
        xy = compose(x, y)
        assert chunk_leq(x, xy) and chunk_leq(y, xy)


def test_commuting_cases(pair_txs, backbone):
    tx, ty = pair_txs
    tx1, _, _, tx4 = backbone
    a, b = Chunk((tx1,)), Chunk((tx4,))
    assert commuting(a, b)  # disjoint positions
    ch = Chunk((tx, ty))
    assert commuting(ch, ch)  # symmetric statement
    assert not commuting(Chunk((tx,)), Chunk((ty,)))  # one order only


def test_freshness_three_way_equivalence():
    cfg = GenConfig(seed=77)
    rng = stream(cfg)
    pairs = 0
    for _ in range(400):
        x = gen_valid_chunk(cfg, rng)
        if rng.random() < 0.5:
            # disjoint copy on fresh atoms
            interface = sorted(pos(x))
            perm = Permutation.extending(
                dict(zip(interface, fresh_atoms(len(interface), interface)))
            )
            y = x.rename(perm)
        else:
            y = gen_valid_chunk(cfg, rng)
        xy, yx = compose(x, y), compose(y, x)
        if xy is FAIL and yx is FAIL:
            continue
        pairs += 1
        disjoint = not (pos(x) & pos(y))
        both = xy is not FAIL and yx is not FAIL
        assert disjoint == both == commuting(x, y)
    assert pairs > 100


def test_permutation_clash_defeats_composition():
    cfg = GenConfig(seed=88)
    rng = stream(cfg)
    for _ in range(60):
        ch = gen_valid_chunk(cfg, rng)
        interface = sorted(pos(ch))
        if not interface:
            continue
        a = interface[rng.randrange(len(interface))]
        movable = [b for b in interface if b != a]
        rng.shuffle(movable)
        chosen = movable[: rng.randint(0, len(movable))]
        targets = fresh_atoms(len(chosen), interface)
        perm = Permutation.extending(dict(zip(sorted(chosen), targets)))
        assert perm.fixes(a)
        moved = ch.rename(perm)
        assert compose(ch, moved) is FAIL
        assert compose(moved, ch) is FAIL


# ---------------------------------------------------------------------------
# Confluence


def test_verified_on_disjoint_triple(backbone):
    tx1, tx2, tx3, tx4 = backbone
    y = Chunk((tx1,))
    perm = Permutation.extending({"a": "a9", "b": "b9", "c": "c9"})
    x = Chunk((tx1.rename(perm),))
    perm2 = Permutation.extending({"a": "a8", "b": "b8", "c": "c8"})
    x2 = Chunk((tx1.rename(perm2),))
    assert check_church_rosser(y, x, x2).status == CR_VERIFIED


def test_degenerate_triple():
    assert check_church_rosser(EMPTY_CHUNK, EMPTY_CHUNK, EMPTY_CHUNK).status == CR_VERIFIED


def test_premises_failed_when_middle_feeds_suffix():
    genesis = mk_tx([], [("a", 0)])
    middle = mk_tx([("a", "k")], [("b", 0)])
    suffix = mk_tx([("b", "k")], [("c", 0)])
    rep = check_church_rosser(Chunk((genesis,)), Chunk((middle,)), Chunk((suffix,)))
    assert rep.status == CR_PREMISES_FAILED


def test_premises_failed_when_not_a_chunk(pair_txs):
    tx, ty = pair_txs
    rep = check_church_rosser(Chunk((ty,)), Chunk((tx,)), EMPTY_CHUNK)
    assert rep.status == CR_PREMISES_FAILED


def test_generated_triples_verify():
    cfg = GenConfig(seed=99)
    rng = stream(cfg)
    for _ in range(150):
        y, x, x2 = gen_cr_triple(cfg, rng)
        assert check_church_rosser(y, x, x2).status == CR_VERIFIED


def test_blockchain_specialization():
    cfg = GenConfig(seed=100)
    rng = stream(cfg)
    for _ in range(50):
        y, x, x2 = gen_cr_triple(cfg, rng, blockchain=True)
        yx2 = compose(y, x2)
        full = compose(compose(y, x), x2)
        assert yx2 is not FAIL and is_blockchain(yx2)
        assert full is not FAIL and is_blockchain(full)
        # both extensions being blockchains forces commutation
        assert commuting(x, x2)
