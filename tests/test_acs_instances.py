"""The three shipped chunk-system instances and their behaviour helpers."""

import pytest

from chunkalg import acs, ieutxo
from chunkalg.acs import (
    ChunkAcs,
    FiniteSetsAcs,
    Fn,
    Subst,
    SubstAcs,
    Var,
    acs_arrow_from_atomic_table,
    acs_arrows_equal,
    compose_acs_arrows,
    identity_acs_arrow,
    in_leftB,
    in_rightB,
    obs_equiv_probe,
    perm_acs_arrow,
)
from chunkalg.atoms import swap, value_label
from chunkalg.functors import g_object
from chunkalg.ieutxo import Chunk, EMPTY_CHUNK, FAIL, check_chunk, enumerate_chunks

A = frozenset("a")
B = frozenset("b")
AB = frozenset("ab")


@pytest.fixture
def fs():
    return FiniteSetsAcs(("a", "b", "c"))


@pytest.fixture
def su():
    return SubstAcs(("a", "b"), term_pool=(Fn("c"), Var("a")))


def test_finsets_composition(fs):
    assert fs.mcompose(A, B) == AB
    assert fs.mcompose(A, A) == fs.top
    assert fs.mcompose(fs.bot, A) == A
    assert fs.mcompose(fs.top, A) == fs.top


def test_finsets_factor_and_atomics(fs):
    assert fs.factor(frozenset("ba")) == [A, B]
    assert fs.factor(fs.bot) == []
    assert fs.is_atomic(A) and not fs.is_atomic(AB) and not fs.is_atomic(fs.bot)
    assert fs.atomic_elements() == [A, B, frozenset("c")]
    with pytest.raises(ValueError):
        fs.factor(fs.top)


def test_finsets_orientation(fs):
    assert fs.posi(AB) == AB == fs.up(AB)
    assert fs.left(AB) == frozenset() == fs.right(AB)
    assert fs.posi(fs.top) == frozenset() == fs.posi(fs.bot)


def test_finsets_behaviour(fs):
    assert in_rightB(A, B, fs)
    assert not in_rightB(A, A, fs)
    assert in_leftB(fs.bot, AB, fs)
    assert not in_leftB(AB, fs.top, fs)
    probes = fs.enumerate_carrier()
    assert obs_equiv_probe(A, A, probes, fs)
    assert not obs_equiv_probe(A, B, probes, fs)
    # composition here is commutative, so disjoint elements commute exactly
    assert obs_equiv_probe(fs.mcompose(A, B), fs.mcompose(B, A), probes, fs)


def test_subst_composition(su):
    sa = Subst((("a", Fn("c")),))
    sb = Subst((("b", Var("a")),))
    both = su.mcompose(sa, sb)
    assert both == Subst((("a", Fn("c")), ("b", Var("a"))))
    assert su.mcompose(sa, sa) is su.top
    clash = Subst((("a", Var("a")),))
    assert su.mcompose(sa, clash) is su.top  # overlap is about domains only


def test_subst_composition_merges_like_the_constructor():
    inst = SubstAcs(("a", "b", "c", "d"), term_pool=(Fn("c"), Fn("f", ())))
    carrier = inst.enumerate_carrier()[:-1]
    pairs = [(x, y) for x in carrier for y in carrier if not x.dom & y.dom]
    assert len(pairs) == 5**4
    for x, y in pairs:
        got, want = inst.mcompose(x, y), Subst(x.bindings + y.bindings)
        assert got.bindings == want.bindings and got.dom == want.dom
        assert inst.label(got) == inst.label(want) and hash(got) == hash(want)


def test_subst_without_atoms_is_bot_and_top():
    """With no atoms the default pool is the constant alone, and the
    carrier is the unit and the top, as it is for finite sets over none."""
    inst = SubstAcs(())
    assert inst.term_pool == (Fn("c"),)
    assert inst.enumerate_carrier() == [inst.bot, inst.top]
    assert len(FiniteSetsAcs(()).enumerate_carrier()) == 2
    assert inst.atomic_elements() == []
    assert inst.sample_elements(5, 0) == [inst.bot, inst.top]


def test_subst_without_terms_is_bot_and_top():
    """With atoms but no terms to bind them to, the carrier is the unit and
    the top, and so is every sample."""
    inst = SubstAcs(("a",), term_pool=())
    assert inst.enumerate_carrier() == [inst.bot, inst.top]
    assert inst.atomic_elements() == []
    assert inst.sample_elements(3, 0) == [inst.bot, inst.top]


def test_subst_pool_lists_each_term_once():
    """A repeated pool term would list each substitution binding it twice,
    and the represented model would hold a transaction twice."""
    inst = SubstAcs(("a", "b"), term_pool=(Fn("c"), Var("a"), Fn("c")))
    assert inst.term_pool == (Fn("c"), Var("a"))
    carrier = inst.enumerate_carrier()
    assert len(carrier) == len(set(carrier)) == 10
    assert len(g_object(inst).model.transactions) == 4


def test_subst_order_is_submap(su):
    sa = Subst((("a", Fn("c")),))
    sa2 = Subst((("a", Var("a")),))
    big = Subst((("a", Fn("c")), ("b", Fn("c"))))
    assert su.leq(sa, big)
    assert not su.leq(sa2, big)  # same domain, different binding
    assert su.leq(su.bot, sa) and su.leq(sa, su.top)
    assert not su.leq(big, sa)


def test_subst_factor(su):
    big = Subst((("b", Fn("c")), ("a", Var("a"))))
    parts = su.factor(big)
    assert [sorted(p.dom) for p in parts] == [["a"], ["b"]]
    recomposed = su.bot
    for p in parts:
        recomposed = su.mcompose(recomposed, p)
    assert recomposed == big


def test_subst_orientation(su):
    sa = Subst((("a", Fn("c")),))
    assert su.posi(sa) == frozenset("a") == su.left(sa)
    assert su.right(sa) == frozenset() == su.up(sa)


def test_subst_rename():
    sa = Subst((("a", Var("b")),))
    moved = sa.rename(swap("a", "b"))
    assert moved == Subst((("b", Var("a")),))


def test_chunkacs_basics(backbone_model, backbone):
    inst = ChunkAcs(backbone_model)
    tx1, tx2, tx3, tx4 = backbone
    ch = Chunk((tx1, tx2))
    assert inst.mcompose(Chunk((tx1,)), Chunk((tx2,))) == ch
    assert inst.mcompose(Chunk((tx2,)), Chunk((tx1,))) is FAIL
    assert inst.leq(Chunk((tx1,)), ch)
    assert inst.leq(ch, FAIL)
    assert inst.factor(ch) == [Chunk((tx1,)), Chunk((tx2,))]
    assert inst.is_atomic(Chunk((tx1,)))
    assert not inst.is_atomic(ch) and not inst.is_atomic(EMPTY_CHUNK)
    assert inst.perfectly_atomic


def test_chunkacs_orientation_refines_ledger_sets(backbone_model, backbone):
    from chunkalg.ieutxo import stx, utxi, utxo

    inst = ChunkAcs(backbone_model)
    tx1, tx2, tx3, tx4 = backbone
    for x in (Chunk((tx1,)), Chunk((tx1, tx2)), Chunk((tx3, tx4))):
        assert inst.left(x) <= utxi(x)
        assert inst.right(x) <= utxo(x)
        assert stx(x) <= inst.up(x)
        assert inst.posi(x) == inst.left(x) | inst.right(x) | inst.up(x)
    assert inst.posi(FAIL) == frozenset()
    assert inst.left(FAIL) == frozenset()


def test_chunkacs_cache_info_counts_orientation_lookups(backbone_model, backbone):
    inst = ChunkAcs(backbone_model)
    tx1, tx2, _, _ = backbone
    x, y = Chunk((tx1,)), Chunk((tx1, tx2))
    assert inst.cache_info() == (0, 0, 0)
    inst.left(x)
    assert inst.cache_info() == (0, 1, 1)
    inst.right(x), inst.up(x), inst.posi(x), inst.left(FAIL)
    assert inst.cache_info() == (2, 1, 1)
    inst.up(y), inst.left(Chunk((tx1,)))
    info = inst.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 2, 2)
    assert info == (3, 2, len(inst._orientation))


def test_chunkacs_enumeration(backbone_model):
    inst = ChunkAcs(backbone_model)
    elems = inst.enumerate_carrier()
    assert FAIL in elems and EMPTY_CHUNK in elems
    assert len(elems) == 22  # all valid orderings of the four transactions + fail


def test_commuting_elements_agree_on_definedness(backbone_model):
    """If x and y commute up to observation, both orders fail together."""
    inst = ChunkAcs(backbone_model)
    elems = inst.enumerate_carrier()
    for x in elems:
        for y in elems:
            xy, yx = inst.mcompose(x, y), inst.mcompose(y, x)
            if obs_equiv_probe(xy, yx, elems, inst):
                assert inst.is_top(xy) == inst.is_top(yx)


def test_chunkacs_keeps_its_carrier(backbone_model, monkeypatch):
    """The carrier is enumerated once per instance, every read gets a fresh
    list, and it equals the from-scratch enumeration.  The pair table is
    read off the carrier with no validity check."""
    expected = sorted(enumerate_chunks(backbone_model), key=value_label) + [FAIL]
    calls = []
    checks = []

    def counted(*args):
        calls.append(args)
        return enumerate_chunks(*args)

    def counted_check(txs):
        checks.append(txs)
        return check_chunk(txs)

    monkeypatch.setattr(acs, "enumerate_chunks", counted)
    monkeypatch.setattr(ieutxo, "check_chunk", counted_check)
    inst = ChunkAcs(backbone_model)
    first = inst.enumerate_carrier()
    assert checks == []
    assert first == expected
    first.reverse()
    first.pop()
    assert inst.enumerate_carrier() == expected
    inst.sample_elements(5, seed=1)
    inst.sample_elements(40, seed=2)
    assert len(calls) == 1


def test_acs_arrows(fs):
    ident = identity_acs_arrow(fs)
    assert ident(AB) == AB
    perm = perm_acs_arrow(fs, swap("a", "b"))
    assert perm(A) == B and perm(fs.top) == fs.top and perm(fs.bot) == fs.bot
    table = {x: perm(x) for x in fs.atomic_elements()}
    tabled = acs_arrow_from_atomic_table(fs, fs, table)
    assert acs_arrows_equal(perm, tabled)
    assert tabled(AB) == AB  # {a}·{b} maps to {b}·{a} = {a,b}
    both = compose_acs_arrows(perm, perm)
    assert acs_arrows_equal(both, ident)


def test_acs_arrows_equal_compares_atomics_too():
    """Equal images on different source atomics, or a table that is a
    prefix of the other, are different arrows."""
    one, two = FiniteSetsAcs(("a",)), FiniteSetsAcs(("a", "b"))
    assert not acs_arrows_equal(identity_acs_arrow(one), identity_acs_arrow(two))
    assert not acs_arrows_equal(identity_acs_arrow(two), identity_acs_arrow(one))
    b_to_a = acs_arrow_from_atomic_table(FiniteSetsAcs(("b",)), one, {B: A})
    assert not acs_arrows_equal(b_to_a, identity_acs_arrow(one))
    assert acs_arrows_equal(identity_acs_arrow(two), identity_acs_arrow(FiniteSetsAcs(("b", "a"))))
