"""End-to-end round-trip checks: unit, counit, naturality, triangles."""

from dataclasses import replace
from functools import partial

import pytest

from chunkalg import acs, functors, ieutxo
from chunkalg.acs import AcsArrow, ChunkAcs, FiniteSetsAcs, Fn, SubstAcs, Var, perm_acs_arrow
from chunkalg.atoms import Permutation
from chunkalg.axioms import oriented_axiom_check
from chunkalg.functors import NotIutxo, check_adjunction, eta, iutxo_embedding_check
from chunkalg.generators import GenConfig, gen_arrow, gen_model, stream
from chunkalg.ieutxo import Chunk, IeutxoArrow, IeutxoModel, ModelError, identity_arrow
from chunkalg.scripts import SpendsAtMostNInputs

from conftest import mk_tx


def test_full_adjunction_on_fixture_model(backbone_model):
    fs = FiniteSetsAcs(("a", "b", "c", "d"))
    arrows = [identity_arrow(backbone_model)]
    report = check_adjunction(
        backbone_model,
        fs,
        seed=1,
        samples=30,
        model_arrows=arrows,
        acs_arrows=[perm_acs_arrow(fs, Permutation.swap("a", "b"))],
    )
    assert report.ok, [r.to_obj() for r in report.results if not r.ok]


def test_adjunction_with_generated_arrows():
    cfg = GenConfig(seed=21)
    rng = stream(cfg)
    model = gen_model(cfg, rng, name="adj", n_txs=4)
    arrows = [identity_arrow(model)] + [gen_arrow(cfg, model, rng=rng) for _ in range(3)]
    su = SubstAcs(("a", "b", "c"), term_pool=(Fn("c"),))
    report = check_adjunction(model, su, seed=2, samples=30, model_arrows=arrows)
    assert report.ok, [r.to_obj() for r in report.results if not r.ok]


def test_adjunction_strict_mode_on_chunks(backbone_model):
    inst = ChunkAcs(backbone_model)
    report = check_adjunction(backbone_model, inst, seed=3, samples=25, strict=True)
    assert report.ok, [r.to_obj() for r in report.results if not r.ok]
    assert report.result("epsilon_bijective_strict").ok


def test_strict_counit_counts_elements_not_labels():
    """``Var("c")`` and ``Fn("c")`` both label as ``c``: the two one-output
    transactions differ, and so do their singleton chunks, though their
    labels agree.  The counit is a bijection, so the strict law passes."""
    txs = tuple(mk_tx([], [("p", datum)]) for datum in (Var("c"), Fn("c")))
    model = IeutxoModel("same-label", txs)
    assert txs[0] != txs[1] and txs[0].label() == txs[1].label()
    report = check_adjunction(model, ChunkAcs(model), seed=0, samples=10, strict=True)
    assert report.ok, [r.to_obj() for r in report.results if not r.ok]
    assert report.result("epsilon_bijective_strict").checked == 2


@pytest.mark.parametrize(
    "mutant, first_check, why",
    [
        # tx still feeds ty in the model, but their swapped images do not compose
        ("swapped", [], ": ({tx}, {ty}) composes only in pair"),
        # refused before any pair table is read, and nothing raises
        (
            "collapsed",
            ["unit not a bijection of the transactions"],
            ": the unit is not a bijection of the transactions",
        ),
    ],
)
def test_a_mutated_unit_fails_the_chunk_set_laws_naming_why(
    pair_model, monkeypatch, mutant, first_check, why
):
    """Both chunk-set laws give their fixed note, then the first pair whose
    seam differs and the side on which it composes, or that the unit is no
    bijection."""
    tx, ty = pair_model.transactions
    real_eta = functors.eta

    def mutated_eta(model):
        et = real_eta(model)
        if model is not pair_model:
            return et
        images = (et.unit[ty], et.unit[tx]) if mutant == "swapped" else (et.unit[tx],) * 2
        return replace(et, unit=dict(zip((tx, ty), images)))

    monkeypatch.setattr(functors, "eta", mutated_eta)
    why = why.format(tx=tx.label(), ty=ty.label())
    report = check_adjunction(pair_model, FiniteSetsAcs(("a", "b")), seed=0, samples=10)
    bij = report.result("eta_bijective_on_chunks")
    assert bij.checked == 2
    assert bij.witnesses == first_check + ["unit image differs from round-trip chunk set" + why]
    iso = iutxo_embedding_check(pair_model, seed=0, samples=10).result("round_trip_isomorphic")
    assert iso.witnesses == ["round-trip chunk sets differ" + why]


def _mutate_unit(monkeypatch, model, images):
    """Make ``functors.eta`` give ``model`` the unit ``images(et.unit)``."""
    real_eta = functors.eta

    def mutated_eta(m):
        et = real_eta(m)
        return replace(et, unit=images(et.unit)) if m is model else et

    monkeypatch.setattr(functors, "eta", mutated_eta)


def test_a_unit_missing_a_transaction_fails_its_laws_naming_it(pair_model, monkeypatch):
    """Mapping a list through a unit that misses ``ty`` fails the three laws
    that map lists through it, each naming ``ty``, and neither checker
    raises."""
    tx, ty = pair_model.transactions
    _mutate_unit(monkeypatch, pair_model, lambda unit: {tx: unit[tx]})
    missing = f"transaction not in the unit's source: {ty.label()}"
    report = check_adjunction(pair_model, FiniteSetsAcs(("a", "b")), seed=0, samples=10)
    embedding = iutxo_embedding_check(pair_model, seed=0, samples=10)
    for law, note in (
        (report.result("eta_preserves_reflects_chunkhood"), "chunkhood not preserved/reflected"),
        (report.result("eta_natural"), "unit naturality square does not commute"),
        (embedding.result("loop_composition_preserved"), "loop image composes differently"),
    ):
        assert law.witnesses and set(law.witnesses) == {f"{note}: {missing}"}, law.law
    assert not report.result("triangle_counit_after_unit_image").ok


def test_a_swapped_unit_names_the_list_and_each_sides_violation(pair_model, monkeypatch):
    """tx feeds ty in the model, but their swapped images compose only as
    ``[ty, tx]``.  Each failure keeps its fixed note and names the list, or
    the pair, with each side's first ``check_chunk`` violation."""
    tx, ty = pair_model.transactions
    _mutate_unit(monkeypatch, pair_model, lambda unit: {tx: unit[ty], ty: unit[tx]})
    et = functors.eta(pair_model)
    forward = ieutxo.check_chunk(et.on_list((tx, ty))).violation
    backward = ieutxo.check_chunk((ty, tx)).violation
    assert forward is not None and backward is not None
    mismatches = {
        f"[{tx.label()}, {ty.label()}] in pair: a chunk; in {et.model.name}: {forward}",
        f"[{ty.label()}, {tx.label()}] in pair: {backward}; in {et.model.name}: a chunk",
    }
    report = check_adjunction(pair_model, FiniteSetsAcs(("a", "b")), seed=0, samples=10)
    pres = report.result("eta_preserves_reflects_chunkhood").witnesses
    assert pres and set(pres) <= {f"chunkhood not preserved/reflected: {m}" for m in mismatches}
    loop = iutxo_embedding_check(pair_model, seed=0, samples=10)
    assert set(loop.result("loop_composition_preserved").witnesses) == {
        f"loop image composes differently: {m}" for m in mismatches
    }


def _dropping_on_element(self, x):
    """A counit that drops the last factor of a represented chunk."""
    if x is ieutxo.FAIL:
        return self.inst.top
    out = self.inst.bot
    for tx in x.txs[:-1] or x.txs:
        out = self.inst.mcompose(out, self.element_of[tx])
    return out


def test_a_counit_dropping_a_factor_names_the_pair_it_fails_on(pair_model, monkeypatch):
    """A counit that drops the last factor of a represented chunk maps
    ``u·v`` short of ``ε(u)·ε(v)``; the monoid-map law's witness keeps its
    fixed note and names both elements."""
    inst = FiniteSetsAcs(("a", "b", "c"))
    monkeypatch.setattr(functors.GModel, "on_element", _dropping_on_element)
    report = check_adjunction(pair_model, inst, seed=0, samples=30)
    hom = report.result("epsilon_monoid_map")
    assert hom.witnesses
    fg = ChunkAcs(functors.g_object(inst).model)
    carrier = fg.enumerate_carrier()
    named = {
        f"counit is not a monoid map: ({fg.label(u)}, {fg.label(v)})": (u, v)
        for u in carrier
        for v in carrier
    }
    for witness in hom.witnesses:
        u, v = named[witness]
        assert not fg.is_top(u) and not fg.is_top(v)


def test_a_counit_dropping_a_factor_names_the_first_colliding_pair(pair_model, monkeypatch):
    """Dropping a factor maps a represented chunk and its prefix alike, so
    the strict counit is no injection; its witness keeps the fixed note and
    names the first two round-trip elements, in carrier order, that collide."""
    monkeypatch.setattr(functors.GModel, "on_element", _dropping_on_element)
    inst = ChunkAcs(pair_model)
    report = check_adjunction(pair_model, inst, seed=0, samples=10, strict=True)
    gm = functors.g_object(inst)
    fg = ChunkAcs(gm.model)
    carrier = fg.enumerate_carrier()
    images = [gm.on_element(x) for x in carrier]
    j = next(j for j, image in enumerate(images) if image in images[:j])
    first, second = carrier[images.index(images[j])], carrier[j]
    assert report.result("epsilon_bijective_strict").witnesses == [
        "counit not injective on enumerated round-trip elements: "
        f"({fg.label(first)}, {fg.label(second)})"
    ]


def test_a_unit_swapped_on_the_represented_model_names_the_transaction_it_moves(
    pair_model, monkeypatch
):
    """With the unit at G(inst) swapping its two images, the triangle on the
    represented model sends its first transaction to the second; the
    witness keeps the fixed note and names the first."""
    real_eta = functors.eta

    def mutated_eta(m):
        et = real_eta(m)
        if m is pair_model:
            return et
        first, second = list(et.unit)
        return replace(et, unit={first: et.unit[second], second: et.unit[first]})

    monkeypatch.setattr(functors, "eta", mutated_eta)
    inst = FiniteSetsAcs(("a", "b"))
    report = check_adjunction(pair_model, inst, seed=0, samples=10)
    moved = functors.g_object(inst).model.transactions[0]
    assert report.result("triangle_unit_after_represented_counit").witnesses == [
        f"triangle on the represented model is not the identity: {moved.label()}"
    ]


def test_a_swapped_unit_names_the_source_transaction_of_the_square(pair_model, monkeypatch):
    """An arrow from ``pair`` onto a copy of it, with the unit at ``pair``
    swapped: the naturality square fails at ``tx``, the first source
    transaction, and the witness keeps the fixed note and names it."""
    tx, ty = pair_model.transactions
    copy = IeutxoModel("copy", pair_model.transactions)
    onto = IeutxoArrow(pair_model, copy, {t: Chunk((t,)) for t in pair_model.transactions})
    _mutate_unit(monkeypatch, pair_model, lambda unit: {tx: unit[ty], ty: unit[tx]})
    report = check_adjunction(
        pair_model, FiniteSetsAcs(("a", "b")), seed=0, samples=10, model_arrows=[onto]
    )
    nat = report.result("eta_natural")
    assert nat.checked == 1
    assert nat.witnesses == [f"unit naturality square does not commute: {tx.label()}"]


class _FirstFactorOnly(FiniteSetsAcs):
    """Finite sets whose factorisation keeps only the first factor."""

    def factor(self, x) -> list:
        return super().factor(x)[:1]


def test_an_instance_losing_factors_names_the_atomics_of_the_square(pair_model):
    """An arrow adding ``c`` to each set is represented through the first
    factor only, so the counit square fails at ``{a}`` and ``{b}`` and holds
    at ``{c}``; each witness keeps the fixed note and names the atomic."""
    inst = _FirstFactorOnly(("a", "b", "c"))
    adds_c = AcsArrow(inst, inst, lambda x: x if inst.is_top(x) else x | {"c"})
    report = check_adjunction(pair_model, inst, seed=0, samples=10, acs_arrows=[adds_c])
    eps_nat = report.result("epsilon_natural")
    assert eps_nat.checked == 3
    assert eps_nat.witnesses == [
        f"counit naturality square does not commute: {inst.label(frozenset(a))}" for a in "ab"
    ]


def test_each_represented_model_is_built_once_per_verdict(backbone_model, monkeypatch):
    """G(F(model)), G(inst) and G(F(G(inst))) are built once each, and
    G(F(model)) is G(inst) when ``inst`` is the model's own chunk system:
    the default identity arrows, and a supplied arrow given twice, reuse
    them, and so reuse their blocked-channel analysis.  Each chunk set is
    enumerated once, for its samples: the model's and F(G(inst))'s.  The
    unit's bijection on chunks reads the two pair tables, so the round trip
    is enumerated only where it is F(G(inst)).  The last count is of
    chunks validated by the ``Chunk`` constructor: the unit looks
    transactions up in its table and builds no chunk to do so, and a chunk
    system's factors and atomic elements are built unvalidated."""
    counts = {"g_object": 0, "_blocked": 0, "enumerate_chunks": 0, "__post_init__": 0}

    def count_calls(module, name, key=None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count_calls(functors, "g_object")
    count_calls(ieutxo, "_blocked")
    # A chunk system walks its carrier with the masks.
    count_calls(acs, "walk_chunks", "enumerate_chunks")
    count_calls(ieutxo.Chunk, "__post_init__")
    ident = identity_arrow(backbone_model)
    own = partial(ChunkAcs, backbone_model)
    for make, options, expected in (
        (own, {"strict": True}, (2, 16, 2, 33)),
        (own, {}, (2, 16, 2, 33)),
        (own, {"model_arrows": [ident, ident]}, (2, 16, 2, 37)),
        (FiniteSetsAcs, {}, (3, 16, 2, 28)),
    ):
        counts.update(g_object=0, _blocked=0, enumerate_chunks=0, __post_init__=0)
        report = check_adjunction(backbone_model, make(), seed=1, samples=40, **options)
        assert report.ok, options
        assert tuple(counts.values()) == expected, options


def test_adjunction_fails_where_represented_factors_are_no_chunk(backbone):
    """With no probe candidates, the represented ``tx2`` and ``tx4`` both
    output at ``d``, so a chunk over both has no represented witness: the
    laws that build one fail, naming the element, and nothing raises."""
    model = IeutxoModel("backbone", backbone, probe_candidates=())
    _, tx2, tx3, tx4 = backbone
    one = IeutxoModel("one", (mk_tx([], [("z", 0)]),))
    into = IeutxoArrow(one, model, {one.transactions[0]: Chunk((tx3, tx2, tx4))})
    inst = ChunkAcs(model)
    report = check_adjunction(model, inst, seed=0, samples=40, model_arrows=[into])
    assert not report.ok
    surj = report.result("epsilon_surjective")
    assert not surj.ok and surj.witnesses[0] == [Chunk((tx3, tx2, tx4)).label()]
    (nat,) = report.result("eta_natural").witnesses
    assert nat.startswith("represented arrow not materialized: factors of ch[")
    with pytest.raises(ModelError, match="represented by no chunk"):
        eta(model).surjectivity_witness(Chunk((tx2, tx4)))


def test_unit_and_counit_need_no_declared_universe(backbone):
    """F and the unit are total: a model declaring no probe candidates gives
    what the same model declaring its enumeration gives."""
    bare = IeutxoModel("m", backbone)
    declared = IeutxoModel("m", backbone, probe_candidates=backbone)
    assert eta(bare).model.transactions == eta(declared).model.transactions
    insts = ChunkAcs(bare), ChunkAcs(declared)
    elements = [inst.sample_elements(30, 1) for inst in insts]
    assert elements[0] == elements[1]
    assert [insts[0].left(x) for x in elements[0]] == [insts[1].left(x) for x in elements[1]]
    reports = [oriented_axiom_check(inst, elems, seed=1) for inst, elems in zip(insts, elements)]
    assert reports[0].to_obj() == reports[1].to_obj()
    reports = [
        check_adjunction(model, inst, seed=1, samples=20, strict=True)
        for model, inst in zip((bare, declared), insts)
    ]
    assert reports[0].ok and reports[0].to_obj() == reports[1].to_obj()


def test_adjunction_reports_every_law(pair_model):
    fs = FiniteSetsAcs(("a", "b"))
    report = check_adjunction(pair_model, fs, seed=4, samples=10)
    laws = {r.law for r in report.results}
    assert {
        "eta_bijective_on_chunks",
        "eta_preserves_reflects_chunkhood",
        "round_trip_model_point_local",
        "triangle_counit_after_unit_image",
        "eta_natural",
        "epsilon_surjective",
        "epsilon_monoid_map",
        "represented_pair_composition",
        "epsilon_natural",
        "triangle_unit_after_represented_counit",
    } <= laws


def test_embedding_check_passes_for_point_local(backbone_model):
    report = iutxo_embedding_check(backbone_model, seed=5)
    assert report.ok


def test_embedding_check_rejects_shapeful_validators():
    shapeful = mk_tx([], [("z", 0, SpendsAtMostNInputs(1))])
    model = IeutxoModel("impure", (shapeful,), probe_candidates=(shapeful,))
    with pytest.raises(NotIutxo):
        iutxo_embedding_check(model)
