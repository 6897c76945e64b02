"""End-to-end round-trip checks: unit, counit, naturality, triangles."""

from functools import partial

import pytest

from chunkalg import acs, functors, ieutxo
from chunkalg.acs import ChunkAcs, FiniteSetsAcs, Fn, SubstAcs, perm_acs_arrow
from chunkalg.atoms import Permutation
from chunkalg.axioms import oriented_axiom_check
from chunkalg.functors import NotIutxo, check_adjunction, eta, iutxo_embedding_check
from chunkalg.generators import GenConfig, gen_arrow, gen_model, stream
from chunkalg.ieutxo import IeutxoModel, identity_arrow
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


def test_each_represented_model_is_built_once_per_verdict(backbone_model, monkeypatch):
    """G(F(model)), G(inst) and G(F(G(inst))) are built once each, and
    G(F(model)) is G(inst) when ``inst`` is the model's own chunk system:
    the default identity arrows, and a supplied arrow given twice, reuse
    them, and so reuse their blocked-channel analysis.  Each chunk set is
    enumerated once: the model's, the round trip's, and F(G(inst))'s when
    ``inst`` is not the model's own chunk system.  The last count is of
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
    # A chunk system walks its carrier with the masks; functors enumerates.
    count_calls(acs, "walk_chunks", "enumerate_chunks")
    count_calls(functors, "enumerate_chunks")
    count_calls(ieutxo.Chunk, "__post_init__")
    ident = identity_arrow(backbone_model)
    own = partial(ChunkAcs, backbone_model)
    for make, options, expected in (
        (own, {"strict": True}, (2, 16, 2, 49)),
        (own, {}, (2, 16, 2, 49)),
        (own, {"model_arrows": [ident, ident]}, (2, 16, 2, 49)),
        (FiniteSetsAcs, {}, (3, 16, 3, 44)),
    ):
        counts.update(g_object=0, _blocked=0, enumerate_chunks=0, __post_init__=0)
        report = check_adjunction(backbone_model, make(), seed=1, samples=40, **options)
        assert report.ok, options
        assert tuple(counts.values()) == expected, options


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
