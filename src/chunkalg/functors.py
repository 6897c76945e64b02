"""The functors between transaction models and abstract chunk systems.

``f_object`` sends every model to its chunk system (chunks plus the
failure top; every model has a probe universe, so the orientation is
defined); ``f_arrow`` extends a transaction table to chunks transactionwise.
``g_object`` represents an abstract chunk system concretely: each
materialized atomic element ``x`` becomes a transaction carrying ``x`` on
every slot, with inputs on the left interface, outputs on the right and up
interfaces, and a composition-probing validator on every output.  Two
transactions of the represented model compose exactly when their elements
do.

The unit and counit are maps of the represented model, ``GModel``.  The
counit at an instance ``A``, read off G(A), collapses represented chunks
back to products of their elements (a surjection; a bijection when the
instance is perfectly atomic).  The unit at a model ``M`` is read off
G(F(M)), which ``eta`` builds at every model: each atomic of F(M) is the
singleton of one transaction, so the unit is a table from ``M``'s
transactions to the represented ones, an arrow of models like any
``IeutxoArrow``.  Extended transactionwise, it is a bijection between the
chunks of ``M`` and those of its round trip.  ``check_adjunction``
verifies it all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional, Sequence

from .acs import AcsArrow, AcsInstance, ChunkAcs, identity_acs_arrow
from .axioms import AxiomReport
from .ieutxo import (
    FAIL,
    Chunk,
    ChunkOrFail,
    IeutxoArrow,
    IeutxoModel,
    Input,
    ModelError,
    Output,
    Transaction,
    arrow_apply,
    arrow_compose,
    arrows_equal,
    enumerate_chunks,
    identity_arrow,
    is_chunk,
    is_iutxo_model,
)
from .scripts import AcsCompose


def f_object(model: IeutxoModel) -> ChunkAcs:
    """The chunk system of a model: chunks under validated concatenation."""
    return ChunkAcs(model)


def f_arrow(f: IeutxoArrow) -> AcsArrow:
    """Chunkwise extension of an arrow: images compose transaction by
    transaction, and the failure element maps to the failure element."""
    return AcsArrow(ChunkAcs(f.source), ChunkAcs(f.target), partial(arrow_apply, f))


# ---------------------------------------------------------------------------
# G: representing an abstract chunk system as a model


@dataclass(eq=False)
class GModel:
    """A represented chunk system: one transaction per materialized atomic.

    ``tx_of`` and ``element_of`` are the two directions of the transaction
    assignment, which is injective because every slot carries its element.

    The counit at ``inst`` is a map of G(inst) (``as_acs_arrow``):
    ``on_element`` collapses a represented chunk to the product of its
    elements.  When ``inst`` is a model's chunk system ``ChunkAcs(M)``,
    G(inst) is G(F(M)), each atomic is the singleton of one transaction of
    ``M``, and ``unit`` reads ``tx_of`` as a table from ``M``'s
    transactions to the represented ones: the unit at ``M``.  ``on_list``
    and ``on_chunk`` extend it transactionwise, ``as_arrow`` is it as an
    arrow, and ``on_element`` undoes it.  For any other instance the table
    is empty, so they raise ``ModelError``.
    """

    inst: AcsInstance
    atomics: tuple
    model: IeutxoModel
    tx_of: dict
    element_of: dict
    unit: dict

    def transaction(self, x: Any) -> Transaction:
        try:
            return self.tx_of[x]
        except KeyError:
            raise ModelError(
                f"element not materialized in {self.model.name}: {self.inst.label(x)}"
            ) from None

    def on_element(self, x: ChunkOrFail) -> Any:
        if x is FAIL:
            return self.inst.top
        out = self.inst.bot
        for tx in x.txs:
            out = self.inst.mcompose(out, self.element_of[tx])
        return out

    def surjectivity_witness(self, x: Any) -> ChunkOrFail:
        """A represented chunk mapping to ``x``; exists for every element
        whose factors are materialized."""
        if self.inst.is_top(x):
            return FAIL
        return Chunk(tuple(self.transaction(y) for y in self.inst.factor(x)))

    def as_acs_arrow(self) -> AcsArrow:
        return AcsArrow(ChunkAcs(self.model), self.inst, self.on_element)

    def on_list(self, txs: Sequence[Transaction]) -> tuple[Transaction, ...]:
        try:
            return tuple(self.unit[tx] for tx in txs)
        except KeyError as exc:
            raise ModelError(
                f"transaction not in the unit's source: {exc.args[0].label()}"
            ) from None

    def on_chunk(self, x: ChunkOrFail) -> ChunkOrFail:
        if x is FAIL:
            return FAIL
        return Chunk(self.on_list(x.txs))

    def as_arrow(self) -> IeutxoArrow:
        if not isinstance(self.inst, ChunkAcs):
            raise ModelError(f"{self.inst.name} is not a model's chunk system")
        table = {tx: Chunk((image,)) for tx, image in self.unit.items()}
        return IeutxoArrow(self.inst.model, self.model, table)


def g_object(inst: AcsInstance) -> GModel:
    """Materialize the represented model over the instance's atomic elements.

    The carrier may be infinite; the materialization boundary is the
    declared (finite) atomic enumeration.
    """
    atomics = tuple(inst.atomic_elements())
    tx_of: dict = {}
    element_of: dict = {}
    for x in atomics:
        ins = tuple(Input(a, x) for a in sorted(inst.left(x)))
        outs = tuple(
            Output(b, x, AcsCompose(x, inst))
            for b in sorted(inst.right(x) | inst.up(x))
        )
        tx = Transaction(ins, outs)
        tx_of[x] = tx
        element_of[tx] = x
    model = IeutxoModel(f"G({inst.name})", tuple(tx_of[x] for x in atomics))
    unit = {x.txs[0]: tx for x, tx in tx_of.items()} if isinstance(inst, ChunkAcs) else {}
    return GModel(inst, atomics, model, tx_of, element_of, unit)


def g_arrow(g: AcsArrow, gm_src: GModel, gm_tgt: GModel) -> IeutxoArrow:
    """The represented arrow: each transaction maps to the chunk of
    transactions of the factors of its element's image."""
    table: dict = {}
    for x in gm_src.atomics:
        image = g(x)
        if g.target.is_top(image):
            raise ModelError("arrows may not send atomics to the failure element")
        parts = [gm_tgt.transaction(y) for y in g.target.factor(image)]
        table[gm_src.tx_of[x]] = Chunk(tuple(parts))
    return IeutxoArrow(gm_src.model, gm_tgt.model, table)


# ---------------------------------------------------------------------------
# Unit


def eta(model: IeutxoModel) -> GModel:
    """The unit at ``model``, as G(F(model)): see :class:`GModel`."""
    return g_object(ChunkAcs(model))


# ---------------------------------------------------------------------------
# The adjunction, checked


def check_adjunction(
    model: IeutxoModel,
    inst: AcsInstance,
    seed: int = 0,
    samples: int = 40,
    strict: bool = False,
    model_arrows: Optional[Sequence[IeutxoArrow]] = None,
    acs_arrows: Optional[Sequence[AcsArrow]] = None,
) -> AxiomReport:
    """Sample-based verification of the whole adjunction package.

    Model side: the unit is a bijection on enumerated chunks, preserves and
    reflects chunkhood, its naturality square commutes for the supplied (or
    default) arrows, the first triangle identity holds, and the round-trip
    model is point-local.  Instance side: the counit is surjective (and in
    strict mode bijective), a monoid map, natural, the second triangle
    identity holds, and represented transactions compose exactly when their
    elements do.  The factorisation used by the represented arrows is the
    instance's own ``factor``; reports carry the materialization boundary.

    Each represented model, G(F(model)), G(inst) and G(F(G(inst))), is
    built once per call, and each chunk set is enumerated once per verdict.
    When ``inst`` is ``model``'s own chunk system, G(F(model)) is built
    from it and serves as G(inst), and its chunk system as F(G(inst)); the
    naturality squares look arrow endpoints up by identity, so the default
    identity arrows reuse them.
    """
    rng = random.Random(seed)
    report = AxiomReport(f"{model.name}|{inst.name}", "adjunction")

    # ---- model side -------------------------------------------------
    own = isinstance(inst, ChunkAcs) and inst.model is model
    et = g_object(inst) if own else eta(model)

    bij = report.law("eta_bijective_on_chunks")
    chunks_src = et.inst.enumerate_carrier()[:-1]  # without FAIL
    image = {et.on_list(c.txs) for c in chunks_src}
    bij.check(len(image) == len(chunks_src), "unit not injective")
    # Enumerated on its own, not mapped from the unit: the law compares them.
    round_trip = ChunkAcs(et.model)
    bij.check(
        image == {c.txs for c in round_trip.enumerate_carrier()[:-1]},
        "unit image differs from round-trip chunk set",
    )

    pres = report.law("eta_preserves_reflects_chunkhood")
    txs = model.transactions
    for _ in range(samples):
        k = rng.randint(0, min(4, len(txs)))
        lst = [txs[rng.randrange(len(txs))] for _ in range(k)]
        pres.check(
            is_chunk(lst) == is_chunk(et.on_list(lst)),
            "chunkhood not preserved/reflected",
        )

    pure = report.law("round_trip_model_point_local")
    pure.check(is_iutxo_model(et.model), "round-trip model has non-local validators")

    tri_f = report.law("triangle_counit_after_unit_image")
    feta = f_arrow(et.as_arrow())
    for x in et.inst.sample_elements(samples, seed + 1):
        tri_f.check(
            et.on_element(feta(x)) == x,
            f"triangle fails at {et.inst.label(x)}",
        )

    nat = report.law("eta_natural")
    arrows = list(model_arrows) if model_arrows is not None else []
    if not arrows:
        arrows = [identity_arrow(model)]
    units = {model: et}
    for f in arrows:
        for m in (f.source, f.target):
            if m not in units:
                units[m] = eta(m)
        et_src, et_tgt = units[f.source], units[f.target]
        gff = g_arrow(f_arrow(f), et_src, et_tgt)
        lhs = {tx: et_tgt.on_list(f(tx).txs) for tx in f.source.transactions}
        rhs = {tx: gff(image).txs for tx, image in et_src.unit.items()}
        nat.check(lhs == rhs, "unit naturality square does not commute")

    # ---- instance side ----------------------------------------------
    gm = et if own else g_object(inst)

    surj = report.law("epsilon_surjective")
    elements = inst.sample_elements(samples, seed + 2)
    for x in elements:
        w = gm.surjectivity_witness(x)
        surj.check(gm.on_element(w) == x, f"no witness for {inst.label(x)}")

    hom = report.law("epsilon_monoid_map")
    fg = round_trip if own else ChunkAcs(gm.model)
    fg_elems = fg.sample_elements(samples, seed + 3)
    for _ in range(samples):
        u = fg_elems[rng.randrange(len(fg_elems))]
        v = fg_elems[rng.randrange(len(fg_elems))]
        hom.check(
            gm.on_element(fg.mcompose(u, v))
            == inst.mcompose(gm.on_element(u), gm.on_element(v)),
            "counit is not a monoid map",
        )

    pair = report.law("represented_pair_composition")
    atoms = gm.atomics
    for _ in range(samples):
        if not atoms:
            break
        x = atoms[rng.randrange(len(atoms))]
        y = atoms[rng.randrange(len(atoms))]
        lhs_ok = is_chunk((gm.tx_of[x], gm.tx_of[y]))
        rhs_ok = not inst.is_top(inst.mcompose(x, y))
        pair.check(
            lhs_ok == rhs_ok,
            f"pair law fails at {inst.label(x)}, {inst.label(y)}",
        )

    eps_nat = report.law("epsilon_natural")
    g_arrows = list(acs_arrows) if acs_arrows is not None else []
    if not g_arrows:
        g_arrows = [identity_acs_arrow(inst)]
    counits = {inst: gm}
    for g in g_arrows:
        for i in (g.source, g.target):
            if i not in counits:
                counits[i] = g_object(i)
        gm_src, gm_tgt = counits[g.source], counits[g.target]
        try:
            fgg = f_arrow(g_arrow(g, gm_src, gm_tgt))
        except ModelError:
            eps_nat.check(False, "represented arrow not materialized")
            continue
        for a in ChunkAcs(gm_src.model).atomic_elements():
            eps_nat.check(
                gm_tgt.on_element(fgg(a)) == g(gm_src.on_element(a)),
                "counit naturality square does not commute",
            )

    tri_g = report.law("triangle_unit_after_represented_counit")
    try:
        et_g = eta(gm.model)
        geps = g_arrow(gm.as_acs_arrow(), et_g, gm)
        composite = arrow_compose(et_g.as_arrow(), geps)
        tri_g.check(
            arrows_equal(composite, identity_arrow(gm.model)),
            "triangle on the represented model is not the identity",
        )
    except ModelError as exc:
        tri_g.check(False, f"materialization failure: {exc}")

    if strict:
        bij_eps = report.law("epsilon_bijective_strict")
        fg_all = fg.enumerate_carrier()
        mapped = [gm.on_element(x) for x in fg_all]
        bij_eps.check(
            len(set(map(inst.label, mapped))) == len(mapped),
            "counit not injective on enumerated round-trip elements",
        )
        bij_eps.check(
            inst.perfectly_atomic, "strict mode on a non-perfectly-atomic instance"
        )

    return report


def adjunction_payload(report: AxiomReport, model: IeutxoModel, inst: AcsInstance) -> dict:
    """Report payload: the law table plus the choices the checks depend on."""
    return {
        "report": report.to_obj(),
        "materialized_atomics": len(inst.atomic_elements()),
        "factor_choice": "instance canonical factorisation",
        "model_transactions": len(model.transactions),
    }


# ---------------------------------------------------------------------------
# The point-local embedding


class NotIutxo(Exception):
    """The model has validators that inspect more than the input-point."""


def iutxo_embedding_check(model: IeutxoModel, seed: int = 0, samples: int = 60) -> AxiomReport:
    """For point-local models: the loop through the abstract side and back
    preserves composition behaviour, and the round trip is isomorphic.

    The inclusion into the full category is the identity on models, so that
    it preserves chunk validity holds by construction and is not counted as
    a check.
    """
    if not is_iutxo_model(model):
        raise NotIutxo(model.name)
    rng = random.Random(seed)
    et = eta(model)
    report = AxiomReport(model.name, "iutxo_embedding")

    txs = model.transactions
    loop = report.law("loop_composition_preserved")
    for _ in range(samples):
        if not txs:
            break
        s = txs[rng.randrange(len(txs))]
        t = txs[rng.randrange(len(txs))]
        loop.check(
            is_chunk((s, t)) == is_chunk(et.on_list((s, t))),
            "loop image composes differently",
        )

    iso = report.law("round_trip_isomorphic")
    chunks_img = {et.on_list(c.txs) for c in et.inst.enumerate_carrier()[:-1]}
    chunks_tgt = {c.txs for c in enumerate_chunks(et.model)}
    iso.check(chunks_img == chunks_tgt, "round-trip chunk sets differ")
    iso.check(is_iutxo_model(et.model), "round-trip not point-local")

    return report
