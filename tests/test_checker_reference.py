"""The pairwise law checkers against frozen copies of their earlier form.

The checkers in ``chunkalg.axioms`` read each sample's data once per call and
compose each drawn pair once in each order.  The earlier checkers called the
instance afresh for every pair and triple, and probed every pair they asked
about commuting; verbatim copies of them, and of that probing loop, are kept
here as the reference.  Hypothesis draws instances, samples, seeds and caps
on both sides of ``n**k`` (so exhaustive and seeded draws both run) and
requires the two reports to be equal.  A counting instance pins how often
each checker calls the instance.
"""

import itertools
import random
from collections import Counter
from functools import wraps
from typing import Any, Iterable, Optional, Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunkalg.acs import (
    AcsArrow,
    AcsInstance,
    ChunkAcs,
    FiniteSetsAcs,
    Fn,
    SubstAcs,
    Var,
    identity_acs_arrow,
    in_leftB,
    in_rightB,
    obs_equiv_probe,
    perm_acs_arrow,
)
from chunkalg.atoms import Permutation
from chunkalg.axioms import (
    AxiomReport,
    _acyclic,
    _index_lists,
    _tuples,
    acs_arrow_check,
    atomic_axiom_check,
    monoid_axiom_check,
    oriented_axiom_check,
    partial_converse_check,
)
from chunkalg.generators import GenConfig, gen_model, stream
from chunkalg.ieutxo import is_sublist

from test_axiom_checkers import _UnionNoDisjointness


# ---------------------------------------------------------------------------
# Frozen reference: the checkers as they were before they read each sample
# once (their code verbatim, apart from the ``ref_`` names)


def ref_obs_equiv_probe(
    x: Any, y: Any, probes: Iterable[Any], inst: AcsInstance
) -> bool:
    """Probe-based observational equivalence, probing every pair: the loop
    as it was before equal behaviour keys were decided without a probe."""
    for p in probes:
        if in_leftB(p, x, inst) != in_leftB(p, y, inst):
            return False
        if in_rightB(x, p, inst) != in_rightB(y, p, inst):
            return False
    return True


def ref_commute_probe(x: Any, y: Any, probes: Iterable[Any], inst: AcsInstance) -> bool:
    """Do ``x·y`` and ``y·x`` agree up to probe-based observation?"""
    return ref_obs_equiv_probe(inst.mcompose(x, y), inst.mcompose(y, x), probes, inst)


def ref_monoid_axiom_check(
    inst: AcsInstance,
    samples: Sequence,
    seed: int = 0,
    pair_cap: int = 40_000,
    triple_cap: int = 125_000,
    list_samples: int = 400,
) -> AxiomReport:
    """Unit, absorption, order, associativity, monotonicity, increase, locality."""
    samples = list(samples)
    leq, mc, top, bot = inst.leq, inst.mcompose, inst.top, inst.bot
    report = AxiomReport(inst.name, "monoid")
    unit = report.law("unit", inst)
    absorb = report.law("top_absorbing", inst)
    order = report.law("partial_order", inst)
    bounds = report.law("bot_bottom_top_top", inst)
    wf = report.law("well_founded_sample", inst)
    assoc = report.law("associative", inst)
    mono = report.law("monotone", inst)
    incr = report.law("increasing", inst)
    local = report.law("locality_of_failure", inst)

    for x in samples:
        unit.check(mc(bot, x) == x and mc(x, bot) == x, x)
        absorb.check(inst.is_top(mc(top, x)) and inst.is_top(mc(x, top)), x)
        order.check(leq(x, x), x)
        bounds.check(leq(bot, x) and leq(x, top), x)

    for x, y in _tuples(samples, 2, seed + 1, pair_cap):
        order.check(not (leq(x, y) and leq(y, x)) or x == y, x, y)
        z = mc(x, y)
        incr.check(leq(x, z) and leq(y, z), x, y)

    for x, y, z in _tuples(samples, 3, seed + 2, triple_cap):
        assoc.check(mc(mc(x, y), z) == mc(x, mc(y, z)), x, y, z)
        if leq(x, y):
            order.check(not leq(y, z) or leq(x, z), x, y, z)
            mono.check(leq(mc(x, z), mc(y, z)) and leq(mc(z, x), mc(z, y)), x, y, z)

    # acyclicity of the strict order on the sample
    strict = {
        (i, j)
        for i, x in enumerate(samples)
        for j, y in enumerate(samples)
        if x != y and leq(x, y)
    }
    wf.check(ref_acyclic(strict, len(samples)))

    rng = random.Random(seed + 3)
    n = len(samples)
    for _ in range(list_samples if n else 0):
        k = rng.randint(2, 5)
        xs = [samples[rng.randrange(n)] for _ in range(k)]
        prod = xs[0]
        for item in xs[1:]:
            prod = mc(prod, item)
        if inst.is_top(prod):
            some_pair = any(
                inst.is_top(mc(xs[i], xs[j]))
                for i in range(k)
                for j in range(i + 1, k)
            )
            local.check(some_pair, *xs)
        else:
            local.check(True)
    return report


def ref_acyclic(edges: set, n: int) -> bool:
    color = [0] * n
    adj: dict[int, list[int]] = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)

    def visit(i: int) -> bool:
        if color[i] == 1:
            return False
        if color[i] == 2:
            return True
        color[i] = 1
        for j in adj.get(i, ()):
            if not visit(j):
                return False
        color[i] = 2
        return True

    return all(visit(i) for i in range(n))


def ref_oriented_axiom_check(
    inst: AcsInstance,
    samples: Sequence,
    seed: int = 0,
    probes: Optional[Sequence] = None,
    pair_cap: int = 20_000,
    include_up_composition: bool = False,
) -> AxiomReport:
    samples = list(samples)
    probes = list(probes) if probes is not None else samples
    mc = inst.mcompose
    report = AxiomReport(inst.name, "oriented")
    finite = report.law("posi_finite", inst)
    empty_iff = report.law("posi_empty_iff_unit_or_top", inst)
    partition = report.law("posi_partition", inst)
    lr_disjoint = report.law("left_right_disjoint", inst)
    clash = report.law("left_right_clash_fails", inst)
    fresh_commute = report.law("fresh_commute", inst)
    fresh_defined = report.law("fresh_defined", inst)
    up_fail = report.law("up_clash_fails_both", inst)
    make_link = report.law("shared_posi_within_right_left", inst)
    one_fails = report.law("one_composition_fails_or_fresh", inst)
    if include_up_composition:
        up_comp = report.law("up_of_composition_bounded", inst)

    for x in samples:
        p = inst.posi(x)
        left, right, up = inst.left(x), inst.right(x), inst.up(x)
        finite.check(isinstance(p, frozenset) and len(p) < 10_000, x)
        is_unit_or_top = inst.is_bot(x) or inst.is_top(x)
        empty_iff.check((not p) == is_unit_or_top, x)
        partition.check(
            p == left | right | up and not (up & left) and not (up & right), x
        )
        lr_disjoint.check(not (left & right), x)

    for x, y in _tuples(samples, 2, seed + 1, pair_cap):
        px, py = inst.posi(x), inst.posi(y)
        xy = mc(x, y)
        if inst.left(x) & inst.right(y):
            clash.check(inst.is_top(xy), x, y)
        if not (px & py):
            fresh_commute.check(ref_commute_probe(x, y, probes, inst), x, y)
            if not inst.is_top(x) and not inst.is_top(y):
                fresh_defined.check(not inst.is_top(xy), x, y)
        else:
            one_fails.check(
                inst.is_top(xy) or inst.is_top(mc(y, x)), x, y
            )
        if inst.up(x) & py:
            up_fail.check(inst.is_top(xy) and inst.is_top(mc(y, x)), x, y)
        if not inst.is_top(xy):
            make_link.check(
                (px & py) <= (inst.right(x) & inst.left(y)), x, y
            )
            if include_up_composition:
                up_comp.check(
                    inst.up(xy)
                    <= inst.up(x) | inst.up(y) | (inst.right(x) & inst.left(y)),
                    x,
                    y,
                )
    return report


def ref_atomic_axiom_check(
    inst: AcsInstance,
    samples: Sequence,
    seed: int = 0,
    strict: Optional[bool] = None,
    pair_cap: int = 20_000,
) -> AxiomReport:
    samples = list(samples)
    if strict is None:
        strict = inst.perfectly_atomic
    mc = inst.mcompose
    report = AxiomReport(inst.name, "atomic")
    recompose = report.law("factor_recomposes", inst)
    atomic_parts = report.law("factor_parts_atomic", inst)
    hom = report.law("factor_homomorphism", inst)
    atomic_single = report.law("atomic_factor_is_singleton", inst)
    if strict:
        hom_literal = report.law("factor_homomorphism_literal", inst)
        unique = report.law("factorisation_unique", inst)
        sub = report.law("factor_respects_order", inst)

    def product(parts: Sequence) -> Any:
        out = inst.bot
        for part in parts:
            out = mc(out, part)
        return out

    non_top = [x for x in samples if not inst.is_top(x)]
    for x in non_top:
        parts = inst.factor(x)
        recompose.check(product(parts) == x, x)
        atomic_parts.check(all(inst.is_atomic(p) for p in parts), x)
        if inst.is_atomic(x):
            atomic_single.check(inst.factor(x) == [x], x)
        if strict and len(parts) <= 5:
            # any reordering that still recomposes to x would be a second
            # factorisation
            ok = all(
                product(reordered) != x
                for reordered in itertools.islice(itertools.permutations(parts), 121)
                if list(reordered) != parts
            )
            unique.check(ok, x)

    for x, y in _tuples(non_top, 2, seed + 1, pair_cap):
        xy = mc(x, y)
        if inst.is_top(xy):
            continue
        cat = inst.factor(x) + inst.factor(y)
        hom.check(product(cat) == xy, x, y)
        if strict:
            hom_literal.check(inst.factor(xy) == cat, x, y)
            if inst.leq(x, y):
                sub.check(is_sublist(inst.factor(x), inst.factor(y)), x, y)
    return report


def ref_partial_converse_check(
    inst: AcsInstance,
    samples: Sequence,
    seed: int = 0,
    probes: Optional[Sequence] = None,
    pair_cap: int = 20_000,
) -> AxiomReport:
    samples = list(samples)
    probes = list(probes) if probes is not None else samples
    report = AxiomReport(inst.name, "partial_converse")
    law = report.law("freshness_three_way_equivalence", inst)
    for x, y in _tuples(samples, 2, seed, pair_cap):
        xy, yx = inst.mcompose(x, y), inst.mcompose(y, x)
        if inst.is_top(xy) and inst.is_top(yx):
            continue
        disjoint = not (inst.posi(x) & inst.posi(y))
        both = not inst.is_top(xy) and not inst.is_top(yx)
        commute = ref_commute_probe(x, y, probes, inst)
        law.check(disjoint == both == commute, x, y)
    return report


def ref_acs_arrow_check(
    arrow: AcsArrow, samples: Sequence, seed: int = 0, pair_cap: int = 20_000
) -> AxiomReport:
    src, tgt = arrow.source, arrow.target
    report = AxiomReport(f"{src.name}->{tgt.name}", "acs_arrow")
    fixed = report.law("fixes_bot_and_top", src)
    strict_below = report.law("strictly_below_top_preserved", src)
    hom = report.law("monoid_homomorphism", src)
    fixed.check(arrow(src.bot) == tgt.bot and arrow(src.top) == tgt.top)
    samples = list(samples)
    for x, y in _tuples(samples, 2, seed, pair_cap):
        if src.leq(x, y) and not src.is_top(y):
            strict_below.check(
                tgt.leq(arrow(x), arrow(y)) and not tgt.is_top(arrow(y)), x, y
            )
        hom.check(
            tgt.mcompose(arrow(x), arrow(y)) == arrow(src.mcompose(x, y)), x, y
        )
    return report


# ---------------------------------------------------------------------------
# Lawless instances: each breaks a law whose check reads the shared tables


class _EverythingBelow(FiniteSetsAcs):
    """Finite sets whose order relates every pair: a cycle on any two
    distinct samples, and factors that need not respect the order."""

    def __init__(self, universe):
        super().__init__(universe)
        self.name = "everything-below"

    def leq(self, x, y):
        return True


class _NearBySize(FiniteSetsAcs):
    """Finite sets ordered by size, one step up at most: reflexive but
    neither antisymmetric nor transitive."""

    def __init__(self, universe):
        super().__init__(universe)
        self.name = "near-by-size"

    def leq(self, x, y):
        if self.is_top(x) or self.is_top(y):
            return self.is_top(y)
        return len(x) <= len(y) <= len(x) + 1


def _model_acs(seed: int) -> ChunkAcs:
    cfg = GenConfig(seed=seed)
    return ChunkAcs(gen_model(cfg, stream(cfg), name=f"m{seed}", n_txs=3))


INSTANCES = {
    "finsets": lambda s: FiniteSetsAcs(("a", "b", "c", "d")[: 2 + s % 3]),
    "subst": lambda s: SubstAcs(("a", "b", "c")[: 2 + s % 2], term_pool=(Fn("c"), Var("a"))),
    "model": _model_acs,
    "broken-union": lambda s: _UnionNoDisjointness(("a", "b", "c")),
    "everything-below": lambda s: _EverythingBelow(("a", "b", "c")),
    "near-by-size": lambda s: _NearBySize(("a", "b", "c")),
}


def _arrow(inst: AcsInstance, kind: int) -> AcsArrow:
    if kind == 0:
        return identity_acs_arrow(inst)
    if kind == 1 and isinstance(inst, FiniteSetsAcs):
        return perm_acs_arrow(inst, Permutation.swap("a", "b"))
    # collapsing everything below the top to bot breaks the homomorphism law
    return AcsArrow(inst, inst, lambda x: inst.top if inst.is_top(x) else inst.bot)


def _cap(draw, n: int, k: int) -> int:
    """A cap at or above ``n**k`` (exhaustive) or below it (seeded draws)."""
    if n == 0 or draw(st.booleans()):
        return n**k + draw(st.integers(0, 3))
    return draw(st.integers(0, n**k - 1))


@st.composite
def audits(draw):
    name = draw(st.sampled_from(sorted(INSTANCES)))
    inst = INSTANCES[name](draw(st.integers(0, 5)))
    carrier = inst.enumerate_carrier()
    samples = draw(st.lists(st.sampled_from(carrier), max_size=9))
    probes = draw(
        st.one_of(st.none(), st.lists(st.sampled_from(carrier), max_size=6))
    )
    n = len(samples)
    return {
        "inst": inst,
        "samples": samples,
        "probes": probes,
        "seed": draw(st.integers(0, 1000)),
        "pair_cap": _cap(draw, n, 2),
        "triple_cap": _cap(draw, n, 3),
        "arrow": _arrow(inst, draw(st.integers(0, 2))),
    }


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(audits())
def test_checkers_match_the_frozen_reference(a):
    inst, samples, seed = a["inst"], a["samples"], a["seed"]
    pair_cap, probes = a["pair_cap"], a["probes"]
    pairs = [
        (
            monoid_axiom_check(
                inst, samples, seed, pair_cap, a["triple_cap"], list_samples=40
            ),
            ref_monoid_axiom_check(
                inst, samples, seed, pair_cap, a["triple_cap"], list_samples=40
            ),
        ),
        (
            oriented_axiom_check(inst, samples, seed, probes, pair_cap, True),
            ref_oriented_axiom_check(inst, samples, seed, probes, pair_cap, True),
        ),
        (
            partial_converse_check(inst, samples, seed, probes, pair_cap),
            ref_partial_converse_check(inst, samples, seed, probes, pair_cap),
        ),
        (
            acs_arrow_check(a["arrow"], samples, seed, pair_cap),
            ref_acs_arrow_check(a["arrow"], samples, seed, pair_cap),
        ),
    ]
    for strict in (False, True):
        pairs.append(
            (
                atomic_axiom_check(inst, samples, seed, strict, pair_cap),
                ref_atomic_axiom_check(inst, samples, seed, strict, pair_cap),
            )
        )
    for new, ref in pairs:
        assert new.to_obj() == ref.to_obj()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.booleans(), min_size=6, max_size=6), min_size=0, max_size=6)
)
def test_acyclic_matches_the_frozen_search(rows):
    """Samples 0..n-1 all distinct, so every true off-diagonal entry is an
    edge of the strict order."""
    n = len(rows)
    le = [row[:n] for row in rows]
    edges = {(i, j) for i in range(n) for j in range(n) if i != j and le[i][j]}
    assert _acyclic(list(range(n)), le) == ref_acyclic(edges, n)


# ---------------------------------------------------------------------------
# Laws that the lawless instances break


def test_an_order_relating_every_pair_is_cyclic():
    inst = _EverythingBelow(("a", "b", "c"))
    report = monoid_axiom_check(inst, inst.enumerate_carrier())
    assert not report.result("well_founded_sample").ok
    strict = atomic_axiom_check(inst, inst.enumerate_carrier(), strict=True)
    assert not strict.result("factor_respects_order").ok


def test_transitivity_reads_the_first_and_last_sample():
    """{} ≤ {a} ≤ {a,b} but not {} ≤ {a,b}; sizes differ, so the order is
    antisymmetric on these samples and each witness is a triple."""
    inst = _NearBySize(("a", "b", "c"))
    samples = [frozenset(), frozenset("a"), frozenset("ab")]
    order = monoid_axiom_check(inst, samples).result("partial_order")
    assert order.witnesses == [[inst.label(x) for x in samples]]


# ---------------------------------------------------------------------------
# How often each checker calls the instance


COUNTED = ("mcompose", "leq", "factor", "posi", "left", "right", "up")


def counting(cls):
    """A subclass of ``cls`` that counts the calls its checker makes to each
    method in COUNTED; a call made inside another counted method is the
    instance's own business and is not counted."""

    class Counting(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = Counter()
            self._depth = 0

    def counted(name):
        method = getattr(cls, name)

        @wraps(method)
        def wrapper(self, *args):
            if self._depth == 0:
                self.calls[name] += 1
            self._depth += 1
            try:
                return method(self, *args)
            finally:
                self._depth -= 1

        return wrapper

    for name in COUNTED:
        setattr(Counting, name, counted(name))
    return Counting


def _counted_instances():
    fs = counting(FiniteSetsAcs)(("a", "b", "c", "d"))
    cfg = GenConfig(seed=17)
    model = gen_model(cfg, stream(cfg), name="m", n_txs=4)
    return [fs, counting(ChunkAcs)(model)]


def _drawn(n: int, k: int, seed: int, cap: int) -> list:
    return list(_tuples(range(n), k, seed, cap))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 20, 100])
def test_seeded_draws_are_randrange_draws(n, k):
    """Below ``n**k`` tuples, ``_tuples`` draws each index as
    ``random.Random(seed).randrange(n)`` does, in order; the golden reports
    were made with those draws, so a Python whose ``randrange`` draws
    differently fails here rather than changing the reports silently."""
    samples = [f"s{i}" for i in range(n)]
    for seed in (0, 1, 202):
        cap = min(n**k - 1, 300)
        rng = random.Random(seed)
        want = [tuple(samples[rng.randrange(n)] for _ in range(k)) for _ in range(cap)]
        assert list(_tuples(samples, k, seed, cap)) == want
        assert list(_tuples(samples, k, seed, n**k)) == list(itertools.product(samples, repeat=k))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 20, 33])
def test_locality_lists_are_randint_then_randrange_draws(n):
    """``_index_lists`` draws each list's length as
    ``random.Random(seed).randint(2, 5)`` does and then its indices as
    ``randrange(n)`` does, from one stream; the golden reports' locality
    lists were made with those draws, so a Python whose ``randint`` draws
    differently fails here rather than changing the reports silently."""
    for seed in (3, 4, 205):
        rng = random.Random(seed)
        want = [[rng.randrange(n) for _ in range(rng.randint(2, 5))] for _ in range(400)]
        assert _index_lists(n, seed, 400) == want
    assert _index_lists(0, 3, 400) == []


@pytest.mark.parametrize("cap", [10_000, 60])
def test_each_drawn_pair_is_composed_once_in_each_order(cap):
    for inst in _counted_instances():
        samples = inst.enumerate_carrier()[:17]
        n = len(samples)
        pairs = len(_drawn(n, 2, 1, cap))
        inst.calls.clear()
        oriented_axiom_check(inst, samples, probes=[], pair_cap=cap)
        assert inst.calls["mcompose"] == 2 * pairs
        for oracle in ("posi", "left", "right", "up"):
            assert inst.calls[oracle] == n
        inst.calls.clear()
        partial_converse_check(inst, samples, probes=[], pair_cap=cap)
        assert inst.calls["mcompose"] == 2 * len(_drawn(n, 2, 0, cap))
        assert inst.calls["posi"] == n


@pytest.mark.parametrize("cap", [10_000, 60])
def test_each_sample_is_factored_once(cap):
    for inst in _counted_instances():
        samples = inst.enumerate_carrier()[:17]
        non_top = [x for x in samples if not inst.is_top(x)]
        defined = sum(
            not inst.is_top(inst.mcompose(non_top[i], non_top[j]))
            for i, j in _drawn(len(non_top), 2, 1, cap)
        )
        inst.calls.clear()
        atomic_axiom_check(inst, samples, strict=False, pair_cap=cap)
        assert inst.calls["factor"] == len(non_top)
        inst.calls.clear()
        atomic_axiom_check(inst, samples, strict=True, pair_cap=cap)
        assert inst.calls["factor"] == len(non_top) + defined


def test_monoid_check_reads_the_order_once_per_sample_pair():
    """The order among samples is one n×n table, and each index pair is
    composed once.

    On the 17-element finite-set carrier, which is closed under composition,
    the checker composes 4·17 unit and absorption products and the 17² pair
    products, each of which it then reads as a sample index: 357 calls.  It
    asks the order for the 17² table and the 2·17 bounds: 323 calls.  The
    reference asks the instance afresh for every law it reads.

    Without the top, the 16 samples are not closed ({a}·{a} fails), so
    the loops compose: 4·16 unit and absorption products, 16² pair
    products, two outer associativity products per triple (16³ of them)
    and 633 locality folds past their first pair.  The order is the 16²
    table, the 2·16 bounds, two reads per pair for increase and two per
    triple whose first two samples are ordered (81·16 of them) for
    monotonicity."""
    fs = counting(FiniteSetsAcs)(("a", "b", "c", "d"))
    carrier = fs.enumerate_carrier()
    counts = []
    for samples in (carrier, carrier[:-1]):
        fs.calls.clear()
        monoid_axiom_check(fs, samples)
        new = Counter(fs.calls)
        fs.calls.clear()
        ref_monoid_axiom_check(fs, samples)
        counts.append((new["mcompose"], fs.calls["mcompose"], new["leq"], fs.calls["leq"]))
    assert counts[0] == (4 * 17 + 17**2, 28_208, 17**2 + 2 * 17, 11_553)
    assert counts[1] == (
        4 * 16 + 16**2 + 2 * 16**3 + 633,
        23_460,
        16**2 + 2 * 16 + 2 * 16**2 + 2 * 81 * 16,
        9_377,
    )


def test_equal_behaviour_keys_need_no_probe():
    """Finite sets commute, so ``x·y`` and ``y·x`` are one element whenever
    either is defined, and both are the top otherwise: with the carrier as
    probes the orientation and freshness checkers compose each of the 17²
    pairs once in each order and probe none, where the probing loop made
    thousands of compositions more for the same reports."""
    fs = counting(FiniteSetsAcs)(("a", "b", "c", "d"))
    carrier = fs.enumerate_carrier()
    assert obs_equiv_probe(frozenset("ab"), frozenset("ba"), carrier, fs)
    assert obs_equiv_probe(fs.top, fs.top, carrier, fs)
    assert fs.calls["mcompose"] == 0
    for check, ref, counts in (
        (oriented_axiom_check, ref_oriented_axiom_check, (578, 8_444)),
        (partial_converse_check, ref_partial_converse_check, (578, 6_248)),
    ):
        fs.calls.clear()
        new = check(fs, carrier, probes=carrier)
        n_new = fs.calls["mcompose"]
        fs.calls.clear()
        old = ref(fs, carrier, probes=carrier)
        assert (n_new, fs.calls["mcompose"]) == counts
        assert new.to_obj() == old.to_obj()


def test_monoid_products_keep_their_operand_order():
    """A model's chunk system does not commute, so the product memo must be
    read in operand order for the report to match the reference."""
    inst = _counted_instances()[1]
    samples = inst.sample_elements(12, seed=2)
    assert any(
        inst.mcompose(x, y) != inst.mcompose(y, x) for x in samples for y in samples
    )
    for seed, caps in ((0, {}), (5, {"pair_cap": 60, "triple_cap": 200})):
        new = monoid_axiom_check(inst, samples, seed, **caps)
        assert new.ok
        assert new.to_obj() == ref_monoid_axiom_check(inst, samples, seed, **caps).to_obj()
