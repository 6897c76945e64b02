"""The law checkers: exhaustive passes on shipped instances, and sensitivity
to deliberately broken structure."""

import pytest

from chunkalg.acs import ChunkAcs, FiniteSetsAcs, Fn, SubstAcs, perm_acs_arrow
from chunkalg.atoms import Permutation
from chunkalg.axioms import (
    acs_arrow_check,
    atomic_axiom_check,
    derived_orientation,
    monoid_axiom_check,
    oriented_axiom_check,
    partial_converse_check,
    validate_posi_oracle,
)
from chunkalg.generators import GenConfig, gen_model, stream
from chunkalg.ieutxo import utxi, utxo, stx, blocked_utxi, blocked_utxo, FAIL


@pytest.fixture(scope="module")
def fs():
    return FiniteSetsAcs(("a", "b", "c", "d"))


@pytest.fixture(scope="module")
def su():
    return SubstAcs(("a", "b", "c", "d"), term_pool=(Fn("c"),))


def test_finsets_pass_all(fs):
    carrier = fs.enumerate_carrier()
    assert monoid_axiom_check(fs, carrier).ok
    assert oriented_axiom_check(fs, carrier).ok
    assert atomic_axiom_check(fs, carrier).ok
    assert partial_converse_check(fs, carrier).ok


def test_subst_pass_all(su):
    carrier = su.enumerate_carrier()
    assert monoid_axiom_check(su, carrier).ok
    assert oriented_axiom_check(su, carrier).ok
    assert atomic_axiom_check(su, carrier).ok
    assert partial_converse_check(su, carrier).ok


def test_subst_with_terms_passes_sampled():
    rich = SubstAcs(("a", "b", "c"))
    sample = rich.sample_elements(60, seed=4)
    assert monoid_axiom_check(rich, sample).ok
    assert oriented_axiom_check(rich, sample).ok
    assert atomic_axiom_check(rich, sample).ok


class _UnionNoDisjointness(FiniteSetsAcs):
    """Composition is plain union; the whole universe plays the failure top."""

    def __init__(self, universe):
        super().__init__(universe)
        self.name = "broken-union"
        self.top = frozenset(universe)

    def mcompose(self, x, y):
        return x | y

    def leq(self, x, y):
        return x <= y

    def posi(self, x):
        return frozenset(x) - (frozenset(x) if self.is_top(x) else frozenset())

    def enumerate_carrier(self):
        from itertools import combinations

        return [
            frozenset(c)
            for r in range(len(self.universe) + 1)
            for c in combinations(self.universe, r)
        ]


def test_broken_instance_fails_locality():
    broken = _UnionNoDisjointness(("a", "b", "c"))
    carrier = broken.enumerate_carrier()
    report = monoid_axiom_check(broken, carrier, seed=3)
    # {a}·{b}·{c} hits the top without any failing pair
    assert not report.result("locality_of_failure").ok
    # everything else about plain union is fine
    for law in ("unit", "top_absorbing", "associative", "increasing"):
        assert report.result(law).ok


def test_chunkacs_passes_all_checkers(backbone_model):
    inst = ChunkAcs(backbone_model)
    elems = inst.enumerate_carrier()
    assert monoid_axiom_check(inst, elems).ok
    assert oriented_axiom_check(inst, elems).ok
    assert atomic_axiom_check(inst, elems, strict=True).ok
    assert partial_converse_check(inst, elems).ok


def test_generated_models_pass_strict():
    cfg = GenConfig(seed=17)
    rng = stream(cfg)
    for i in range(4):
        inst = ChunkAcs(gen_model(cfg, rng, name=f"m{i}", n_txs=4))
        elems = inst.sample_elements(40, seed=i)
        probes = inst.sample_elements(16, seed=50 + i)
        assert monoid_axiom_check(inst, elems, pair_cap=2500, triple_cap=4000).ok
        assert oriented_axiom_check(inst, elems, probes=probes, pair_cap=2500).ok
        assert atomic_axiom_check(inst, elems, strict=True, pair_cap=2500).ok
        assert partial_converse_check(inst, elems, probes=probes, pair_cap=2500).ok


def test_posi_oracle_validation(fs, su, backbone_model):
    assert validate_posi_oracle(fs, fs.enumerate_carrier(), seed=1).ok
    assert validate_posi_oracle(su, su.enumerate_carrier()[:40], seed=1).ok
    inst = ChunkAcs(backbone_model)
    assert validate_posi_oracle(inst, inst.enumerate_carrier()[:12], seed=1).ok


def test_derived_orientation_matches_blocked_analysis(backbone_model):
    """Behavioural left/right/up agree with the blocked-channel refinement.

    The probe set must be the renaming closure: the fixed enumeration alone
    can never meet fresh positions, so every interface would look stuck.
    """
    from chunkalg.ieutxo import pos, renamed_probe_chunks

    inst = ChunkAcs(backbone_model)
    elems = [x for x in inst.enumerate_carrier() if x is not FAIL]
    for x in elems[:12]:
        probes = renamed_probe_chunks(pos(x), backbone_model)
        left, right, up = derived_orientation(inst, x, probes)
        assert left == utxi(x) - blocked_utxi(x, backbone_model)
        assert right == utxo(x) - blocked_utxo(x, backbone_model)
        assert up == stx(x) | blocked_utxi(x, backbone_model) | blocked_utxo(
            x, backbone_model
        )
        # and the oracle the instance exposes is exactly that refinement
        assert (inst.left(x), inst.right(x), inst.up(x)) == (left, right, up)


def test_up_composition_axiom_optional(fs):
    carrier = fs.enumerate_carrier()
    rep = oriented_axiom_check(fs, carrier, include_up_composition=True)
    names = [r.law for r in rep.results]
    assert "up_of_composition_bounded" in names
    rep2 = oriented_axiom_check(fs, carrier)
    assert "up_of_composition_bounded" not in [r.law for r in rep2.results]


def test_acs_arrow_checker(fs):
    carrier = fs.enumerate_carrier()
    good = perm_acs_arrow(fs, Permutation.swap("a", "b"))
    assert acs_arrow_check(good, carrier).ok

    from chunkalg.acs import AcsArrow

    # collapsing everything to bot breaks the homomorphism law on overlap
    bad = AcsArrow(fs, fs, lambda x: fs.top if fs.is_top(x) else fs.bot)
    report = acs_arrow_check(bad, carrier)
    assert not report.result("monoid_homomorphism").ok


# ---------------------------------------------------------------------------
# Law lists: each report names its laws in a fixed order

MONOID_LAWS = [
    "unit",
    "top_absorbing",
    "partial_order",
    "bot_bottom_top_top",
    "well_founded_sample",
    "associative",
    "monotone",
    "increasing",
    "locality_of_failure",
]
ORIENTED_LAWS = [
    "posi_finite",
    "posi_empty_iff_unit_or_top",
    "posi_partition",
    "left_right_disjoint",
    "left_right_clash_fails",
    "fresh_commute",
    "fresh_defined",
    "up_clash_fails_both",
    "shared_posi_within_right_left",
    "one_composition_fails_or_fresh",
]
ATOMIC_LAWS = [
    "factor_recomposes",
    "factor_parts_atomic",
    "factor_homomorphism",
    "atomic_factor_is_singleton",
]
ATOMIC_STRICT_LAWS = [
    "factor_homomorphism_literal",
    "factorisation_unique",
    "factor_respects_order",
]
ADJUNCTION_LAWS = [
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
]


def _laws(report):
    return [r.law for r in report.results]


def test_axiom_law_lists_in_order(fs):
    carrier = fs.enumerate_carrier()
    assert _laws(monoid_axiom_check(fs, carrier)) == MONOID_LAWS
    assert _laws(oriented_axiom_check(fs, carrier)) == ORIENTED_LAWS
    assert _laws(oriented_axiom_check(fs, carrier, include_up_composition=True)) == (
        ORIENTED_LAWS + ["up_of_composition_bounded"]
    )
    assert _laws(atomic_axiom_check(fs, carrier, strict=False)) == ATOMIC_LAWS
    assert _laws(atomic_axiom_check(fs, carrier, strict=True)) == (
        ATOMIC_LAWS + ATOMIC_STRICT_LAWS
    )
    assert _laws(partial_converse_check(fs, carrier)) == [
        "freshness_three_way_equivalence"
    ]
    assert _laws(validate_posi_oracle(fs, carrier, seed=1)) == [
        "posi_atoms_defeat_composition",
        "non_posi_atoms_allow_composition",
    ]
    arrow = perm_acs_arrow(fs, Permutation.swap("a", "b"))
    assert _laws(acs_arrow_check(arrow, carrier)) == [
        "fixes_bot_and_top",
        "strictly_below_top_preserved",
        "monoid_homomorphism",
    ]


def test_functor_law_lists_in_order(backbone_model):
    from chunkalg.functors import check_adjunction, iutxo_embedding_check

    inst = ChunkAcs(backbone_model)
    plain = check_adjunction(backbone_model, inst, seed=3, samples=10)
    assert _laws(plain) == ADJUNCTION_LAWS
    strict = check_adjunction(backbone_model, inst, seed=3, samples=10, strict=True)
    assert _laws(strict) == ADJUNCTION_LAWS + ["epsilon_bijective_strict"]
    assert _laws(iutxo_embedding_check(backbone_model, seed=5, samples=10)) == [
        "loop_composition_preserved",
        "round_trip_isomorphic",
    ]


def test_adjunction_fails_its_counit_laws_on_a_broken_instance(pair_model):
    """Plain union is no chunk system, so the counit into it is no monoid
    map and the represented pair law fails; the monoid-map law's witness
    is the note it was checked with, the pair law's the labels of its pair,
    and the other eight laws pass."""
    from chunkalg.functors import check_adjunction

    report = check_adjunction(pair_model, _UnionNoDisjointness(("a", "b", "c")), seed=1, samples=10)
    assert not report.ok
    failed = {law.law: law.witnesses[0] for law in report.results if not law.ok}
    assert failed == {
        "epsilon_monoid_map": "counit is not a monoid map",
        "represented_pair_composition": ["{s:b}", "{s:b}"],
    }
    passed = [law.law for law in report.results if law.ok]
    assert passed == [law for law in ADJUNCTION_LAWS if law not in failed]
    assert len(passed) == 8


class _CountingLeq(FiniteSetsAcs):
    """Finite sets that count order comparisons."""

    def __init__(self, universe):
        super().__init__(universe)
        self.leq_calls = 0

    def leq(self, x, y):
        self.leq_calls += 1
        return super().leq(x, y)


def test_non_strict_atomic_check_skips_the_strict_laws():
    """Without ``strict``, the report lists exactly the four factorisation
    laws and the order law on factors is not evaluated at all."""
    inst = _CountingLeq(("a", "b", "c"))
    report = atomic_axiom_check(inst, inst.enumerate_carrier(), strict=False)
    assert _laws(report) == ATOMIC_LAWS
    assert inst.leq_calls == 0
    strict = atomic_axiom_check(inst, inst.enumerate_carrier(), strict=True)
    assert _laws(strict) == ATOMIC_LAWS + ATOMIC_STRICT_LAWS
    assert inst.leq_calls > 0


def test_checkers_on_no_samples_report_nothing_exercised(su, backbone_model):
    """An empty sample list gives a passing report whose sampled laws are
    marked not exercised, rather than an error."""
    for inst in (su, ChunkAcs(backbone_model)):
        report = monoid_axiom_check(inst, [])
        assert report.ok
        assert not report.result("locality_of_failure").exercised
        for checker in (oriented_axiom_check, atomic_axiom_check, partial_converse_check):
            assert checker(inst, []).ok
