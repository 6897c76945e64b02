"""The monoid checker's product table against the frozen reference.

When its pairs and triples are exhaustive and every pair's product is a
sample, ``monoid_axiom_check`` reads each product as the index of that
sample, so its triple and locality loops compose nothing.  Hypothesis draws
whole carriers (shuffled, some with repeated elements), which are closed,
and arbitrary sample lists, which mostly are not, over finite sets,
substitutions, small models' chunk systems and closed instances that each
break one law; the report must equal the reference's, witnesses included,
and a closed exhaustive sample must cost exactly its unit, absorption and
pair products.  On that path each triple law is decided a row ``(i, j)`` at
a time, and a failing row is walked in ``k`` order: carriers that break a
law on more triples or lists than a report keeps witnesses for, over
several rows, pin which witnesses it keeps.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunkalg.acs import ChunkAcs, FiniteSetsAcs, Fn, SubstAcs, Var
from chunkalg.axioms import MAX_WITNESSES, monoid_axiom_check
from chunkalg.generators import GenConfig, gen_model, stream

from test_checker_reference import _cap, counting, ref_monoid_axiom_check


ATOMS = ("a", "b", "c", "d")
ABC = frozenset("abc")


# ---------------------------------------------------------------------------
# Closed carriers that each break one law: finite sets over a, b, c


class _AThenBFails(FiniteSetsAcs):
    """``{a}·{b}`` fails but ``{b}·{a}`` does not: not associative, since
    ``({a}·{b})·{c}`` fails and ``{a}·({b}·{c})`` is ``{a,b,c}``."""

    def mcompose(self, x, y):
        if x == {"a"} and y == {"b"}:
            return self.top
        return super().mcompose(x, y)


class _CBelowA(FiniteSetsAcs):
    """Inclusion, plus ``{c}`` below every set holding ``a``: still a
    partial order, but ``{c} ≤ {a}`` while ``{b,c}`` is not below
    ``{a,b}``, so composition is not monotone."""

    def leq(self, x, y):
        if x == {"c"} and not self.is_top(y) and "a" in y:
            return True
        return super().leq(x, y)


def _swap_ab(x: frozenset) -> frozenset:
    return frozenset({"a": "b", "b": "a"}.get(atom, atom) for atom in x)


class _AOrB(FiniteSetsAcs):
    """Inclusion up to swapping a and b: a preorder in which ``{a}`` and
    ``{b}`` are each below the other, so it is not antisymmetric."""

    def leq(self, x, y):
        if super().leq(x, y):
            return True
        return not self.is_top(x) and not self.is_top(y) and _swap_ab(x) <= y


class _SymmetricDifference(FiniteSetsAcs):
    """Symmetric difference, which never fails: associative, but ``{a}·{a}``
    is the unit, so composition is not increasing."""

    def mcompose(self, x, y):
        if self.is_top(x) or self.is_top(y):
            return self.top
        return x ^ y


class _FullUnionFails(FiniteSetsAcs):
    """Disjoint union that fails when two nonempty sets make up all of
    a, b, c: ``{a}·{b}·{c}`` fails, but no pair of its factors does."""

    def mcompose(self, x, y):
        if x and y and not self.is_top(x) and not self.is_top(y) and x | y == ABC:
            return self.top
        return super().mcompose(x, y)


# Each lawless instance and the law it breaks.
LAWLESS = {
    _AThenBFails: "associative",
    _CBelowA: "monotone",
    _SymmetricDifference: "increasing",
    _AOrB: "partial_order",
    _FullUnionFails: "locality_of_failure",
}


# ---------------------------------------------------------------------------
# Closed carriers that break a law past the witness cap, over several rows

A, B, D = frozenset("a"), frozenset("b"), frozenset("d")


class _AThenAnyB(FiniteSetsAcs):
    """``{a}·y`` fails whenever ``y`` holds b: ``({a}·{c})·{b}`` is
    ``{a,b,c}`` but ``{a}·({c}·{b})`` fails, so over a, b, c, d
    associativity fails on ten triples in six rows."""

    def mcompose(self, x, y):
        if x == A and not self.is_top(y) and "b" in y:
            return self.top
        return super().mcompose(x, y)


class _DBelowAAndB(FiniteSetsAcs):
    """Inclusion, plus ``{d}`` below ``{a}`` and below ``{b}``: not
    transitive, since ``{d} ≤ {a} ≤ {a,b}`` while ``{d}`` is not below
    ``{a,b}`` (six triples in two rows), and not monotone, since ``{d}·{c}``
    is not below ``{a}·{c}``."""

    def leq(self, x, y):
        if x == D and y in (A, B):
            return True
        return super().leq(x, y)


class _AtMostTwoAtoms(FiniteSetsAcs):
    """The sets of at most two of a, b, c, composed by union, which fails
    past two atoms and on ``{a}·{b}``: ``{b}·{a}·{c}`` fails while no pair
    of it fails in list order, only the reversed pair ``{a}·{b}``."""

    def enumerate_carrier(self):
        return [x for x in super().enumerate_carrier() if self.is_top(x) or len(x) <= 2]

    def mcompose(self, x, y):
        if self.is_top(x) or self.is_top(y) or (x == A and y == B) or len(x | y) > 2:
            return self.top
        return x | y


# Each such instance, its universe and the laws it breaks past the cap.
PAST_THE_CAP = {
    _AThenAnyB: ("abcd", ["associative"]),
    _DBelowAAndB: ("abcd", ["partial_order", "monotone"]),
    _AtMostTwoAtoms: ("abc", ["locality_of_failure"]),
}


# ---------------------------------------------------------------------------
# Draws


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["finsets", "subst", "model", "lawless"]))
    if kind == "finsets":
        universe = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=4, unique=True))
        return counting(FiniteSetsAcs)(universe)
    if kind == "subst":
        atoms = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=4, unique=True))
        terms = [Fn("c")] + [Var(a) for a in atoms] + [Fn("f", (Var(a),)) for a in atoms]
        # at most 17 substitutions: (1 + pool size) ** atoms <= 16
        size = max(p for p in (1, 2, 3) if (1 + p) ** len(atoms) <= 16)
        pool = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=size, unique=True))
        return counting(SubstAcs)(atoms, term_pool=pool)
    if kind == "model":
        cfg = GenConfig(seed=draw(st.integers(0, 11)))
        return counting(ChunkAcs)(gen_model(cfg, stream(cfg), name="m", n_txs=3))
    if draw(st.booleans()):
        return counting(draw(st.sampled_from(list(LAWLESS))))(("a", "b", "c"))
    cls = draw(st.sampled_from(list(PAST_THE_CAP)))
    return counting(cls)(tuple(PAST_THE_CAP[cls][0]))


@st.composite
def audits(draw):
    inst = draw(instances())
    carrier = inst.enumerate_carrier()
    if draw(st.booleans()):
        samples = draw(st.permutations(carrier))
        samples += draw(st.lists(st.sampled_from(carrier), max_size=3))
    else:
        samples = draw(st.lists(st.sampled_from(carrier), max_size=len(carrier) + 2))
    n = len(samples)
    return {
        "inst": inst,
        "samples": samples,
        "seed": draw(st.integers(0, 1000)),
        "pair_cap": _cap(draw, n, 2),
        "triple_cap": _cap(draw, n, 3),
        "list_samples": draw(st.integers(0, 400)),
    }


def _closed(inst, samples) -> bool:
    members = set(samples)
    return all(inst.mcompose(x, y) in members for x in samples for y in samples)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(audits())
def test_product_table_matches_the_frozen_reference(a):
    inst, samples = a["inst"], a["samples"]
    args = (a["seed"], a["pair_cap"], a["triple_cap"], a["list_samples"])
    n = len(samples)
    inst.calls.clear()
    new = monoid_axiom_check(inst, samples, *args)
    composed = inst.calls["mcompose"]
    assert new.to_obj() == ref_monoid_axiom_check(inst, samples, *args).to_obj()
    exhaustive = n**2 <= a["pair_cap"] and n**3 <= a["triple_cap"]
    if exhaustive and _closed(inst, samples):
        assert composed == 4 * n + n**2


def test_each_lawless_carrier_breaks_its_law_as_the_reference_does():
    """Each instance above takes the table path on its whole carrier, fails
    the law it is built to break, and reports the reference's witnesses
    (at seed 2 the locality draws meet ``{a}``, ``{b}`` and ``{c}``)."""
    for cls, law in LAWLESS.items():
        inst = counting(cls)(("a", "b", "c"))
        carrier = inst.enumerate_carrier()
        assert _closed(inst, carrier)
        inst.calls.clear()
        new = monoid_axiom_check(inst, carrier, seed=2)
        assert inst.calls["mcompose"] == 4 * len(carrier) + len(carrier) ** 2
        assert not new.result(law).ok, cls.__name__
        assert new.to_obj() == ref_monoid_axiom_check(inst, carrier, seed=2).to_obj()
    antisymmetry = monoid_axiom_check(_AOrB(("a", "b", "c")), carrier).result("partial_order")
    assert ["{s:a}", "{s:b}"] in antisymmetry.witnesses


def test_laws_broken_past_the_witness_cap_keep_the_references_witnesses():
    """Each instance above takes the table path on its whole carrier and
    fails its laws more often than a report keeps witnesses, over at least
    two rows; the kept witnesses and the counts are the reference's.  2,000 lists give the locality carrier ten failing lists
    at seed 2, each of which only a reversed pair would excuse."""
    for cls, (universe, laws) in PAST_THE_CAP.items():
        inst = counting(cls)(tuple(universe))
        carrier = inst.enumerate_carrier()
        n = len(carrier)
        assert _closed(inst, carrier)
        inst.calls.clear()
        new = monoid_axiom_check(inst, carrier, seed=2, list_samples=2000)
        assert inst.calls["mcompose"] == 4 * n + n**2
        assert new.to_obj() == ref_monoid_axiom_check(inst, carrier, seed=2, list_samples=2000).to_obj()
        for law in laws:
            assert len(new.result(law).witnesses) == MAX_WITNESSES, (cls.__name__, law)
