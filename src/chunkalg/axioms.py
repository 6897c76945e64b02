"""Sample-based law checkers for abstract chunk systems.

Each checker takes an instance plus a finite element sample and returns a
report with one entry per law: unit and absorption laws, the partial order,
associativity/monotonicity/increase of composition, pairwise locality of
failure, the orientation axioms, and the factorisation laws.  Pair and
triple laws run exhaustively when the sample is small enough and fall back
to a seeded sample otherwise, so reports are deterministic for a fixed seed.

A checker starts from an empty :class:`AxiomReport` and declares each law
once, through :meth:`AxiomReport.law`, in report order; it checks the law
through the :class:`LawResult` that call returns and returns the report.
An optional law is declared only when it is reported, so a law left out
is never checked.

Within one call a checker reads each sample's data once (its orientation,
its factors, its image under an arrow, its order against every other
sample) and composes each drawn pair once in each order.  The monoid checker
keeps each sample pair's product by index pair in a memo that lives for one
call, so its pair, triple and locality loops compose a pair once between
them.  When its pairs and triples are both exhaustive and every pair's
product is itself a sample (a whole finite carrier, say), it reads each
product as that sample's index: the triple and locality loops then compose
nothing, and the order of two products is read off the sample's order
table.  There each triple law is decided for a row ``(x, y)`` and every
``z`` at once, from whole rows of the product and order tables, and a row
is walked ``z`` by ``z`` only when it fails; locality reads, per sample,
the set of samples its product with which fails.  Only failures are
labelled, on either path.  This assumes that ``mcompose``, ``leq``,
``factor``, the orientation oracles and arrows are functions of their
arguments, as every shipped instance's are, and that elements are
hashable, so that equal products find one index.  Nothing is kept past
the call.  Whether ``x·y`` and ``y·x`` commute up to observation is probed
only when their behaviour keys differ
(:func:`~chunkalg.acs.obs_equiv_probe`): equal elements, and chunks over
the same transactions, are equivalent without a probe.

Well-foundedness of the order is checked as antisymmetry plus acyclicity of
the strict order restricted to the sample; the property is not decidable
abstractly.

The factorisation homomorphism law is checked up to recomposition — the
concatenated factor lists of ``x`` and ``y`` must recompose to ``x·y`` — and
literally as list equality only on perfectly atomic instances.  For a
commutative composition no factor function can satisfy the literal law
(``factor(x·y)`` cannot equal both orders of concatenation), so the
recomposition reading is the one every shipped instance can meet; with
unique factorisations the two readings coincide.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from graphlib import CycleError, TopologicalSorter
from operator import getitem
from typing import Any, Iterable, Iterator, Optional, Sequence

from .atoms import Atom, Permutation, fresh_atoms
from .acs import AcsArrow, AcsInstance, in_leftB, in_rightB, obs_equiv_probe
from .ieutxo import is_sublist


@dataclass
class LawResult:
    """One law of a report: how often it was checked and its first failures.

    With an instance, a failure's witness is the list of labels of the
    elements involved; without one, it is the single note passed along.
    A law checked 0 times passes but is not exercised: its sample never
    met the law's premise, and the report says so.
    """

    law: str
    inst: Optional[AcsInstance] = field(default=None, repr=False, compare=False)
    checked: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    @property
    def exercised(self) -> bool:
        return self.checked > 0

    def check(self, ok: bool, *involved: Any) -> None:
        self.checked += 1
        if not ok and len(self.witnesses) < MAX_WITNESSES:
            if self.inst is None:
                self.witnesses.append(involved[0])
            else:
                self.witnesses.append([self.inst.label(v) for v in involved])

    def passed(self, n: int) -> None:
        """Count ``n`` checks that passed."""
        self.checked += n

    def to_obj(self) -> dict:
        obj = {
            "axiom": self.law,
            "status": "pass" if self.ok else "fail",
            "checked": self.checked,
            "witnesses": self.witnesses,
        }
        if not self.exercised:
            obj["exercised"] = False
        return obj


@dataclass
class AxiomReport:
    instance: str
    kind: str
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def law(self, name: str, inst: Optional[AcsInstance] = None) -> LawResult:
        """Declare a law; it is reported after the laws declared before it."""
        law = LawResult(name, inst)
        self.results.append(law)
        return law

    def result(self, law: str) -> LawResult:
        for r in self.results:
            if r.law == law:
                return r
        raise KeyError(law)

    def to_obj(self) -> dict:
        return {
            "instance": self.instance,
            "kind": self.kind,
            "status": "pass" if self.ok else "fail",
            "laws": [r.to_obj() for r in self.results],
        }


MAX_WITNESSES = 5


def _tuples(samples: Sequence, k: int, seed: int, cap: int) -> Iterable[tuple]:
    """Every ``k``-tuple of the samples when there are at most ``cap`` of
    them, otherwise ``cap`` seeded draws."""
    n = len(samples)
    if n**k <= cap:
        return itertools.product(samples, repeat=k)
    draws = (samples[r] for r in _below(random.Random(seed).getrandbits, n))
    return itertools.islice(zip(*[draws] * k), cap)


def _index_lists(n: int, seed: int, count: int) -> list[list[int]]:
    """``count`` lists of 2 to 5 indices below ``n``: the draws of
    ``rng.randint(2, 5)``, which is ``2 + rng.randrange(4)``, and then of
    that many ``rng.randrange(n)``, from ``rng = random.Random(seed)``."""
    if not n:
        return []
    getrandbits = random.Random(seed).getrandbits
    lengths = (2 + r for r in _below(getrandbits, 4))
    indices = _below(getrandbits, n)
    return [list(itertools.islice(indices, k)) for k in itertools.islice(lengths, count)]


def _below(getrandbits, n: int) -> Iterator[int]:
    """The draws of ``randrange(n)`` off the generator of ``getrandbits``,
    without its layers: CPython takes ``getrandbits(n.bit_length())`` until
    a value is below ``n``."""
    return (r for r in iter(partial(getrandbits, n.bit_length()), None) if r < n)


# ---------------------------------------------------------------------------
# Monoid of chunks


def monoid_axiom_check(
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

    n = len(samples)
    le = [[leq(x, y) for y in samples] for x in samples]
    xy = _Products(samples, mc)
    for i, x in enumerate(samples):
        unit.check(mc(bot, x) == x and mc(x, bot) == x, x)
        absorb.check(inst.is_top(mc(top, x)) and inst.is_top(mc(x, top)), x)
        order.check(le[i][i], x)
        bounds.check(leq(bot, x) and leq(x, top), x)

    # P[i][j] is the index of samples[i]·samples[j], when every pair and
    # triple is checked and every product is a sample; None otherwise.
    P = _product_table(samples, xy) if n**2 <= pair_cap and n**3 <= triple_cap else None

    for i, j in _tuples(range(n), 2, seed + 1, pair_cap):
        x, y = samples[i], samples[j]
        order.check(not (le[i][j] and le[j][i]) or x == y, x, y)
        if P is None:
            z = xy[i, j]
            incr.check(leq(x, z) and leq(y, z), x, y)
        else:
            p = P[i][j]
            incr.check(le[i][p] and le[j][p], x, y)

    if P is None:
        for i, j, k in _tuples(range(n), 3, seed + 2, triple_cap):
            x, y, z = samples[i], samples[j], samples[k]
            assoc.check(mc(xy[i, j], z) == mc(x, xy[j, k]), x, y, z)
            if le[i][j]:
                order.check(not le[j][k] or le[i][k], x, y, z)
                mono.check(leq(xy[i, k], xy[j, k]) and leq(xy[k, i], xy[k, j]), x, y, z)
    else:
        # Each law is decided for a row (i, j) and every k at once; only a
        # failing row is walked k by k, so witnesses keep the triple order.
        ups = [frozenset(k for k, below in enumerate(row) if below) for row in le]
        Pt = [list(col) for col in zip(*P)]
        le_of = le.__getitem__
        related = bad_assoc = bad_order = bad_mono = 0
        for i, x in enumerate(samples):
            Pi, Pti, le_i = P[i], Pt[i], le[i]
            for j, y in enumerate(samples):
                Pj, Ptj, Pij = P[j], Pt[j], P[Pi[j]]
                if Pij != list(map(Pi.__getitem__, Pj)):
                    bad_assoc += 1
                    for k, z in enumerate(samples):
                        assoc.check(Pij[k] == Pi[Pj[k]], x, y, z)
                if not le_i[j]:
                    continue
                related += 1
                if not ups[j] <= ups[i]:
                    bad_order += 1
                    le_j = le[j]
                    for k, z in enumerate(samples):
                        order.check(not le_j[k] or le_i[k], x, y, z)
                if not (
                    all(map(getitem, map(le_of, Pi), Pj))
                    and all(map(getitem, map(le_of, Pti), Ptj))
                ):
                    bad_mono += 1
                    for k, z in enumerate(samples):
                        mono.check(le[Pi[k]][Pj[k]] and le[Pti[k]][Ptj[k]], x, y, z)
        assoc.passed(n * (n * n - bad_assoc))
        order.passed(n * (related - bad_order))
        mono.passed(n * (related - bad_mono))

    wf.check(_acyclic(samples, le))

    # A list is checked, and labelled, only when its product fails and no
    # pair of it (in list order) does; every other list passes.
    lists = _index_lists(n, seed + 3, list_samples)
    bad = 0
    if P is None:
        for ix in lists:
            prod = xy[ix[0], ix[1]]
            for i in ix[2:]:
                prod = mc(prod, samples[i])
            if inst.is_top(prod) and not any(
                inst.is_top(xy[ix[a], ix[b]])
                for a in range(len(ix))
                for b in range(a + 1, len(ix))
            ):
                bad += 1
                local.check(False, *(samples[i] for i in ix))
    else:
        top_at = [inst.is_top(x) for x in samples]
        # tops_after[a]: every b for which samples[a]·samples[b] fails
        tops_after = [frozenset(b for b, p in enumerate(row) if top_at[p]) for row in P]
        for ix in lists:
            p = P[ix[0]][ix[1]]
            for i in ix[2:]:
                p = P[p][i]
            if top_at[p] and not _some_pair_fails(ix, tops_after):
                bad += 1
                local.check(False, *(samples[i] for i in ix))
    local.passed(len(lists) - bad)
    return report


def _some_pair_fails(ix: Sequence[int], tops_after: Sequence[frozenset]) -> bool:
    """Does ``samples[ix[a]]·samples[ix[b]]`` fail for some ``a < b``?"""
    reach: frozenset = frozenset()
    for b in ix:
        if b in reach:
            return True
        reach |= tops_after[b]
    return False


class _Products(dict):
    """``samples[i]·samples[j]`` by index pair ``(i, j)``, each composed on
    first read and kept for the one checker call that builds it."""

    def __init__(self, samples: Sequence, mc):
        super().__init__()
        self.samples, self.mc = samples, mc

    def __missing__(self, key: tuple[int, int]) -> Any:
        i, j = key
        z = self[key] = self.mc(self.samples[i], self.samples[j])
        return z


def _product_table(samples: Sequence, xy: _Products) -> Optional[list[list[int]]]:
    """Each pair's product as the index of an equal sample, or None when
    some product is no sample.  Pairs are composed in the exhaustive pair
    loop's order."""
    index = {x: i for i, x in enumerate(samples)}
    table = [[index.get(xy[i, j]) for j in range(len(samples))] for i in range(len(samples))]
    return None if any(None in row for row in table) else table


def _acyclic(samples: Sequence, le: Sequence[Sequence[bool]]) -> bool:
    """Is the strict order among the samples, read off ``le``, acyclic?"""
    preds = {
        j: [i for i, x in enumerate(samples) if le[i][j] and x != y]
        for j, y in enumerate(samples)
    }
    try:
        TopologicalSorter(preds).prepare()
    except CycleError:
        return False
    return True


# ---------------------------------------------------------------------------
# Orientation


def oriented_axiom_check(
    inst: AcsInstance,
    samples: Sequence,
    seed: int = 0,
    probes: Optional[Sequence] = None,
    pair_cap: int = 20_000,
    include_up_composition: bool = False,
) -> AxiomReport:
    """The five orientation axioms plus their direct consequences.

    ``include_up_composition`` additionally checks the optional axiom
    ``up(x·y) ⊆ up(x) ∪ up(y) ∪ (right(x) ∩ left(y))``, which instances are
    free to satisfy or not; it is off by default.
    """
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

    orient = [(inst.posi(x), inst.left(x), inst.right(x), inst.up(x)) for x in samples]
    for x, (p, left, right, up) in zip(samples, orient):
        finite.check(isinstance(p, frozenset) and len(p) < 10_000, x)
        is_unit_or_top = inst.is_bot(x) or inst.is_top(x)
        empty_iff.check((not p) == is_unit_or_top, x)
        partition.check(
            p == left | right | up and not (up & left) and not (up & right), x
        )
        lr_disjoint.check(not (left & right), x)

    for i, j in _tuples(range(len(samples)), 2, seed + 1, pair_cap):
        x, y = samples[i], samples[j]
        (px, lx, rx, ux), (py, ly, ry, uy) = orient[i], orient[j]
        xy, yx = mc(x, y), mc(y, x)
        if lx & ry:
            clash.check(inst.is_top(xy), x, y)
        if not (px & py):
            fresh_commute.check(obs_equiv_probe(xy, yx, probes, inst), x, y)
            if not inst.is_top(x) and not inst.is_top(y):
                fresh_defined.check(not inst.is_top(xy), x, y)
        else:
            one_fails.check(inst.is_top(xy) or inst.is_top(yx), x, y)
        if ux & py:
            up_fail.check(inst.is_top(xy) and inst.is_top(yx), x, y)
        if not inst.is_top(xy):
            make_link.check((px & py) <= (rx & ly), x, y)
            if include_up_composition:
                up_comp.check(inst.up(xy) <= ux | uy | (rx & ly), x, y)
    return report


# ---------------------------------------------------------------------------
# Atomicity


def atomic_axiom_check(
    inst: AcsInstance,
    samples: Sequence,
    seed: int = 0,
    strict: Optional[bool] = None,
    pair_cap: int = 20_000,
) -> AxiomReport:
    """Factorisation laws; ``strict`` adds the perfectly-atomic ones.

    ``strict`` defaults to the instance's own ``perfectly_atomic`` flag.
    """
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
    factors = [inst.factor(x) for x in non_top]
    for x, parts in zip(non_top, factors):
        recompose.check(product(parts) == x, x)
        atomic_parts.check(all(inst.is_atomic(p) for p in parts), x)
        if inst.is_atomic(x):
            atomic_single.check(parts == [x], x)
        if strict and len(parts) <= 5:
            # any reordering that still recomposes to x would be a second
            # factorisation
            ok = all(
                product(reordered) != x
                for reordered in itertools.islice(itertools.permutations(parts), 121)
                if list(reordered) != parts
            )
            unique.check(ok, x)

    for i, j in _tuples(range(len(non_top)), 2, seed + 1, pair_cap):
        x, y = non_top[i], non_top[j]
        xy = mc(x, y)
        if inst.is_top(xy):
            continue
        cat = factors[i] + factors[j]
        hom.check(product(cat) == xy, x, y)
        if strict:
            hom_literal.check(inst.factor(xy) == cat, x, y)
            if inst.leq(x, y):
                sub.check(is_sublist(factors[i], factors[j]), x, y)
    return report


# ---------------------------------------------------------------------------
# The freshness equivalence


def partial_converse_check(
    inst: AcsInstance,
    samples: Sequence,
    seed: int = 0,
    probes: Optional[Sequence] = None,
    pair_cap: int = 20_000,
) -> AxiomReport:
    """Three-way equivalence for pairs with at least one defined composition:
    disjoint interfaces ⇔ both orders defined ⇔ commuting up to observation."""
    samples = list(samples)
    probes = list(probes) if probes is not None else samples
    report = AxiomReport(inst.name, "partial_converse")
    law = report.law("freshness_three_way_equivalence", inst)
    posis = [inst.posi(x) for x in samples]
    for i, j in _tuples(range(len(samples)), 2, seed, pair_cap):
        x, y = samples[i], samples[j]
        xy, yx = inst.mcompose(x, y), inst.mcompose(y, x)
        if inst.is_top(xy) and inst.is_top(yx):
            continue
        disjoint = not (posis[i] & posis[j])
        both = not inst.is_top(xy) and not inst.is_top(yx)
        commute = obs_equiv_probe(xy, yx, probes, inst)
        law.check(disjoint == both == commute, x, y)
    return report


# ---------------------------------------------------------------------------
# Orientation oracles re-derived from behaviour


def derived_orientation(
    inst: AcsInstance, x: Any, probes: Sequence
) -> tuple[frozenset[Atom], frozenset[Atom], frozenset[Atom]]:
    """(left, right, up) recomputed from composition behaviour over probes.

    An atom of ``x`` points left when some probe mentioning it composes on
    the left, right when one composes on the right, and up otherwise.  Exact
    when the probes realize every connectable counterpart.
    """
    left: set[Atom] = set()
    right: set[Atom] = set()
    p_x = inst.posi(x)
    for y in probes:
        p_y = inst.posi(y)
        if in_leftB(y, x, inst):
            left |= p_x & p_y
        if in_rightB(x, y, inst):
            right |= p_x & p_y
    return frozenset(left), frozenset(right), frozenset(p_x - left - right)


# Sampled permutations fixing each posi atom, and atoms outside posi tried.
PERMS_PER_ATOM = 5
OUTSIDE_ATOMS = 2


def validate_posi_oracle(inst: AcsInstance, samples: Sequence, seed: int = 0) -> AxiomReport:
    """Test the posi oracle against its behavioural definition.

    For ``a`` in ``posi(x)``, every permutation fixing ``a`` must yield a
    copy that fails to compose with ``x`` in both orders (sampled).  For
    atoms outside ``posi(x)``, renaming the whole interface to fresh atoms
    exhibits a successful composition, witnessing that they cannot be
    interface atoms.
    """
    samples = [x for x in samples if not inst.is_top(x) and not inst.is_bot(x)]
    rng = random.Random(seed)
    report = AxiomReport(inst.name, "posi_oracle")
    clash = report.law("posi_atoms_defeat_composition", inst)
    fresh_ok = report.law("non_posi_atoms_allow_composition", inst)
    for x in samples:
        interface = sorted(inst.posi(x))
        if not interface:
            continue
        for a in interface:
            for _ in range(PERMS_PER_ATOM):
                perm = _random_perm_fixing(rng, a, interface)
                moved = inst.act(perm, x)
                clash.check(
                    inst.is_top(inst.mcompose(x, moved))
                    and inst.is_top(inst.mcompose(moved, x)),
                    x,
                )
        for b in fresh_atoms(OUTSIDE_ATOMS, interface, prefix="w"):
            targets = fresh_atoms(len(interface), set(interface) | {b})
            perm = Permutation.extending(dict(zip(interface, targets)))
            moved = inst.act(perm, x)
            fresh_ok.check(
                perm.fixes(b) and not inst.is_top(inst.mcompose(x, moved)),
                x,
            )
    return report


def _random_perm_fixing(
    rng: random.Random, fixed: Atom, interface: Sequence[Atom]
) -> Permutation:
    """A seeded permutation fixing ``fixed``, moving a random slice of the
    rest of the interface to fresh or swapped atoms."""
    movable = [a for a in interface if a != fixed]
    rng.shuffle(movable)
    k = rng.randint(0, len(movable))
    chosen = sorted(movable[:k])
    if rng.random() < 0.5 and len(chosen) >= 2:
        rotated = chosen[1:] + chosen[:1]
        return Permutation.extending(dict(zip(chosen, rotated)))
    targets = fresh_atoms(len(chosen), set(interface) | {fixed}, prefix="v")
    return Permutation.extending(dict(zip(chosen, targets)))


# ---------------------------------------------------------------------------
# Arrow laws


def acs_arrow_check(
    arrow: AcsArrow, samples: Sequence, seed: int = 0, pair_cap: int = 20_000
) -> AxiomReport:
    src, tgt = arrow.source, arrow.target
    report = AxiomReport(f"{src.name}->{tgt.name}", "acs_arrow")
    fixed = report.law("fixes_bot_and_top", src)
    strict_below = report.law("strictly_below_top_preserved", src)
    hom = report.law("monoid_homomorphism", src)
    fixed.check(arrow(src.bot) == tgt.bot and arrow(src.top) == tgt.top)
    samples = list(samples)
    images = [arrow(x) for x in samples]
    for i, j in _tuples(range(len(samples)), 2, seed, pair_cap):
        x, y = samples[i], samples[j]
        if src.leq(x, y) and not src.is_top(y):
            strict_below.check(
                tgt.leq(images[i], images[j]) and not tgt.is_top(images[j]), x, y
            )
        hom.check(tgt.mcompose(images[i], images[j]) == arrow(src.mcompose(x, y)), x, y)
    return report
