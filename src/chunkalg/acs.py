"""Abstract chunk systems: monoids of chunks with orientation and atomicity.

An instance supplies a carrier with a unit ``bot``, an absorbing failure
``top``, a partial order ``leq``, a total composition ``mcompose``, a
factorisation of non-top elements into atomic ones, and orientation oracles
``posi``/``left``/``right``/``up`` assigning each element a finite atom
interface.  The axioms these must satisfy live in :mod:`chunkalg.axioms`;
instances only provide the data.

Each shipped instance is a partial monoid made total by adjoining one
absorbing failure element, an interned
:class:`~chunkalg.ieutxo.TopElement` (a model's chunks share
:data:`~chunkalg.ieutxo.FAIL`), so a top is tested by identity.

Three instances ship:

* :class:`FiniteSetsAcs` — finite atom sets under disjoint union, failing on
  overlap.  Every position points up: nothing ever connects.
* :class:`SubstAcs` — finite substitutions from atoms to first-order terms,
  composed by domain-disjoint union and failing on domain overlap.
* :class:`ChunkAcs` — the chunks of a transaction model with the FAIL top:
  the motivating instance, and the only perfectly atomic one here.  Once
  its carrier is enumerated, two carrier chunks compose by the masks the
  model's chunk walk carries, and their product is the carrier's own chunk;
  every other composition goes through :func:`~chunkalg.ieutxo.compose`.

Observational equivalence (:func:`obs_equiv_probe`) needs no probe where
two elements' behaviour keys are equal (:meth:`AcsInstance.behaviour_key`):
the element itself, or a chunk's set of transactions, which locality makes
a key.

Every instance samples through :meth:`AcsInstance.sample_elements`, so a
law checked on a sample of n checks ``min(n, carrier size)`` distinct
elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .atoms import Atom, Permutation, act, value_label
from .ieutxo import (
    FAIL,
    EMPTY_CHUNK,
    Chunk,
    IeutxoModel,
    TopElement,
    blocked_utxi,
    blocked_utxo,
    chunk_leq,
    compose,
    ledger_sets,
    pos,
    walk_chunks,
)


class AcsInstance:
    """Base interface: subclasses enumerate the carrier and fill in the rest."""

    name: str = "acs"
    perfectly_atomic: bool = False
    bot: Any = None
    top: Any = None

    # -- order and composition
    def leq(self, x: Any, y: Any) -> bool:
        raise NotImplementedError

    def mcompose(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def is_top(self, x: Any) -> bool:
        top = self.top
        # Every shipped instance's top is an interned TopElement (FAIL
        # included), so only an instance whose top is a carrier value needs
        # an equality test.  The shipped instances also test their own top
        # by identity in mcompose and leq, so a subclass that gives one a
        # carrier-valued top overrides both.
        return x is top or (not isinstance(top, TopElement) and x == top)

    def is_bot(self, x: Any) -> bool:
        return x == self.bot

    def behaviour_key(self, x: Any) -> Any:
        """A key that decides observational equivalence where it is equal.

        Contract: two elements with equal keys are equivalent under every
        probe, each composing below the top with exactly the elements the
        other does, on either side.  The key is the element itself, since
        ``mcompose`` is a function of its arguments; a subclass whose
        ``mcompose`` is not must override this.
        """
        return x

    # -- atomicity
    def is_atomic(self, x: Any) -> bool:
        raise NotImplementedError

    def factor(self, x: Any) -> list[Any]:
        raise NotImplementedError

    def atomic_elements(self) -> list[Any]:
        """The finite enumeration of atomic elements this build materializes."""
        raise NotImplementedError

    # -- orientation oracles
    def posi(self, x: Any) -> frozenset[Atom]:
        raise NotImplementedError

    def left(self, x: Any) -> frozenset[Atom]:
        raise NotImplementedError

    def right(self, x: Any) -> frozenset[Atom]:
        raise NotImplementedError

    def up(self, x: Any) -> frozenset[Atom]:
        raise NotImplementedError

    # -- plumbing
    def act(self, perm: Permutation, x: Any) -> Any:
        return act(perm, x)

    def label(self, x: Any) -> str:
        return value_label(x)

    def enumerate_carrier(self) -> list[Any]:
        """The whole carrier, in label order, then the top."""
        raise NotImplementedError

    def sample_elements(self, n: int, seed: int) -> list[Any]:
        """``min(n, carrier size)`` distinct carrier elements.

        The whole carrier, in its order, when it has at most ``n`` elements;
        otherwise bot and top, then ``n - 2`` draws from the carrier seeded
        by ``seed``, a draw of bot or top made up by drawing again, from the
        same generator, among the elements not yet picked.
        """
        carrier = self.enumerate_carrier()
        if n >= len(carrier):
            return carrier
        rng = random.Random(seed)
        ends = [self.bot, self.top]
        drawn = rng.sample(carrier, max(0, n - 2))
        out = ends[:n] + [x for x in drawn if x not in ends]
        if len(out) < n:
            picked = set(out)
            out += rng.sample([x for x in carrier if x not in picked], n - len(out))
        return out


# ---------------------------------------------------------------------------
# Behaviour sets and observational equivalence


def in_leftB(y: Any, x: Any, inst: AcsInstance) -> bool:
    """Membership in the left-behaviour of ``x``: does ``y·x`` avoid the top?"""
    return not inst.is_top(inst.mcompose(y, x))


def in_rightB(x: Any, y: Any, inst: AcsInstance) -> bool:
    """Membership in the right-behaviour of ``x``: does ``x·y`` avoid the top?"""
    return not inst.is_top(inst.mcompose(x, y))


def obs_equiv_probe(
    x: Any, y: Any, probes: Iterable[Any], inst: AcsInstance
) -> bool:
    """Probe-based observational equivalence.

    Two elements with equal :meth:`~AcsInstance.behaviour_key` are
    equivalent under every probe, so equal keys are decided exactly, with
    no probe: for chunks the key is the set of transactions, and by
    locality ``p·x`` is a chunk exactly when its sublists of length at most
    two are, which are the same for every chunk over that set.  Otherwise
    left- and right-behaviour membership must agree on every probe.  Exact
    when the probes cover the reachable carrier; otherwise a sound
    approximation (it can only conflate, never separate, equivalent
    elements).
    """
    if inst.behaviour_key(x) == inst.behaviour_key(y):
        return True
    for p in probes:
        if in_leftB(p, x, inst) != in_leftB(p, y, inst):
            return False
        if in_rightB(x, p, inst) != in_rightB(y, p, inst):
            return False
    return True


# ---------------------------------------------------------------------------
# Finite atom sets


class FiniteSetsAcs(AcsInstance):
    """Finite atom sets; composition is disjoint union, overlap fails."""

    def __init__(self, universe: Sequence[Atom] = ("a", "b", "c", "d")):
        self.universe: tuple[Atom, ...] = tuple(sorted(set(universe)))
        self.name = "finsets"
        self.bot: frozenset[Atom] = frozenset()
        self.top = TopElement("finsets")

    def leq(self, x, y) -> bool:
        top = self.top
        if y is top:
            return True
        if x is top:
            return False
        return x <= y

    def mcompose(self, x, y):
        top = self.top
        if x is top or y is top or x & y:
            return top
        return x | y

    def is_atomic(self, x) -> bool:
        return not self.is_top(x) and len(x) == 1

    def factor(self, x) -> list:
        if self.is_top(x):
            raise ValueError("the top element has no factorisation")
        return [frozenset((a,)) for a in sorted(x)]

    def atomic_elements(self) -> list:
        return [frozenset((a,)) for a in self.universe]

    def posi(self, x) -> frozenset[Atom]:
        return frozenset() if self.is_top(x) else frozenset(x)

    def left(self, x) -> frozenset[Atom]:
        return frozenset()

    def right(self, x) -> frozenset[Atom]:
        return frozenset()

    def up(self, x) -> frozenset[Atom]:
        return self.posi(x)

    def enumerate_carrier(self) -> list:
        sets = [
            frozenset(c)
            for r in range(len(self.universe) + 1)
            for c in combinations(self.universe, r)
        ]
        return sorted(sets, key=self.label) + [self.top]


# ---------------------------------------------------------------------------
# Finite substitutions


@dataclass(frozen=True)
class Var:
    name: Atom

    def rename(self, perm: Permutation) -> "Var":
        return Var(perm(self.name))

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class Fn:
    """A term-former application; 0-ary symbols are constants."""

    symbol: str
    args: tuple = ()

    def rename(self, perm: Permutation) -> "Fn":
        return Fn(self.symbol, tuple(a.rename(perm) for a in self.args))

    def label(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({','.join(a.label() for a in self.args)})"


Term = Any  # Var | Fn


@dataclass(frozen=True, init=False)
class Subst:
    """A finite substitution: a sorted tuple of (atom, term) bindings.

    ``dom``, the set of bound atoms, is built with the bindings and kept.
    """

    bindings: tuple[tuple[Atom, Term], ...]
    dom: frozenset[Atom] = field(compare=False, repr=False)

    def __init__(self, bindings: Iterable[tuple[Atom, Term]] = ()):
        items = sorted(dict(bindings).items())
        object.__setattr__(self, "bindings", tuple(items))
        object.__setattr__(self, "dom", frozenset(a for a, _ in items))

    @classmethod
    def _trusted(cls, bindings: tuple, dom: frozenset[Atom]) -> "Subst":
        """The substitution of ``bindings``, already sorted by distinct
        atoms, whose bound atoms are ``dom``."""
        out = object.__new__(cls)
        object.__setattr__(out, "bindings", bindings)
        object.__setattr__(out, "dom", dom)
        return out

    def mapping(self) -> dict:
        return dict(self.bindings)

    def rename(self, perm: Permutation) -> "Subst":
        return Subst((perm(a), t.rename(perm)) for a, t in self.bindings)

    def label(self) -> str:
        body = ",".join(f"{a}:={t.label()}" for a, t in self.bindings)
        return f"[{body}]"

    def __repr__(self) -> str:
        return f"Subst{self.label()}"


class SubstAcs(AcsInstance):
    """Finite substitutions composed by simultaneous domain-disjoint union.

    Domain overlap is the failure mode.  Composition never rewrites terms,
    so listing bindings in domain order gives a factorisation that is safe
    to reorder.
    """

    def __init__(
        self,
        atoms: Sequence[Atom] = ("a", "b", "c", "d"),
        term_pool: Optional[Sequence[Term]] = None,
    ):
        self.atoms: tuple[Atom, ...] = tuple(sorted(set(atoms)))
        if term_pool is None:
            term_pool = [Fn("c"), Fn("f", (Var(self.atoms[0]),))] if self.atoms else [Fn("c")]
        self.term_pool: tuple[Term, ...] = tuple(dict.fromkeys(term_pool))
        self.name = "subst"
        self.bot = Subst(())
        self.top = TopElement("subst")

    def leq(self, x, y) -> bool:
        """Sub-map order: y extends x."""
        top = self.top
        if y is top:
            return True
        if x is top or not x.dom <= y.dom:
            return False
        ym = y.mapping()
        return all(ym.get(a) == t for a, t in x.bindings)

    def mcompose(self, x, y):
        top = self.top
        if x is top or y is top or x.dom & y.dom:
            return top
        # The domains are disjoint, so sorting the two sorted runs merges
        # them and compares atoms only.
        return Subst._trusted(tuple(sorted(x.bindings + y.bindings)), x.dom | y.dom)

    def is_atomic(self, x) -> bool:
        return not self.is_top(x) and len(x.bindings) == 1

    def factor(self, x) -> list:
        if self.is_top(x):
            raise ValueError("the top element has no factorisation")
        return [Subst((b,)) for b in x.bindings]

    def atomic_elements(self) -> list:
        return [Subst(((a, t),)) for a in self.atoms for t in self.term_pool]

    def posi(self, x) -> frozenset[Atom]:
        return frozenset() if self.is_top(x) else x.dom

    def left(self, x) -> frozenset[Atom]:
        return self.posi(x)

    def right(self, x) -> frozenset[Atom]:
        return frozenset()

    def up(self, x) -> frozenset[Atom]:
        return frozenset()

    def enumerate_carrier(self) -> list:
        out = [
            Subst(tuple((a, t) for a, t in zip(self.atoms, terms) if t is not None))
            for terms in product((None,) + self.term_pool, repeat=len(self.atoms))
        ]
        return sorted(out, key=self.label) + [self.top]


# ---------------------------------------------------------------------------
# Chunks of a model


class CacheInfo(NamedTuple):
    """Orientation-cache statistics, shaped like ``functools``' cache info."""

    hits: int
    misses: int
    currsize: int


class ChunkAcs(AcsInstance):
    """The chunks of a transaction model, with FAIL as the failure top.

    Orientation oracles are computed concretely: positions come straight off
    the transactions, and the left/right/up split refines the ledger sets by
    blocked-channel analysis (an unspent input or output that no probe can
    connect to points up, alongside the spent channels).  The instance
    keeps each chunk's split and, once enumerated, its carrier.

    With the carrier the instance keeps each carrier chunk's two masks, as
    the model's walk yields them (:func:`~chunkalg.ieutxo.walk_chunks`): its
    transactions, and the transactions allowed after each of them.  Validity
    is local, so two carrier chunks compose exactly when the second's mask
    lies in the first's allowed mask, and their product is the carrier's own
    chunk, which carries no index.  Any other operand (a renamed chunk, or
    any composition made before the carrier is enumerated) goes through
    :func:`~chunkalg.ieutxo.compose`.  The per-transaction pair table lives
    on the model; the per-chunk masks live and die with the carrier.
    """

    perfectly_atomic = True

    def __init__(self, model: IeutxoModel):
        self.model = model
        self.name = f"chunks:{model.name}"
        self.bot = EMPTY_CHUNK
        self.top = FAIL
        self._orientation: dict = {}
        self._hits = self._misses = 0
        self._carrier: Optional[list] = None
        # Filled with the carrier: each carrier chunk's (mask, allowed
        # after) pair, and the carrier chunk of each transaction list.
        self._masks: dict = {}
        self._chunk_of: dict = {}

    def leq(self, x, y) -> bool:
        return chunk_leq(x, y)

    def mcompose(self, x, y):
        if x is FAIL or y is FAIL:
            return FAIL
        masks = self._masks
        mx, my = masks.get(x), masks.get(y)
        if mx is None or my is None:
            return compose(x, y)
        if my[0] & ~mx[1]:  # some transaction of y may not follow x
            return FAIL
        return self._chunk_of[x.txs + y.txs]

    def behaviour_key(self, x):
        """A chunk's set of transactions; ``FAIL`` is its own key.

        A list is a chunk exactly when each of its sublists of length at
        most two is (locality), so ``p·x`` is a chunk exactly when ``p·y``
        is, and ``x·p`` when ``y·p``, for any chunks ``x`` and ``y`` over the
        same transactions, on the carrier or off it.
        """
        return x if x is FAIL else frozenset(x.txs)

    def is_atomic(self, x) -> bool:
        return isinstance(x, Chunk) and len(x) == 1

    def factor(self, x) -> list:
        if x is FAIL:
            raise ValueError("the failure element has no factorisation")
        # Every one-transaction sublist of a chunk is a chunk (locality).
        return [Chunk._trusted((tx,)) for tx in x.txs]

    def atomic_elements(self) -> list:
        # The model refuses a transaction that is not a chunk on its own.
        return [Chunk._trusted((tx,)) for tx in self.model.transactions]

    def posi(self, x) -> frozenset[Atom]:
        return frozenset() if x is FAIL else pos(x)

    def _split(self, x: Chunk) -> tuple[frozenset, frozenset, frozenset]:
        cached = self._orientation.get(x)
        if cached is not None:
            self._hits += 1
        else:
            self._misses += 1
            unspent_in, unspent_out, spent = ledger_sets(x)
            dead_in = blocked_utxi(x, self.model)
            dead_out = blocked_utxo(x, self.model)
            cached = (
                unspent_in - dead_in,
                unspent_out - dead_out,
                spent | dead_in | dead_out,
            )
            self._orientation[x] = cached
        return cached

    def cache_info(self) -> CacheInfo:
        """Hits and misses of the orientation cache, which keeps each chunk's
        left/right/up split, and the number of chunks it holds."""
        return CacheInfo(self._hits, self._misses, len(self._orientation))

    def left(self, x) -> frozenset[Atom]:
        return frozenset() if x is FAIL else self._split(x)[0]

    def right(self, x) -> frozenset[Atom]:
        return frozenset() if x is FAIL else self._split(x)[1]

    def up(self, x) -> frozenset[Atom]:
        return frozenset() if x is FAIL else self._split(x)[2]

    def enumerate_carrier(self) -> list:
        """The model's chunks in label order, then FAIL, as a fresh list;
        kept after the first call, since the model is immutable and one
        verdict reads the carrier several times."""
        if self._carrier is None:
            for c, mask, after in walk_chunks(self.model):
                self._masks[c] = (mask, after)
                self._chunk_of[c.txs] = c
            self._carrier = sorted(self._masks, key=self.label) + [FAIL]
        return list(self._carrier)

    # The base sampler.  perfbench/spans.py wraps ``ChunkAcs.sample_elements``
    # through the class dict, and tests/test_tracer_targets.py pins that.
    def sample_elements(self, n: int, seed: int) -> list:
        return super().sample_elements(n, seed)


# ---------------------------------------------------------------------------
# Arrows


@dataclass(eq=False)
class AcsArrow:
    """A carrier map between instances, applied through ``fn``.

    Arrows must fix bot and top, preserve order strictly below the top, and
    be monoid homomorphisms; :func:`chunkalg.axioms.acs_arrow_check` verifies
    this on samples.  An arrow is determined by its action on atomic
    elements, so equality is table equality on the source atomics.
    """

    source: AcsInstance
    target: AcsInstance
    fn: Callable[[Any], Any]

    def __call__(self, x: Any) -> Any:
        return self.fn(x)

    def atomic_table(self) -> list[tuple[Any, Any]]:
        return [(a, self.fn(a)) for a in self.source.atomic_elements()]


def identity_acs_arrow(inst: AcsInstance) -> AcsArrow:
    return AcsArrow(inst, inst, lambda x: x)


def perm_acs_arrow(inst: AcsInstance, perm: Permutation) -> AcsArrow:
    """Renaming along an atom permutation; lawful because every instance
    operation is equivariant."""
    return AcsArrow(inst, inst, lambda x: inst.act(perm, x))


def acs_arrow_from_atomic_table(source: AcsInstance, target: AcsInstance, table: dict) -> AcsArrow:
    """Extend a table on atomics to the whole carrier via factorisation."""

    def fn(x):
        if source.is_top(x):
            return target.top
        if source.is_bot(x):
            return target.bot
        out = target.bot
        for part in source.factor(x):
            out = target.mcompose(out, table[part])
        return out

    return AcsArrow(source, target, fn)


def compose_acs_arrows(f: AcsArrow, g: AcsArrow) -> AcsArrow:
    """The arrow doing ``f`` then ``g``."""
    return AcsArrow(f.source, g.target, lambda x: g.fn(f.fn(x)))


def acs_arrows_equal(f: AcsArrow, g: AcsArrow) -> bool:
    """Arrow equality, decided on the source atomics."""
    return f.atomic_table() == g.atomic_table()
