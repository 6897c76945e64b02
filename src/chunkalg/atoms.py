"""Atoms (position names) and finitely-supported permutations.

Atoms are interned strings with the usual string total order.  That order is
load-bearing: it fixes the canonical ordering of input/output sets, the
listing order of factorisations, and the serialization of every atom set in
the JSON surface.

Permutations are stored as finite maps that are bijections away from the
identity.  They act on every structure in the library through the ``rename``
protocol: a value that mentions atoms implements ``rename(perm)``, reading
``perm`` only by calling it on atoms, and :func:`act` dispatches on it.
Bare strings at the *top level* of ``act`` are treated as atoms; strings
sitting in key/datum slots are opaque scalars and are left alone (see
:func:`act_opaque`).

A value's nominal support, the atoms it mentions, is read off that action
(:func:`support`): renaming is the one place that says where a value's
atoms are, so no value spells its support out separately.
"""

from __future__ import annotations

from typing import Any, Container, Iterable, Mapping

Atom = str


def fresh_atoms(n: int, avoid: Container[Atom], prefix: str = "z") -> list[Atom]:
    """Deterministically mint ``n`` atoms outside ``avoid``.

    Uses a monotone counter suffix, so the same request always yields the
    same names.  The counter never repeats a name, so ``avoid`` is only
    tested for membership, never copied.
    """
    out: list[Atom] = []
    counter = 1
    while len(out) < n:
        cand = f"{prefix}{counter}"
        counter += 1
        if cand not in avoid:
            out.append(cand)
    return out


class Permutation:
    """A bijection on atoms that is the identity outside a finite support."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[Atom, Atom] | Iterable[tuple[Atom, Atom]] = ()):
        m = dict(mapping)
        for a in [a for a, b in m.items() if a == b]:
            del m[a]
        if len(set(m.values())) != len(m):
            raise ValueError("permutation mapping is not injective")
        if set(m.values()) != set(m.keys()):
            raise ValueError("permutation image must equal its domain")
        self._map: dict[Atom, Atom] = m

    def __call__(self, a: Atom) -> Atom:
        return self._map.get(a, a)

    @property
    def support(self) -> frozenset[Atom]:
        return frozenset(self._map)

    def is_identity(self) -> bool:
        return not self._map

    def fixes(self, a: Atom) -> bool:
        return self(a) == a

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: ``self.compose(other)(a) == self(other(a))``."""
        atoms = self.support | other.support
        return Permutation({a: self(other(a)) for a in atoms})

    def invert(self) -> "Permutation":
        return Permutation({b: a for a, b in self._map.items()})

    def graph(self) -> tuple[tuple[Atom, Atom], ...]:
        return tuple(sorted(self._map.items()))

    @classmethod
    def identity(cls) -> "Permutation":
        return cls()

    @classmethod
    def swap(cls, a: Atom, b: Atom) -> "Permutation":
        if a == b:
            return cls()
        return cls({a: b, b: a})

    @classmethod
    def extending(cls, partial: Mapping[Atom, Atom]) -> "Permutation":
        """Complete an injective partial map to a permutation containing it.

        Atoms that appear as targets but not sources are sent back to the
        unused sources, pairing both sides in sorted order.
        """
        m = dict(partial)
        if len(set(m.values())) != len(m):
            raise ValueError("partial map is not injective")
        sources = set(m)
        targets = set(m.values())
        loose_targets = sorted(targets - sources)
        loose_sources = sorted(sources - targets)
        m.update(zip(loose_targets, loose_sources))
        return cls(m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(self.graph())

    def __repr__(self) -> str:
        if not self._map:
            return "Permutation()"
        body = ", ".join(f"{a}->{b}" for a, b in self.graph())
        return f"Permutation({body})"


def swap(a: Atom, b: Atom) -> Permutation:
    return Permutation.swap(a, b)


def act(perm: Permutation, value: Any) -> Any:
    """Rename every atom occurring in ``value``.

    Top-level strings are atoms.  Tuples and lists act elementwise, frozensets
    act memberwise, and any object exposing ``rename`` delegates to it.
    Numbers, booleans and ``None`` carry no atoms.
    """
    if isinstance(value, str):
        return perm(value)
    rename = getattr(value, "rename", None)
    if callable(rename):
        return rename(perm)
    if isinstance(value, (tuple, list)):
        return type(value)(act(perm, v) for v in value)
    if isinstance(value, frozenset):
        return frozenset(act(perm, v) for v in value)
    if isinstance(value, (int, float, bool)) or value is None:
        return value
    raise TypeError(f"no permutation action for {type(value).__name__}")


def act_opaque(perm: Permutation, value: Any) -> Any:
    """Action for key/datum slots: strings there are opaque scalars, not atoms."""
    if isinstance(value, str):
        return value
    return act(perm, value)


NO_ATOMS: frozenset[Atom] = frozenset()


class Atomless:
    """A value that mentions no atom, so every permutation fixes it."""

    __slots__ = ()

    def rename(self, perm: Permutation) -> "Atomless":
        return self


def support(value: Any) -> frozenset[Atom]:
    """The atoms ``value`` mentions: those :func:`act` asks a permutation about.

    Renames ``value`` by a map that records each atom it is called on and
    returns it unchanged.  This relies on one condition of every
    ``rename``: it reads a permutation only by calling it on atoms.  So
    every permutation that fixes the recorded atoms renames the value to
    itself, and the recorded set is the value's support.
    """
    seen: set[Atom] = set()

    def record(a: Atom) -> Atom:
        seen.add(a)
        return a

    act(record, value)
    return frozenset(seen)


def support_opaque(value: Any) -> frozenset[Atom]:
    """Support in key/datum slots, mirroring :func:`act_opaque`: a scalar
    there mentions no atom."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return NO_ATOMS
    return support(value)


def value_label(value: Any) -> str:
    """A deterministic canonical string for any value the library stores.

    Never depends on hash iteration order, so it is stable across runs and
    usable as a sort key and as a serialized element reference.

    A value with a ``label`` method supplies its own.  Transactions and
    chunks compute theirs on first use and keep it on the object, as part
    of the immutable value rather than a cache keyed by input; scripts keep
    none (see :func:`chunkalg.scripts.script_label`), and the other values
    here are labelled afresh, each label being cheap once the chunks inside
    keep theirs.
    """
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, (int, float)):
        return f"n:{value}"
    if value is None:
        return "null"
    label = getattr(value, "label", None)
    if callable(label):
        return label()
    if isinstance(value, frozenset):
        return "{" + ",".join(sorted(value_label(v) for v in value)) + "}"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(value_label(v) for v in value) + "]"
    raise TypeError(f"no canonical label for {type(value).__name__}")
