"""Validator scripts: a closed, serializable DSL with a decidable denotation.

A script denotes a total predicate over ``(datum, pointed transaction)``,
where the datum is the local state carried on the output that owns the
script.  Scripts are compared by plain dataclass equality, so
extensionally equal but structurally distinct scripts (``And(a, b)`` and
``And(b, a)``, or ``Not(Not(a))`` and ``a``) count as distinct validators;
that refinement is deliberate and keeps validator identity decidable.
Each node's ``rename`` says where its atoms are, and its support is read
off that (:func:`chunkalg.atoms.support`): ``input_position_in`` mentions
its positions, a key or datum its atoms (strings there are opaque, those
inside a tuple are atoms), and ``acs_compose`` everything in its element.

A script is *point-local* (UTxO-style) when its decision depends only on the
datum and on the distinguished input: every node kind here is point-local
except ``SpendsAtMostNInputs``, which inspects the shape of the whole
spending transaction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Union

from .atoms import Atom, Atomless, act_opaque, value_label


@dataclass(frozen=True)
class AcceptAll(Atomless):
    def evaluate(self, datum: Any, ptx: "PointedTransaction") -> bool:  # noqa: F821
        return True


@dataclass(frozen=True)
class RejectAll(Atomless):
    def evaluate(self, datum, ptx) -> bool:
        return False


@dataclass(frozen=True)
class KeyEquals:
    """Accept exactly the inputs whose key equals ``key``."""

    key: Any

    def evaluate(self, datum, ptx) -> bool:
        return ptx.point.key == self.key

    def rename(self, perm):
        return KeyEquals(act_opaque(perm, self.key))


@dataclass(frozen=True)
class DatumEquals:
    """Accept only when the local state datum equals ``datum``."""

    datum: Any

    def evaluate(self, datum, ptx) -> bool:
        return datum == self.datum

    def rename(self, perm):
        return DatumEquals(act_opaque(perm, self.datum))


@dataclass(frozen=True)
class InputPositionIn:
    """Accept inputs located at one of the given positions."""

    positions: frozenset[Atom]

    def evaluate(self, datum, ptx) -> bool:
        return ptx.point.position in self.positions

    def rename(self, perm):
        return InputPositionIn(frozenset(perm(a) for a in self.positions))


@dataclass(frozen=True)
class SpendsAtMostNInputs(Atomless):
    """Accept only spenders with at most ``limit`` inputs.

    Looks past the input-point at the whole transaction, so it is the one
    node kind that is not point-local.
    """

    limit: int

    def evaluate(self, datum, ptx) -> bool:
        return len(ptx.transaction.inputs) <= self.limit


@dataclass(frozen=True)
class Not:
    body: "Script"

    def evaluate(self, datum, ptx) -> bool:
        return not self.body.evaluate(datum, ptx)

    def rename(self, perm):
        return Not(self.body.rename(perm))


@dataclass(frozen=True)
class And:
    left: "Script"
    right: "Script"

    def evaluate(self, datum, ptx) -> bool:
        return self.left.evaluate(datum, ptx) and self.right.evaluate(datum, ptx)

    def rename(self, perm):
        return And(self.left.rename(perm), self.right.rename(perm))


@dataclass(frozen=True)
class Or:
    left: "Script"
    right: "Script"

    def evaluate(self, datum, ptx) -> bool:
        return self.left.evaluate(datum, ptx) or self.right.evaluate(datum, ptx)

    def rename(self, perm):
        return Or(self.left.rename(perm), self.right.rename(perm))


@dataclass(frozen=True)
class AcsCompose:
    """Accept inputs whose key composes with ``element`` below the top.

    The workhorse validator of represented chunk-system models: the output
    carries an element of an abstract chunk system, the prospective input
    carries one as its key, and validation succeeds exactly when their
    composition in the instance stays below the failure element.  The
    decision reads only the input-point's key, so the node is point-local.

    The element is typically a whole chunk, so the hash, which reads its
    label, is computed on first use and kept on the node: it is part of the
    immutable value, like the label a chunk keeps.  It is not pickled,
    since ``str`` hashes differ between processes.

    A key from another carrier does not compose: the instance's
    ``mcompose`` raises ``TypeError`` or ``AttributeError`` on it (finite
    sets meet with ``&``, substitutions read ``.dom``, chunks their index),
    and the node refuses.  Any other error is a fault and propagates.
    """

    element: Any
    inst: Any = field(compare=False, repr=False)
    # Set by __hash__ on first use.
    _hash = None

    def evaluate(self, datum, ptx) -> bool:
        other = ptx.point.key
        try:
            composed = self.inst.mcompose(self.element, other)
        except (TypeError, AttributeError):
            return False
        return composed != self.inst.top

    def rename(self, perm):
        return AcsCompose(act_opaque(perm, self.element), self.inst)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("acs_compose", value_label(self.element)))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        return {"element": self.element, "inst": self.inst}


Script = Union[
    AcceptAll,
    RejectAll,
    KeyEquals,
    DatumEquals,
    InputPositionIn,
    SpendsAtMostNInputs,
    Not,
    And,
    Or,
    AcsCompose,
]


def evaluate_script(script: Script, datum: Any, ptx) -> bool:
    return script.evaluate(datum, ptx)


def script_is_pure(script: Script) -> bool:
    """True when the script's decision depends only on the datum and the point.

    Only ``SpendsAtMostNInputs`` reads the spending transaction, and the
    combinators are point-local exactly when their operands are.
    """
    if isinstance(script, SpendsAtMostNInputs):
        return False
    if isinstance(script, Not):
        return script_is_pure(script.body)
    if isinstance(script, (And, Or)):
        return script_is_pure(script.left) and script_is_pure(script.right)
    return True


def script_to_obj(script: Script) -> dict:
    """Plain-data form of a script; the JSON wire format."""
    if isinstance(script, AcceptAll):
        return {"node": "accept_all"}
    if isinstance(script, RejectAll):
        return {"node": "reject_all"}
    if isinstance(script, KeyEquals):
        return {"node": "key_equals", "key": _scalar_obj(script.key)}
    if isinstance(script, DatumEquals):
        return {"node": "datum_equals", "datum": _scalar_obj(script.datum)}
    if isinstance(script, InputPositionIn):
        return {"node": "input_position_in", "positions": sorted(script.positions)}
    if isinstance(script, SpendsAtMostNInputs):
        return {"node": "spends_at_most_n_inputs", "limit": script.limit}
    if isinstance(script, Not):
        return {"node": "not", "body": script_to_obj(script.body)}
    if isinstance(script, And):
        return {"node": "and", "left": script_to_obj(script.left), "right": script_to_obj(script.right)}
    if isinstance(script, Or):
        return {"node": "or", "left": script_to_obj(script.left), "right": script_to_obj(script.right)}
    if isinstance(script, AcsCompose):
        return {"node": "acs_compose", "element": value_label(script.element)}
    raise TypeError(f"not a script: {script!r}")


def _scalar_obj(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return {"label": value_label(value)}


# The encoder json.dumps(..., sort_keys=True, separators=(",", ":")) builds:
# ASCII-only strings with the same escapes, NaN and the infinities as json
# spells them.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def script_label(script: Script) -> str:
    """Deterministic string form: the wire text of :func:`script_to_obj`.

    Scripts keep no label: it is needed only for the outputs of labelled
    transactions and for two outputs that share a position, and a copy on
    every script would cost memory on every output.
    """
    return _encode(script_to_obj(script))
