"""Validator scripts: a closed, serializable DSL with a decidable denotation.

A script denotes a total predicate over ``(datum, pointed transaction)``,
where the datum is the local state carried on the output that owns the
script.  Scripts are compared by plain dataclass equality, so
extensionally equal but structurally distinct scripts (``And(a, b)`` and
``And(b, a)``, or ``Not(Not(a))`` and ``a``) count as distinct validators;
that refinement is deliberate and keeps validator identity decidable.
Every node keeps its fields in slots, with no per-instance dict, keeps no
label or hash, and refuses every attribute set and delete with
``FrozenInstanceError`` (:func:`frozen_slotted`); the field-free
``AcceptAll`` and ``RejectAll`` are interned.
Each node's ``rename`` says where its atoms are, and its support is read
off that (:func:`chunkalg.atoms.support`): ``input_position_in`` mentions
its positions, a key or datum its atoms (strings there are opaque, those
inside a tuple are atoms), and ``acs_compose`` everything in its element.

A script is *point-local* (UTxO-style) when its decision depends only on the
datum and on the distinguished input: every node kind here is point-local
except ``SpendsAtMostNInputs``, which inspects the shape of the whole
spending transaction.

The wire format of validators, keys and datums is spelled here alone:
:func:`script_to_obj` and :func:`scalar_to_obj` write it, and
:func:`script_from_obj` and :func:`scalar_from_obj` read it.
"""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Any, Union

from .atoms import Atom, Atomless, act_opaque, value_label

# Deepest validator nesting accepted: scripts are evaluated, renamed and
# labelled recursively, so a deeper one would exhaust the stack there.
MAX_SCRIPT_DEPTH = 100


class ParseError(ValueError):
    """The file does not match the documented schema."""


def _refuse_set(self, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_slotted(cls):
    """``dataclass(frozen=True, slots=True)`` whose instances refuse every
    attribute set and delete with ``FrozenInstanceError``.

    The dataclass's own refusal names the class that slotting replaces, so
    CPython 3.11 raises ``TypeError`` for a name that is no field.  An
    ``__init__`` the class defines is kept, as ``dataclass`` keeps it.  The
    generated ``__init__``, copies, pickles and the slot descriptors'
    setters write through ``object.__setattr__`` or the descriptors, so
    they are unaffected.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    return cls


class _Interned(Atomless):
    """A script node with no fields: one object per class, as the failure
    top is interned, so every copy, pickle and renaming is that object."""

    __slots__ = ()
    _interned = {}

    def __new__(cls):
        node = cls._interned.get(cls)
        if node is None:
            node = cls._interned[cls] = object.__new__(cls)
        return node

    def __reduce__(self):
        return (type(self), ())


@frozen_slotted
class AcceptAll(_Interned):
    def evaluate(self, datum: Any, ptx: "PointedTransaction") -> bool:  # noqa: F821
        return True


@frozen_slotted
class RejectAll(_Interned):
    def evaluate(self, datum, ptx) -> bool:
        return False


@frozen_slotted
class KeyEquals:
    """Accept exactly the inputs whose key equals ``key``."""

    key: Any

    def evaluate(self, datum, ptx) -> bool:
        return ptx.point.key == self.key

    def rename(self, perm):
        return KeyEquals(act_opaque(perm, self.key))


@frozen_slotted
class DatumEquals:
    """Accept only when the local state datum equals ``datum``."""

    datum: Any

    def evaluate(self, datum, ptx) -> bool:
        return datum == self.datum

    def rename(self, perm):
        return DatumEquals(act_opaque(perm, self.datum))


@frozen_slotted
class InputPositionIn:
    """Accept inputs located at one of the given positions."""

    positions: frozenset[Atom]

    def evaluate(self, datum, ptx) -> bool:
        return ptx.point.position in self.positions

    def rename(self, perm):
        return InputPositionIn(frozenset(perm(a) for a in self.positions))


@frozen_slotted
class SpendsAtMostNInputs(Atomless):
    """Accept only spenders with at most ``limit`` inputs.

    Looks past the input-point at the whole transaction, so it is the one
    node kind that is not point-local.
    """

    limit: int

    def evaluate(self, datum, ptx) -> bool:
        return len(ptx.transaction.inputs) <= self.limit


@frozen_slotted
class Not:
    body: "Script"

    def evaluate(self, datum, ptx) -> bool:
        return not self.body.evaluate(datum, ptx)

    def rename(self, perm):
        return Not(self.body.rename(perm))


@frozen_slotted
class And:
    left: "Script"
    right: "Script"

    def evaluate(self, datum, ptx) -> bool:
        return self.left.evaluate(datum, ptx) and self.right.evaluate(datum, ptx)

    def rename(self, perm):
        return And(self.left.rename(perm), self.right.rename(perm))


@frozen_slotted
class Or:
    left: "Script"
    right: "Script"

    def evaluate(self, datum, ptx) -> bool:
        return self.left.evaluate(datum, ptx) or self.right.evaluate(datum, ptx)

    def rename(self, perm):
        return Or(self.left.rename(perm), self.right.rename(perm))


@frozen_slotted
class AcsCompose:
    """Accept inputs whose key composes with ``element`` below the top.

    The workhorse validator of represented chunk-system models: the output
    carries an element of an abstract chunk system, the prospective input
    carries one as its key, and validation succeeds exactly when their
    composition in the instance stays below the failure element.  The
    decision reads only the input-point's key, so the node is point-local.

    The node hashes as the dataclass does, by its element's hash: the
    element is typically a whole chunk, which keeps its hash, so hashing
    the node labels nothing.  The instance is not compared or hashed.

    A key from another carrier does not compose: the instance's
    ``mcompose`` raises ``TypeError`` or ``AttributeError`` on it (finite
    sets meet with ``&``, substitutions read ``.dom``, chunks their index),
    and the node refuses.  Any other error is a fault and propagates.
    """

    element: Any
    inst: Any = field(compare=False, repr=False)

    def evaluate(self, datum, ptx) -> bool:
        other = ptx.point.key
        try:
            composed = self.inst.mcompose(self.element, other)
        except (TypeError, AttributeError):
            return False
        return composed != self.inst.top

    def rename(self, perm):
        return AcsCompose(act_opaque(perm, self.element), self.inst)


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
        return {"node": "key_equals", "key": scalar_to_obj(script.key)}
    if isinstance(script, DatumEquals):
        return {"node": "datum_equals", "datum": scalar_to_obj(script.datum)}
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


# The validator of an output whose wire form names none.
DEFAULT_VALIDATOR = AcceptAll()


def script_from_obj(obj: Any, _depth: int = 1) -> Script:
    """Inverse of :func:`script_to_obj`, but for the emit-only ``acs_compose``."""
    if _depth > MAX_SCRIPT_DEPTH:
        raise ParseError(f"validator nests deeper than {MAX_SCRIPT_DEPTH} nodes")
    if not isinstance(obj, dict) or "node" not in obj:
        raise ParseError(f"validator must be an object with a 'node': {obj!r}")
    node = obj["node"]
    deeper = _depth + 1
    try:
        if node == "accept_all":
            return AcceptAll()
        if node == "reject_all":
            return RejectAll()
        if node == "key_equals":
            return KeyEquals(scalar_from_obj(obj["key"], "key"))
        if node == "datum_equals":
            return DatumEquals(scalar_from_obj(obj["datum"], "datum"))
        if node == "input_position_in":
            positions = obj["positions"]
            if not isinstance(positions, list) or not all(
                isinstance(p, str) and p for p in positions
            ):
                raise ParseError("positions must be a list of nonempty strings")
            return InputPositionIn(frozenset(positions))
        if node == "spends_at_most_n_inputs":
            limit = obj["limit"]
            if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
                raise ParseError("limit must be a nonnegative integer")
            return SpendsAtMostNInputs(limit)
        if node == "not":
            return Not(script_from_obj(obj["body"], deeper))
        if node == "and":
            return And(script_from_obj(obj["left"], deeper), script_from_obj(obj["right"], deeper))
        if node == "or":
            return Or(script_from_obj(obj["left"], deeper), script_from_obj(obj["right"], deeper))
        if node == "acs_compose":
            raise ParseError(
                "acs_compose validators reference a live instance and cannot "
                "be loaded from JSON"
            )
    except KeyError as exc:
        raise ParseError(f"validator node {node!r} misses field {exc}") from None
    raise ParseError(f"unknown validator node {node!r}")


def scalar_to_obj(value: Any) -> Any:
    """A key's or datum's wire form: a JSON scalar as is, anything else by label."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return {"label": value_label(value)}


def scalar_from_obj(value: Any, what: str) -> Any:
    """A key or datum read from a file: a JSON scalar, numbers finite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{what} must be a finite number, got {value!r}")
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ParseError(f"{what} must be a JSON scalar, got {type(value).__name__}")


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
