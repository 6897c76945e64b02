"""JSON schemas for transactions, models, chunk files, and reports.

Model file::

    {"schema_version": 1, "name": "demo",
     "transactions": [{"name": "tx1", "inputs": [{"pos": "a", "key": "x1"}],
                       "outputs": [{"pos": "d", "datum": 1,
                                    "validator": {...}}]}],   # omitted: accepts all
     "probe_candidates": ["tx1", ...]}        # names or inline transactions;
                                              # omitted: the transactions

Chunk file: either a bare JSON array of inline transactions, or::

    {"schema_version": 1,
     "model": {...} | "model_file": "relative/path.json",
     "transactions": ["tx1", {...inline...}, ...]}

Keys, datums and validators have the wire format of :mod:`chunkalg.scripts`.
Every dump is deterministic: sorted keys, fixed separators, atom sets sorted.

An object-form file may omit ``schema_version`` (it is then read as version
1); any other version is refused.  ``transactions``, ``probe_candidates``,
``inputs`` and ``outputs`` must be arrays, a chunk-file object must list
its ``transactions``, a transaction ``name`` must be a string, unique
within its model, and a ``model_file`` a nonempty path without NUL.
Positions are nonempty strings.
A file that is not UTF-8 JSON, or holds an integer too long to convert, is
refused too.  Every refusal is a :class:`ParseError`; only a file named on
the command line that cannot be read is an ``OSError``.

A ``model_file`` is resolved relative to the chunk file's directory: an
absolute path, or one with a ``..`` component, is refused, and so is a
reference to anything but a readable regular file, which is checked
before it is opened, so that no device or FIFO is read.
"""

from __future__ import annotations

import json
import os
import stat
from typing import Any, Optional

from .ieutxo import IeutxoModel, Input, Output, Transaction
from .scripts import (
    DEFAULT_VALIDATOR,
    ParseError,
    scalar_from_obj,
    scalar_to_obj,
    script_from_obj,
    script_to_obj,
)

SCHEMA_VERSION = 1


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Transactions


def tx_to_obj(tx: Transaction) -> dict:
    return {
        "inputs": [{"pos": i.position, "key": scalar_to_obj(i.key)} for i in tx.inputs],
        "outputs": [
            {
                "pos": o.position,
                "datum": scalar_to_obj(o.datum),
                "validator": script_to_obj(o.validator),
            }
            for o in tx.outputs
        ],
    }


def _array(obj: dict, key: str) -> list:
    """``obj[key]``, which must be a JSON array; an empty one if absent."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key} must be an array, got {type(value).__name__}")
    return value


def _check_version(obj: dict) -> None:
    """Refuse an object-form file of another schema version; a file without
    one is read as the current version."""
    version = obj.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
        )


def tx_from_obj(obj: Any) -> Transaction:
    if not isinstance(obj, dict):
        raise ParseError(f"transaction must be an object, got {type(obj).__name__}")
    if "name" in obj and not isinstance(obj["name"], str):
        raise ParseError(f"transaction name must be a string: {obj['name']!r}")
    inputs = []
    for item in _array(obj, "inputs"):
        if not isinstance(item, dict) or not isinstance(item.get("pos"), str) or not item["pos"]:
            raise ParseError(f"bad input: {item!r}")
        inputs.append(Input(item["pos"], scalar_from_obj(item.get("key"), "key")))
    outputs = []
    for item in _array(obj, "outputs"):
        if not isinstance(item, dict) or not isinstance(item.get("pos"), str) or not item["pos"]:
            raise ParseError(f"bad output: {item!r}")
        outputs.append(
            Output(
                item["pos"],
                scalar_from_obj(item.get("datum"), "datum"),
                script_from_obj(item["validator"]) if "validator" in item else DEFAULT_VALIDATOR,
            )
        )
    return Transaction(inputs, outputs)


# ---------------------------------------------------------------------------
# Models


def model_to_obj(model: IeutxoModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": model.name,
        "transactions": [tx_to_obj(tx) for tx in model.transactions],
        "probe_candidates": [tx_to_obj(tx) for tx in model.probe_candidates],
    }


def model_from_obj(obj: Any) -> tuple[IeutxoModel, dict]:
    """Returns the model plus the name->transaction table for reference files."""
    if not isinstance(obj, dict):
        raise ParseError("model file must be a JSON object")
    _check_version(obj)
    name = obj.get("name", "model")
    if not isinstance(name, str):
        raise ParseError("model name must be a string")
    named: dict = {}
    txs = []
    for item in _array(obj, "transactions"):
        tx = tx_from_obj(item)
        txs.append(tx)
        if "name" in item:
            if item["name"] in named:
                raise ParseError(f"duplicate transaction name {item['name']!r}")
            named[item["name"]] = tx
    candidates = None
    if "probe_candidates" in obj:
        candidates = tuple(
            _resolve_tx(item, named) for item in _array(obj, "probe_candidates")
        )
    try:
        model = IeutxoModel(
            name=name, transactions=tuple(txs), probe_candidates=candidates
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return model, named


def _resolve_tx(item: Any, named: dict) -> Transaction:
    if isinstance(item, str):
        if item not in named:
            raise ParseError(f"unknown transaction reference {item!r}")
        return named[item]
    return tx_from_obj(item)


def load_model(path: str) -> tuple[IeutxoModel, dict]:
    return model_from_obj(_read_json(path))


# ---------------------------------------------------------------------------
# Chunk files


def load_txlist(path: str) -> tuple[tuple[Transaction, ...], Optional[IeutxoModel]]:
    """A transaction list plus the model it references, if any."""
    obj = _read_json(path)
    if isinstance(obj, list):
        return tuple(tx_from_obj(item) for item in obj), None
    if not isinstance(obj, dict):
        raise ParseError("chunk file must be an array or an object")
    _check_version(obj)
    if "transactions" not in obj:
        raise ParseError("chunk file object lists no transactions")
    named: dict = {}
    model: Optional[IeutxoModel] = None
    if "model" in obj:
        model, named = model_from_obj(obj["model"])
    elif "model_file" in obj:
        ref = obj["model_file"]
        if not isinstance(ref, str) or not ref or "\0" in ref:
            raise ParseError("model_file must be a nonempty path string without NUL")
        if os.path.isabs(ref):
            raise ParseError(f"model_file {ref!r} is an absolute path; it must be relative")
        if ".." in ref.split(os.sep):
            raise ParseError(f"model_file {ref!r} has a '..' component")
        target = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
        try:
            # Checked before opening, so a device or FIFO is never read.
            if not stat.S_ISREG(os.stat(target).st_mode):
                raise ParseError(f"model_file {ref!r} cannot be read: not a regular file")
            model, named = load_model(target)
        except OSError as exc:
            raise ParseError(f"model_file {ref!r} cannot be read: {exc.strerror or exc}") from None
    txs = tuple(_resolve_tx(item, named) for item in _array(obj, "transactions"))
    return txs, model


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.loads(handle.read())
    except RecursionError:
        raise ParseError(f"{path}: JSON nests too deeply to load") from None
    except ValueError as exc:
        # Not JSON, not UTF-8, or an integer too long to convert.
        raise ParseError(f"{path}: {exc}") from None
