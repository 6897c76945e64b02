"""The file boundary never crashes.

Every malformed model or chunk document either loads or is
refused with :class:`ParseError`; no other exception escapes.  Documents
are drawn field by field, each field either well-formed or any JSON value,
so most draws are nearly valid and reach the deeper checks; raw bytes,
mutated valid text and JSON numbers too large to convert reach the reader.
A chunk document's ``model_file`` may name a missing file, a directory,
an absolute path or a path through ``..``.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chunkalg.jsonio import ParseError, load_model, load_txlist, model_from_obj

_json = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(),
        st.text(max_size=4),
    ),
    lambda c: st.one_of(st.lists(c, max_size=3), st.dictionaries(st.text(max_size=5), c, max_size=3)),
    max_leaves=6,
)


def _either(good):
    """A well-formed field, or any JSON value in its place."""
    return st.one_of(good, good, _json)


_atom = st.sampled_from(["a", "b", "c", "", "\x00"])
_nodes = ["accept_all", "reject_all", "key_equals", "datum_equals", "input_position_in",
          "spends_at_most_n_inputs", "acs_compose", "mystery"]
_leaf_scripts = st.fixed_dictionaries(
    {"node": _either(st.sampled_from(_nodes))},
    optional={
        "key": _json,
        "datum": _json,
        "positions": _either(st.lists(_either(_atom), max_size=3)),
        "limit": _either(st.integers(-1, 3)),
        "element": _json,
    },
)
_scripts = st.recursive(
    _leaf_scripts,
    lambda c: st.fixed_dictionaries(
        {"node": st.sampled_from(["not", "and", "or"])},
        optional={"body": _either(c), "left": _either(c), "right": _either(c)},
    ),
    max_leaves=4,
)
_slots = st.fixed_dictionaries(
    {}, optional={"pos": _either(_atom), "key": _json, "datum": _json, "validator": _either(_scripts)}
)
_names = st.sampled_from(["t1", "t2", "t3"])
_txs = _either(
    st.fixed_dictionaries(
        {},
        optional={
            "name": _either(_names),
            "inputs": _either(st.lists(_either(_slots), max_size=3)),
            "outputs": _either(st.lists(_either(_slots), max_size=3)),
        },
    )
)
_versions = _either(st.just(1))
models = _either(
    st.fixed_dictionaries(
        {},
        optional={
            "schema_version": _versions,
            "name": _either(st.just("m")),
            "transactions": _either(st.lists(_txs, max_size=3)),
            "probe_candidates": _either(st.lists(st.one_of(_txs, _names), max_size=3)),
        },
    )
)
# Referenced model files the chunk documents may name; each is written
# next to the chunk file, beside the directory MODEL_DIR (see _write_models).
# MISSING_MODEL names no file; OUTSIDE_MODELS reach outside the directory.
MODEL_FILES = {
    "good.json": {"name": "g", "transactions": [
        {"name": "t1", "outputs": [{"pos": "a", "datum": 0}]},
        {"name": "t2", "inputs": [{"pos": "a", "key": "k"}], "outputs": [{"pos": "b", "datum": 1}]},
    ]},
    "bad.json": {"name": "b", "transactions": [{"inputs": [{"pos": "a", "key": [1]}]}]},
}
MODEL_DIR, MISSING_MODEL = "dir.json", "missing.json"
OUTSIDE_MODELS = ["../good.json", "/dev/null"]
_model_files = _either(
    st.sampled_from(sorted(MODEL_FILES) + ["", "sub\x00.json", MISSING_MODEL, MODEL_DIR] + OUTSIDE_MODELS)
)
chunks = st.one_of(
    st.lists(_txs, max_size=3),
    _either(
        st.fixed_dictionaries(
            {},
            optional={
                "schema_version": _versions,
                "model": models,
                "model_file": _model_files,
                "transactions": _either(st.lists(st.one_of(_txs, _names), max_size=3)),
            },
        )
    ),
)


def _refused_or_loaded(load, *args):
    try:
        load(*args)
    except ParseError:
        pass


def _write_models(directory):
    for name, obj in MODEL_FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    os.mkdir(os.path.join(directory, MODEL_DIR))


_settings = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(models)
@_settings
def test_model_documents_load_or_refuse(obj):
    _refused_or_loaded(model_from_obj, obj)


@given(chunks)
@example({"schema_version": 1, "transactions": [], "model_file": "0"})
@_settings
def test_chunk_documents_load_or_refuse(obj):
    with tempfile.TemporaryDirectory() as directory:
        _write_models(directory)
        path = os.path.join(directory, "chunk.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        _refused_or_loaded(load_txlist, path)


_valid_text = json.dumps(
    {"schema_version": 1, "model": MODEL_FILES["good.json"], "transactions": ["t1", "t2"]}
).encode()


@st.composite
def _mutated(draw):
    """The valid chunk text with a few bytes replaced, inserted or cut."""
    data = bytearray(_valid_text)
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        at = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["replace", "insert", "cut"]))
        byte = draw(st.sampled_from(b'{}[]",:0123456789eE.-+ntfaxu\\\xff\x00'))
        if op == "replace":
            data[at] = byte
        elif op == "insert":
            data.insert(at, byte)
        else:
            del data[at:]
    return bytes(data)


_raw = st.one_of(
    st.binary(max_size=40),
    _mutated(),
    st.integers(4000, 5000).map(lambda n: b'[{"outputs":[{"pos":"a","datum":' + b"7" * n + b"}]}]"),
)


@given(_raw)
@_settings
def test_raw_files_load_or_refuse(data):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "doc.json")
        with open(path, "wb") as fh:
            fh.write(data)
        _refused_or_loaded(load_txlist, path)
        _refused_or_loaded(load_model, path)
