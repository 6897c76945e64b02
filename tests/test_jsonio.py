import json
import re
from pathlib import Path

import pytest

from chunkalg import jsonio, scripts
from chunkalg.generators import GenConfig, gen_model, gen_txlist, stream
from chunkalg.jsonio import (
    ParseError,
    dumps,
    load_model,
    load_txlist,
    model_from_obj,
    model_to_obj,
    script_from_obj,
    tx_from_obj,
    tx_to_obj,
)
from chunkalg.scripts import (
    AcceptAll,
    And,
    InputPositionIn,
    KeyEquals,
    Not,
    Or,
    RejectAll,
    SpendsAtMostNInputs,
    script_to_obj,
)

from conftest import fixture_path


def test_script_round_trip():
    scripts = [
        AcceptAll(),
        RejectAll(),
        KeyEquals("k1"),
        InputPositionIn(frozenset({"a", "b"})),
        SpendsAtMostNInputs(2),
        Not(And(AcceptAll(), Or(RejectAll(), KeyEquals(7)))),
    ]
    for s in scripts:
        assert script_from_obj(script_to_obj(s)) == s


def test_script_parse_errors():
    with pytest.raises(ParseError):
        script_from_obj({"node": "mystery"})
    with pytest.raises(ParseError):
        script_from_obj({"node": "key_equals"})
    with pytest.raises(ParseError):
        script_from_obj({"node": "input_position_in", "positions": [1]})
    with pytest.raises(ParseError):
        script_from_obj({"node": "acs_compose", "element": "x"})
    with pytest.raises(ParseError):
        script_from_obj("accept_all")


WIRE_NAMES = re.compile(
    r"accept_all|reject_all|key_equals|datum_equals|input_position_in"
    r"|spends_at_most_n_inputs|acs_compose|MAX_SCRIPT_DEPTH|[\"'](?:not|and|or)[\"']"
)


def test_scripts_alone_spells_the_validator_wire_format():
    """jsonio reads validators through scripts and raises its ParseError, and
    no other module of the package names a node kind or the nesting bound."""
    assert jsonio.ParseError is scripts.ParseError
    assert jsonio.script_from_obj is scripts.script_from_obj
    src = Path(scripts.__file__).parent
    spelled = {
        path.name: WIRE_NAMES.findall(path.read_text(encoding="utf-8"))
        for path in src.glob("*.py")
        if path.name != "scripts.py"
    }
    assert not any(spelled.values()), spelled
    assert len(set(WIRE_NAMES.findall(Path(scripts.__file__).read_text(encoding="utf-8")))) == 11


def test_transaction_round_trip():
    cfg = GenConfig(seed=5)
    rng = stream(cfg)
    for _ in range(100):
        for tx in gen_txlist(cfg, rng):
            assert tx_from_obj(tx_to_obj(tx)) == tx


def test_model_round_trip():
    cfg = GenConfig(seed=6)
    model = gen_model(cfg, stream(cfg), name="rt")
    back, _ = model_from_obj(model_to_obj(model))
    assert back.name == model.name
    assert back.transactions == model.transactions
    assert back.probe_candidates == model.probe_candidates


def test_model_references_resolve():
    model, named = load_model(fixture_path("backbone_model.json"))
    assert set(named) == {"tx1", "tx2", "tx3", "tx4"}
    assert model.probe_candidates == model.transactions


def test_txlist_files():
    txs, model = load_txlist(fixture_path("pair_combined.json"))
    assert len(txs) == 2 and model is not None and model.name == "pair"
    txs2, model2 = load_txlist(fixture_path("empty.json"))
    assert txs2 == () and model2 is None


def test_unknown_reference_is_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"model": {"name": "m", "transactions": []}, "transactions": ["ghost"]}
        )
    )
    with pytest.raises(ParseError):
        load_txlist(str(bad))


def test_bad_model_is_parse_error():
    with pytest.raises(ParseError):
        model_from_obj({"name": "m", "transactions": [{"inputs": [], "outputs": []}]})
    with pytest.raises(ParseError):
        model_from_obj([])


def test_dumps_is_deterministic():
    cfg = GenConfig(seed=7)
    model = gen_model(cfg, stream(cfg), name="det")
    assert dumps(model_to_obj(model)) == dumps(model_to_obj(model))

