"""Command surface: exit codes, report shapes, determinism, fixture behavior."""

import json
import sys

import pytest

from chunkalg import cli
from chunkalg.acs import ChunkAcs
from chunkalg.cli import MAX_CHUNKS, main
from chunkalg.ieutxo import CR_COUNTEREXAMPLE, CR_VERIFIED, ChurchRosserReport
from chunkalg.jsonio import dumps, load_model
from chunkalg.scripts import MAX_SCRIPT_DEPTH

from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_validate_valid_fixture(capsys):
    code, report = run_json(capsys, "validate", fixture_path("pair_combined.json"))
    assert code == 0
    assert report["status"] == "ok"
    assert report["payload"]["utxi"] == ["a", "b", "c"]
    assert report["payload"]["utxo"] == ["f"]
    assert report["payload"]["is_blockchain"] is False


def test_validate_swapped_fixture(capsys):
    code, report = run_json(capsys, "validate", fixture_path("pair_swapped.json"))
    assert code == 1
    assert report["status"] == "violations"
    assert report["payload"]["check"]["violation"]["kind"] == "BackwardOrSelfPointer"


def test_validate_empty(capsys):
    code, report = run_json(capsys, "validate", fixture_path("empty.json"))
    assert code == 0 and report["payload"]["is_blockchain"] is True


def test_validate_missing_file(capsys):
    assert main(["validate", fixture_path("nope.json")]) == 3


def test_validate_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 2


def _one_output_file(tmp_path, validator_json):
    path = tmp_path / "chunk.json"
    path.write_text('[{"outputs":[{"pos":"a","datum":0,"validator":' + validator_json + "}]}]")
    return str(path)


def test_validate_deep_validator_is_parse_error(tmp_path, capsys):
    """Nesting past the bound, or past what json can load, exits 2 with a
    message instead of a RecursionError traceback."""
    for nodes, code in ((MAX_SCRIPT_DEPTH, 0), (MAX_SCRIPT_DEPTH + 1, 2), (3000, 2)):
        nots = nodes - 1
        nested = '{"node":"not","body":' * nots + '{"node":"accept_all"}' + "}" * nots
        assert main(["validate", _one_output_file(tmp_path, nested)]) == code
        err = capsys.readouterr().err
        assert ("parse error" in err) == (code == 2) and "Traceback" not in err


def test_validate_boolean_limit_is_parse_error(tmp_path, capsys):
    path = _one_output_file(tmp_path, '{"node":"spends_at_most_n_inputs","limit":true}')
    assert main(["validate", path]) == 2
    assert "limit must be a nonnegative integer" in capsys.readouterr().err


def _validate_parse_error(tmp_path, capsys, chunk_obj, model_obj=None):
    """``validate`` on a chunk file (next to its model file, if given):
    exit 2 and the parse error message, no traceback."""
    if model_obj is not None:
        (tmp_path / "model.json").write_text(json.dumps(model_obj))
    path = tmp_path / "chunk.json"
    path.write_text(json.dumps(chunk_obj))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def test_validate_unsupported_schema_version(tmp_path, capsys):
    for version in (2, "1", "banana", 1.0, True, None):
        err = _validate_parse_error(tmp_path, capsys, {"schema_version": version, "transactions": []})
        assert "parse error: unsupported schema_version" in err
        err = _validate_parse_error(
            tmp_path,
            capsys,
            {"schema_version": 1, "model_file": "model.json", "transactions": []},
            {"schema_version": version, "name": "m", "transactions": []},
        )
        assert "parse error: unsupported schema_version" in err


def test_validate_non_array_transactions_or_probes(tmp_path, capsys):
    for key, value in (("probe_candidates", 5), ("transactions", {"t": 1}), ("transactions", "tx")):
        err = _validate_parse_error(
            tmp_path,
            capsys,
            {"model_file": "model.json", "transactions": []},
            {"name": "m", "transactions": [], key: value},
        )
        assert f"parse error: {key} must be an array" in err
    err = _validate_parse_error(tmp_path, capsys, {"transactions": "tx1"})
    assert "parse error: transactions must be an array" in err


def test_validate_chunk_object_without_transactions(tmp_path, capsys):
    err = _validate_parse_error(tmp_path, capsys, {"schema_version": 1, "model_file": "model.json"},
                                {"name": "m", "transactions": []})
    assert "parse error: chunk file object lists no transactions" in err
    # a versionless file that lists them stays accepted
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"model_file": "model.json", "transactions": []}))
    assert main(["validate", str(path)]) == 0


def test_validate_dangling_model_file_is_parse_error(tmp_path, capsys):
    """A ``model_file`` naming no file, or a directory, is malformed input
    (exit 2, naming the reference), not an i/o error on the command line."""
    (tmp_path / "models").mkdir()
    for ref in ("0", "missing.json", "models"):
        err = _validate_parse_error(tmp_path, capsys, {"model_file": ref, "transactions": []})
        assert f"parse error: model_file {ref!r} cannot be read" in err


def test_validate_model_file_stays_in_the_chunk_directory(tmp_path, capsys):
    """A ``model_file`` is resolved inside the chunk file's directory: an
    absolute path or one through ``..`` is refused even when it names a good
    model, and so is a target that is not a regular file (exit 2, with the
    reason)."""
    model = {"name": "m", "transactions": []}
    (tmp_path / "model.json").write_text(json.dumps(model))
    sub = tmp_path / "sub"
    sub.mkdir()
    absolute = str(tmp_path / "model.json")
    for ref, reason in ((absolute, "is an absolute path"), ("../model.json", "has a '..' component")):
        err = _validate_parse_error(sub, capsys, {"model_file": ref, "transactions": []})
        assert f"parse error: model_file {ref!r} {reason}" in err
    (sub / "model.json").symlink_to("/dev/null")
    err = _validate_parse_error(sub, capsys, {"model_file": "model.json", "transactions": []})
    assert "parse error: model_file 'model.json' cannot be read: not a regular file" in err
    # the same model next to the chunk file loads
    (sub / "model.json").unlink()
    (sub / "model.json").write_text(json.dumps(model))
    (sub / "chunk.json").write_text(json.dumps({"model_file": "model.json", "transactions": []}))
    assert main(["validate", str(sub / "chunk.json")]) == 0


def test_validate_duplicate_transaction_names(tmp_path, capsys):
    """Two transactions named alike would leave a reference ambiguous."""
    tx = {"inputs": [], "outputs": [{"pos": "a", "datum": 0}]}
    other = {"inputs": [], "outputs": [{"pos": "b", "datum": 0}]}
    err = _validate_parse_error(
        tmp_path,
        capsys,
        {"model_file": "model.json", "transactions": ["t"]},
        {"name": "m", "transactions": [{**tx, "name": "t"}, {**other, "name": "t"}],
         "probe_candidates": ["t"]},
    )
    assert "parse error: duplicate transaction name 't'" in err


def test_validate_non_string_transaction_name(tmp_path, capsys):
    tx = {"name": 7, "inputs": [], "outputs": [{"pos": "a", "datum": 0}]}
    err = _validate_parse_error(
        tmp_path, capsys, {"model_file": "model.json", "transactions": []},
        {"name": "m", "transactions": [tx]},
    )
    assert "parse error: transaction name must be a string: 7" in err


def test_ledger_blockchain(capsys):
    code, report = run_json(capsys, "ledger", fixture_path("backbone_full.json"))
    assert code == 0
    assert report["payload"]["utxi"] == []
    assert report["payload"]["is_blockchain"] is True
    assert report["payload"]["utxo"] == ["c", "g", "h", "i", "j", "k"]


def test_ledger_single(capsys):
    code, report = run_json(capsys, "ledger", fixture_path("pair_first_alone.json"))
    assert report["payload"]["utxi"] == ["a", "b", "c"]


def test_ledger_blocked_sets(capsys):
    code, report = run_json(capsys, "ledger", fixture_path("blocked_chunk.json"))
    assert code == 0
    assert report["payload"]["blocked_utxo"] == ["m"]


def test_ledger_json_with_probe_universe(capsys, tmp_path):
    """The whole ledger report, blocked sets included, on both probe sides."""
    dead_in = {"inputs": [{"pos": "r", "key": "bad"}], "outputs": [{"pos": "s", "datum": 0}]}
    probe = {"inputs": [], "outputs": [{"pos": "u", "datum": 0,
                                         "validator": {"node": "key_equals", "key": "good"}}]}
    (tmp_path / "model.json").write_text(json.dumps(
        {"name": "m", "transactions": [{**dead_in, "name": "t"}], "probe_candidates": [probe]}))
    (tmp_path / "chunk.json").write_text(json.dumps({"model_file": "model.json", "transactions": ["t"]}))
    backbone = ["--probe-file", fixture_path("backbone_model.json")]
    cases = [
        ([fixture_path("blocked_chunk.json")],
         {"blocked_utxi": [], "blocked_utxo": ["m"], "is_blockchain": True, "pos": ["m", "n"],
          "stx": [], "utxi": [], "utxo": ["m", "n"]}),
        ([fixture_path("backbone_full.json")] + backbone,
         {"blocked_utxi": [], "blocked_utxo": [], "is_blockchain": True,
          "pos": list("abcdefghijk"), "stx": list("abdef"), "utxi": [], "utxo": list("cghijk")}),
        ([fixture_path("backbone_34.json")] + backbone,
         {"blocked_utxi": [], "blocked_utxo": [], "is_blockchain": False,
          "pos": list("adefghijk"), "stx": ["e", "f"], "utxi": ["a", "d"], "utxo": list("ghijk")}),
        ([str(tmp_path / "chunk.json")],
         {"blocked_utxi": ["r"], "blocked_utxo": ["s"], "is_blockchain": False, "pos": ["r", "s"],
          "stx": [], "utxi": ["r"], "utxo": ["s"]}),
    ]
    for argv, payload in cases:
        code, out = run(capsys, "ledger", *argv, "--json")
        assert code == 0
        assert out == dumps({"command": "ledger", "payload": payload, "schema_version": 1,
                             "status": "ok"}) + "\n"


def test_ledger_without_candidates_probes_the_enumeration(capsys, tmp_path):
    """A model that declares no probe candidates, as ``--probe-file`` or as
    a chunk file's own model, probes its enumeration: the ledger is the one
    the same model declaring it gives, blocked sets included."""
    with open(fixture_path("backbone_model.json")) as fh:
        declared = json.load(fh)
    bare = {k: v for k, v in declared.items() if k != "probe_candidates"}
    first = declared["transactions"][0]["name"]
    for name, model in (("bare", bare), ("declared", declared)):
        (tmp_path / f"{name}.json").write_text(json.dumps(model))
        (tmp_path / f"{name}_chunk.json").write_text(
            json.dumps({"model_file": f"{name}.json", "transactions": [first]})
        )
    for argv in (
        [fixture_path("backbone_34.json"), "--probe-file", "{}.json"],
        [fixture_path("backbone_full.json"), "--probe-file", "{}.json"],
        ["{}_chunk.json"],
        ["{}_chunk.json", "--probe-file", "{}.json"],
    ):
        for fmt in ([], ["--json"]):
            outs = []
            for name in ("bare", "declared"):
                args = [str(tmp_path / a.format(name)) if "{}" in a else a for a in argv]
                outs.append(run(capsys, "ledger", *args, *fmt))
            assert outs[0] == outs[1]
            assert outs[0][0] == 0
            assert "blocked" in outs[0][1]


def test_commute_disjoint(capsys):
    code, report = run_json(
        capsys,
        "commute",
        fixture_path("backbone_tx1.json"),
        fixture_path("backbone_tx4.json"),
    )
    assert code == 0
    p = report["payload"]
    assert p["commuting"] and p["positions_disjoint"] and p["ab_valid"] and p["ba_valid"]


def test_commute_self(capsys):
    code, report = run_json(
        capsys,
        "commute",
        fixture_path("pair_combined.json"),
        fixture_path("pair_combined.json"),
    )
    assert code == 0
    p = report["payload"]
    assert p["commuting"] and not p["ab_valid"] and not p["ba_valid"]


def test_commute_one_order(capsys, tmp_path):
    single_tx = tmp_path / "tx.json"
    single_ty = tmp_path / "ty.json"
    import shutil

    shutil.copy(fixture_path("pair_model.json"), tmp_path / "pair_model.json")
    single_tx.write_text(
        json.dumps({"model_file": "pair_model.json", "transactions": ["tx"]})
    )
    single_ty.write_text(
        json.dumps({"model_file": "pair_model.json", "transactions": ["ty"]})
    )
    code, report = run_json(capsys, "commute", str(single_tx), str(single_ty))
    assert code == 0
    p = report["payload"]
    assert p["ab_valid"] and not p["ba_valid"] and not p["commuting"]
    assert p["freshness_equivalence_consistent"]


def test_validate_unreadable_documents_are_parse_errors(tmp_path, capsys):
    """Inputs the file-boundary fuzz found crashing: an integer too long to
    convert, bytes that are not UTF-8, a NUL in a referenced model path,
    and non-finite numbers in key or datum slots.  Each exits 2 with a
    message, no traceback."""
    cases = [
        (b'[{"inputs":[{"pos":"a","key":' + b"1" * 5000 + b"}]}]", "integer string conversion"),
        (b'[{"inputs":[{"pos":"a","key":"\xff"}]}]', "can't decode"),
        (b'{"model_file":"m\\u0000.json","transactions":[]}', "model_file must be a nonempty path"),
        (b'{"model_file":"","transactions":[]}', "model_file must be a nonempty path"),
        (b'[{"inputs":[{"pos":"a","key":NaN}]}]', "key must be a finite number"),
        (b'[{"outputs":[{"pos":"a","datum":1e400}]}]', "datum must be a finite number"),
        (b'[{"outputs":[{"pos":"a","datum":0,"validator":{"node":"datum_equals","datum":-Infinity}}]}]',
         "datum must be a finite number"),
    ]
    path = tmp_path / "chunk.json"
    for text, message in cases:
        path.write_bytes(text)
        assert main(["validate", str(path)]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and message in err, (text, err)


def test_unexercised_laws_are_marked(capsys):
    """A law its sample never exercised keeps its pass verdict, and both
    reports say it was not exercised."""
    code, report = run_json(capsys, "acs-check", "finsets", "--seed", "1")
    assert code == 0
    laws = [law for r in report["payload"]["reports"] for law in r["laws"]]
    unexercised = [law for law in laws if law["checked"] == 0]
    assert [law["axiom"] for law in unexercised] == ["left_right_clash_fails"]
    assert unexercised[0]["status"] == "pass" and unexercised[0]["exercised"] is False
    assert all("exercised" not in law for law in laws if law["checked"])
    code, out = run(capsys, "acs-check", "finsets", "--seed", "1")
    assert "    left_right_clash_fails: pass, not exercised (checked 0 times)" in out.splitlines()
    assert out.count("not exercised") == 1


def test_acs_check_instances(capsys):
    for instance in ("finsets", "subst"):
        code, report = run_json(capsys, "acs-check", instance, "--seed", "1")
        assert code == 0, report
        assert report["status"] == "ok"
        assert {r["kind"] for r in report["payload"]["reports"]} == {
            "monoid",
            "oriented",
            "atomic",
            "partial_converse",
        }


def test_acs_check_chunks_strict(capsys):
    code, report = run_json(
        capsys,
        "acs-check",
        f"chunks:{fixture_path('backbone_model.json')}",
        "--strict",
        "--seed",
        "1",
    )
    assert code == 0
    assert report["payload"]["strict"] is True


def test_acs_check_unknown_instance(capsys):
    """An instance spec that names no instance, or a chunk system with no
    model file, is a usage error (exit 2), not an i/o error."""
    for spec in ("wat", "chunks:"):
        assert main(["acs-check", spec]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse error" in captured.err and "chunks:<model-file>" in captured.err


def test_acs_check_samples_bound_every_instance(capsys):
    """``--samples n`` checks n distinct elements of a larger carrier, and
    the whole carrier when it is no larger than n."""
    for spec, samples, elements in (
        ("finsets", "3", 3),
        ("finsets", "200", 17),
        ("subst", "40", 40),
        ("subst", "200", 82),
    ):
        _, report = run_json(capsys, "acs-check", spec, "--samples", samples)
        assert report["payload"]["elements"] == elements, (spec, samples)


def test_adjunction_generated(capsys):
    code, report = run_json(
        capsys, "adjunction", "--seed", "3", "--samples", "20"
    )
    assert code == 0
    laws = {l["axiom"]: l["status"] for l in report["payload"]["report"]["laws"]}
    assert laws["round_trip_model_point_local"] == "pass"


def test_adjunction_model_file_strict(capsys):
    code, report = run_json(
        capsys,
        "adjunction",
        "--model",
        fixture_path("pair_model.json"),
        "--strict",
        "--samples",
        "15",
    )
    assert code == 0
    laws = {l["axiom"] for l in report["payload"]["report"]["laws"]}
    assert "epsilon_bijective_strict" in laws


def test_adjunction_defaults_missing_probe_universe(capsys, tmp_path):
    """A model file without probe candidates gives the report of the same
    model declaring its enumeration as the universe."""
    tx = {"name": "t", "inputs": [],
          "outputs": [{"pos": "a", "datum": 0, "validator": {"node": "accept_all"}}]}
    bare = {"schema_version": 1, "name": "bare", "transactions": [tx]}
    outs = []
    for model in (bare, {**bare, "probe_candidates": ["t"]}):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        outs.append(run(capsys, "adjunction", "--model", str(path), "--samples", "10", "--json"))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    assert set(json.loads(outs[0][1])["payload"]) == {
        "factor_choice", "materialized_atomics", "model_transactions", "report"
    }


def test_adjunction_reports_a_model_whose_representation_fails(capsys, tmp_path):
    """Without probe candidates the backbone's represented ``tx2`` and
    ``tx4`` both output at ``d``: the adjunction fails with a report, not
    a traceback."""
    with open(fixture_path("backbone_model.json")) as f:
        model = json.load(f)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**model, "probe_candidates": []}))
    code = main(["adjunction", "--model", str(path), "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "violations"
    laws = {l["axiom"]: l["status"] for l in report["payload"]["report"]["laws"]}
    assert laws["epsilon_surjective"] == "fail"


def _independent_model(tmp_path, n):
    """A model file of ``n`` one-output transactions on distinct positions,
    so every ordered selection of them is a chunk: 986,410 for n = 9."""
    txs = [{"outputs": [{"pos": f"p{i}", "datum": i}]} for i in range(n)]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": f"indep{n}", "transactions": txs}))
    return str(path)


def test_models_with_too_many_chunks_are_parse_errors(capsys, tmp_path):
    """The commands that keep every chunk refuse a model with more than
    MAX_CHUNKS of them, before keeping any, with an exit 2 that names the
    bound; eight transactions (109,602 chunks) pass the count."""
    model = _independent_model(tmp_path, 9)
    for argv in (["acs-check", f"chunks:{model}"], ["adjunction", "--model", model]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parse error: model 'indep9' has more than {MAX_CHUNKS} chunks, "
            "too many to enumerate\n"
        )
    assert isinstance(cli._chunk_acs(load_model(_independent_model(tmp_path, 8))[0]), ChunkAcs)


def test_models_with_chunks_deeper_than_the_recursion_limit_are_parse_errors(capsys, tmp_path):
    """Both commands count chunks through one guard, so one is run here."""
    model = _independent_model(tmp_path, sys.getrecursionlimit() + 100)
    assert main(["acs-check", f"chunks:{model}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chunks too long to enumerate" in captured.err
    assert "Traceback" not in captured.err


def test_samples_must_be_positive(capsys):
    """``--samples`` parses as a positive integer: anything else is a usage
    error (exit 2) with a message, not a traceback."""
    for argv in (
        ["acs-check", "subst", "--samples", "0"],
        ["acs-check", "subst", "--samples", "-3"],
        ["acs-check", "chunks:" + fixture_path("pair_model.json"), "--samples", "0"],
        ["adjunction", "--samples", "-2"],
        ["church-rosser", "--samples", "many"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples: expected a positive integer" in captured.err, argv


def test_church_rosser_generated(capsys):
    code, report = run_json(
        capsys, "church-rosser", "--seed", "5", "--samples", "25"
    )
    assert code == 0
    assert report["payload"]["outcomes"] == {"Verified": 25}
    assert report["seed"] == 5


def test_ledger_rejects_invalid_lists(capsys):
    code, report = run_json(capsys, "ledger", fixture_path("pair_swapped.json"))
    assert code == 1
    assert report["status"] == "violations"


def test_church_rosser_files_verified(capsys, tmp_path):
    import shutil

    shutil.copy(
        fixture_path("backbone_model.json"), tmp_path / "backbone_model.json"
    )
    names = {"y.json": ["tx1"], "x.json": ["tx2"], "x2.json": ["tx3"]}
    for fname, txs in names.items():
        (tmp_path / fname).write_text(
            json.dumps({"model_file": "backbone_model.json", "transactions": txs})
        )
    code, report = run_json(
        capsys,
        "church-rosser",
        "--files",
        str(tmp_path / "y.json"),
        str(tmp_path / "x.json"),
        str(tmp_path / "x2.json"),
    )
    # tx2 and tx3 spend different genesis outputs, so the premises hold and
    # the conclusions must verify
    assert code == 0
    assert report["payload"]["outcomes"] == {"Verified": 1}


def test_church_rosser_files_premises_fail(capsys):
    code, report = run_json(
        capsys,
        "church-rosser",
        "--files",
        fixture_path("backbone_12.json"),
        fixture_path("backbone_34.json"),
        fixture_path("empty.json"),
    )
    # [tx3,tx4] consumes tx1/tx2 outputs, so inserting it changes nothing for
    # empty x2 — but utxi(y·x2) vs utxi(y·x·x2) differ... outcome counted either way
    assert code == 0
    assert sum(report["payload"]["outcomes"].values()) == 1


def test_church_rosser_counterexample_exits_1(capsys, monkeypatch):
    """A counterexample fails the run, and the report carries the first one."""
    reports = iter([
        ChurchRosserReport(CR_VERIFIED),
        ChurchRosserReport(CR_COUNTEREXAMPLE, "first"),
        ChurchRosserReport(CR_COUNTEREXAMPLE, "second"),
    ])
    monkeypatch.setattr(cli, "check_church_rosser", lambda y, x, x2: next(reports))
    code, report = run_json(capsys, "church-rosser", "--seed", "5", "--samples", "3")
    assert code == 1
    assert report["status"] == "violations"
    assert report["payload"] == {
        "triples": 3,
        "outcomes": {"Verified": 1, "CounterexampleFound": 2},
        "counterexample": {"status": "CounterexampleFound", "detail": "first"},
    }


def test_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CHUNKALG_SEED", "11")
    code, report = run_json(capsys, "church-rosser", "--samples", "5")
    assert report["seed"] == 11
    monkeypatch.setenv("CHUNKALG_SEED", "nope")
    assert main(["church-rosser", "--samples", "5"]) == 2


def test_reports_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        code, out = run(
            capsys, "acs-check", "finsets", "--seed", "7", "--json"
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_human_output_mentions_summary(capsys):
    code, out = run(capsys, "validate", fixture_path("pair_combined.json"))
    assert "blockchain" in out
