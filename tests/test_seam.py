"""Seam composition against the from-scratch references.

``compose``, ``composable`` and ``check_church_rosser`` check only the seam
between two chunks' position indices, and merge the indices only where a
chunk is returned; ``enumerate_chunks`` checks the seam of
each ordered pair of model transactions once and walks that table; the
blocked-channel analysis asks one validator per renamed probe, and builds a
probe's transaction only when that validator reads it.  They are compared
here with ``check_chunk`` and ``pairwise_chunk_oracle`` on the
concatenation, with each seam violation kind forced, with a depth-first
walk over every list of distinct model transactions, and with the probe
path that renamed every probe with a frozen copy of the old ``_retarget``
and checked the whole concatenation.  Counts pin what a probe builds.
"""

import json
from dataclasses import FrozenInstanceError
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunkalg import ieutxo
from chunkalg.atoms import Atom, Permutation, fresh_atoms
from chunkalg.cli import _resolve_instance, main
from chunkalg.generators import GenConfig, gen_model, gen_valid_chunk, stream
from chunkalg.ieutxo import (
    BACKWARD_OR_SELF_POINTER,
    CR_COUNTEREXAMPLE,
    CR_PREMISES_FAILED,
    CR_VERIFIED,
    DUPLICATE_INPUT_POSITION,
    DUPLICATE_OUTPUT_POSITION,
    EMPTY_CHUNK,
    FAIL,
    VALIDATION_FAILED,
    Chunk,
    IeutxoModel,
    Input,
    Output,
    PointedTransaction,
    Transaction,
    blocked_utxi,
    blocked_utxo,
    check_chunk,
    check_church_rosser,
    composable,
    compose,
    compose_all,
    enumerate_chunks,
    input_channels,
    ledger_sets,
    output_channels,
    pairwise_chunk_oracle,
    pos,
    renamed_probe_chunks,
)
from chunkalg.scripts import (
    AcceptAll,
    And,
    DatumEquals,
    InputPositionIn,
    KeyEquals,
    Not,
    Or,
    RejectAll,
    SpendsAtMostNInputs,
)

from conftest import fixture_path


def _ledger_reference(txs):
    """(utxi, utxo, stx) of a chunk straight from its position sets: in a
    chunk each position carries at most one input and one output."""
    ins = {i.position for tx in txs for i in tx.inputs}
    outs = {o.position for tx in txs for o in tx.outputs}
    return frozenset(ins - outs), frozenset(outs - ins), frozenset(ins & outs)


def _indexed(ch):
    """The same chunk rebuilt by composition, so it carries an index."""
    return compose_all(Chunk((tx,)) for tx in ch.txs)


def _church_rosser_reference(y, x, x2):
    """(status, detail) of the confluence check, from ``check_chunk`` and
    ``_ledger_reference`` on the concatenations."""
    def ok(*parts):
        return check_chunk(tuple(tx for part in parts for tx in part.txs)).ok

    if not ok(y, x, x2):
        return CR_PREMISES_FAILED, "y·x·x2 is not a chunk"
    if not ok(y, x2):
        return CR_PREMISES_FAILED, "y·x2 is not a chunk"
    if _ledger_reference(y.txs + x2.txs)[0] != _ledger_reference(y.txs + x.txs + x2.txs)[0]:
        return CR_PREMISES_FAILED, "utxi(y·x2) differs from utxi(y·x·x2)"
    problems = []
    if ok(x, x2) != ok(x2, x):
        problems.append("x and x2 do not commute")
    if not ok(y, x2, x):
        problems.append("y·x2·x is not a chunk")
    if problems:
        return CR_COUNTEREXAMPLE, "; ".join(problems)
    return CR_VERIFIED, ""


@st.composite
def chunk_triples(draw):
    """Three generated chunks over one small atom pool, so seams often clash."""
    cfg = GenConfig(seed=draw(st.integers(0, 2**20)), max_atoms=draw(st.integers(4, 9)), max_txs=3)
    rng = stream(cfg)
    return [gen_valid_chunk(cfg, rng) for _ in range(3)]


def _assert_agrees(x, y):
    got = compose(x, y)
    cat = x.txs + y.txs
    ok = check_chunk(cat).ok
    assert composable(x, y) == (got is not FAIL) == ok == pairwise_chunk_oracle(cat)
    if ok:
        assert got.txs == cat
        assert ledger_sets(got) == _ledger_reference(cat)
        assert pos(got) == pos(cat)
    return got


@given(chunk_triples())
@settings(max_examples=300, deadline=None)
def test_seam_compose_agrees_with_references(chunks):
    x, y, z = chunks
    for a, b in ((x, y), (y, x), (x, z), (z, y)):
        _assert_agrees(a, b)
        _assert_agrees(_indexed(a), b)
        xy = _assert_agrees(a, _indexed(b))
        if xy is not FAIL:
            # an index derived from an index, on either side of the seam
            _assert_agrees(xy, z)
            _assert_agrees(z, xy)
    whole = compose_all(chunks)
    cat = x.txs + y.txs + z.txs
    assert (whole is not FAIL) == check_chunk(cat).ok
    if whole is not FAIL:
        assert ledger_sets(whole) == _ledger_reference(cat)
    for triple in ((x, y, z), (y, z, x), (z, x, y)):
        expected = _church_rosser_reference(*triple)
        for operands in (triple, [_indexed(c) for c in triple]):
            rep = check_church_rosser(*operands)
            assert (rep.status, rep.detail) == expected


FRESH, FRESH2 = "zz1", "zz2"


def _forced(x, kind):
    """(left chunk, right chunk) whose seam fails with ``kind``, or None when
    ``x`` offers no position to force it on."""
    u_in, u_out, spent = _ledger_reference(x.txs)
    if kind == DUPLICATE_OUTPUT_POSITION and u_out | spent:
        p = min(u_out | spent)
        return x, Chunk((Transaction((), [Output(p, 0, AcceptAll())]),))
    if kind == DUPLICATE_INPUT_POSITION and u_in | spent:
        p = min(u_in | spent)
        return x, Chunk((Transaction([Input(p, "k")], [Output(FRESH, 0, AcceptAll())]),))
    if kind == BACKWARD_OR_SELF_POINTER and u_in:
        return x, Chunk((Transaction((), [Output(min(u_in), 0, AcceptAll())]),))
    if kind == VALIDATION_FAILED:
        locked = compose(x, Chunk((Transaction((), [Output(FRESH, 0, RejectAll())]),)))
        return locked, Chunk((Transaction([Input(FRESH, "k")], [Output(FRESH2, 0, AcceptAll())]),))
    return None


@pytest.mark.parametrize(
    "kind",
    [DUPLICATE_OUTPUT_POSITION, DUPLICATE_INPUT_POSITION, BACKWARD_OR_SELF_POINTER, VALIDATION_FAILED],
)
@given(chunk_triples())
@settings(max_examples=60, deadline=None)
def test_forced_seam_violations(kind, chunks):
    for x in chunks:
        for left in (x, _indexed(x)):
            pair = _forced(left, kind)
            if pair is None:
                continue
            a, b = pair
            assert _assert_agrees(a, b) is FAIL
            assert check_chunk(a.txs + b.txs).violation.kind == kind


def test_forced_violations_on_spent_channels():
    """A channel spent inside one chunk clashes with any use on the other side."""
    a_then_spend = Chunk((
        Transaction((), [Output("a", 0, AcceptAll())]),
        Transaction([Input("a", "k")], [Output("b", 0, AcceptAll())]),
    ))
    cases = [
        (a_then_spend, Transaction((), [Output("a", 1, AcceptAll())]), DUPLICATE_OUTPUT_POSITION),
        (a_then_spend, Transaction([Input("a", "j")], [Output("c", 0, AcceptAll())]), DUPLICATE_INPUT_POSITION),
        (Chunk((Transaction([Input("a", "k")], [Output("c", 0, AcceptAll())]),)),
         a_then_spend, BACKWARD_OR_SELF_POINTER),
        # spent on both sides: only the spent channels meet
        (a_then_spend, Chunk((
            Transaction((), [Output("a", 1, AcceptAll())]),
            Transaction([Input("a", "j")], [Output("c", 0, AcceptAll())]),
        )), DUPLICATE_OUTPUT_POSITION),
    ]
    for x, y, kind in cases:
        y = y if isinstance(y, Chunk) else Chunk((y,))
        for left in (x, _indexed(x)):
            for right in (y, _indexed(y)):
                assert _assert_agrees(left, right) is FAIL
                assert check_chunk(left.txs + right.txs).violation.kind == kind


# Frozen copy of the per-probe renaming that blocked_utxi/blocked_utxo used
# before the seam check (the library's ieutxo._retarget now returns the
# permutation); the references below keep it so that they do not move with
# the library.
def _retarget(
    cand: Transaction, slot: Atom, target: Atom, avoid: frozenset[Atom]
) -> Transaction:
    """Rename the candidate so ``slot`` lands on ``target`` and everything
    else moves to fresh atoms outside ``avoid``."""
    others = sorted(pos(cand) - {slot})
    fresh = fresh_atoms(len(others), set(avoid) | pos(cand) | {target, slot})
    mapping = dict(zip(others, fresh))
    mapping[slot] = target
    return cand.rename(Permutation.extending(mapping))


def _singleton_compose_blocked(ch, model, inputs, is_chunk=lambda txs: check_chunk(txs).ok):
    """Blocked channels the way they were found before the seam check:
    every renamed probe made a singleton chunk and composed with ``ch`` by
    checking the whole concatenation (with ``check_chunk``, or the given
    reference)."""
    u_in, u_out, _ = _ledger_reference(ch.txs)
    avoid = pos(ch.txs)
    blocked = set()
    for a in u_in if inputs else u_out:
        connects = False
        for cand in model.probe_candidates:
            for slot in cand.outputs if inputs else cand.inputs:
                probe = _retarget(cand, slot.position, a, avoid)
                if input_channels(probe) & output_channels(probe):
                    continue
                cat = (probe,) + ch.txs if inputs else ch.txs + (probe,)
                connects = connects or is_chunk(cat)
        if not connects:
            blocked.add(a)
    return frozenset(blocked)


@given(st.integers(0, 2**20), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_probe_loop_and_enumeration_match_references(seed, n_txs):
    cfg = GenConfig(seed=seed, max_txs=n_txs)
    rng = stream(cfg)
    model = gen_model(cfg, rng, n_txs=n_txs)
    chunks = list(enumerate_chunks(model))
    txs = model.transactions
    # The empty list, then depth first over the transactions in label order,
    # each list after its extensions: lexicographic order of label ranks,
    # each list ended by a rank above every transaction's.
    n = len(txs)
    rank = {j: r for r, j in enumerate(sorted(range(n), key=lambda j: txs[j].label()))}
    lists = [p for r in range(n + 1) for p in permutations(range(n), r)]
    walk = sorted(lists, key=lambda p: (len(p) > 0, tuple(rank[j] for j in p) + (n,)))
    valid = [p for p in (tuple(txs[i] for i in p) for p in walk) if check_chunk(p).ok]
    assert [c.txs for c in chunks] == valid
    assert chunks[0] is EMPTY_CHUNK
    for c in chunks:
        assert ledger_sets(c) == _ledger_reference(c.txs)
    for ch in chunks[:10] + [gen_valid_chunk(cfg, rng) for _ in range(3)]:
        for probed in (Chunk(ch.txs), _indexed(ch)):
            assert blocked_utxi(probed, model) == _singleton_compose_blocked(ch, model, True)
            assert blocked_utxo(probed, model) == _singleton_compose_blocked(ch, model, False)


def test_empty_chunk_is_the_unit_for_indexed_chunks(pair_txs):
    ch = _indexed(Chunk(pair_txs))
    assert compose(ch, EMPTY_CHUNK) == ch == compose(EMPTY_CHUNK, ch)
    assert composable(ch, EMPTY_CHUNK) and composable(EMPTY_CHUNK, ch)
    assert not composable(ch, FAIL) and not composable(FAIL, ch)
    assert ledger_sets(compose(ch, EMPTY_CHUNK)) == ledger_sets(Chunk(pair_txs))


def _count_calls(monkeypatch, name):
    """The arguments of every call to ``ieutxo.<name>`` from here on."""
    calls = []
    real = getattr(ieutxo, name)
    monkeypatch.setattr(ieutxo, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_the_unit_carries_its_index(pair_txs, monkeypatch):
    """Composing with the unit, or any empty chunk, builds no index for it:
    none at all next to a composition, and only the other operand's next to
    a directly built chunk."""
    calls = _count_calls(monkeypatch, "_build_index")
    indexed, plain = _indexed(Chunk(pair_txs)), Chunk(pair_txs)
    calls.clear()
    for unit in (EMPTY_CHUNK, Chunk(())):
        for x in (indexed, EMPTY_CHUNK, Chunk(())):
            assert compose(unit, x) == x == compose(x, unit)
    assert calls == []
    assert compose(EMPTY_CHUNK, plain) == plain == compose(plain, Chunk(()))
    assert calls == [(pair_txs,), (pair_txs,)]


def test_enumeration_and_church_rosser_index_each_operand_once(backbone_model, monkeypatch):
    """Enumeration builds one index per model transaction, checks the n²
    seams of their ordered pairs once and merges none; a Church–Rosser
    check indexes each operand once and decides from four seams on those
    indices (y·x, y·x2, x·x2 and x2·x), merging none.  Every index is
    an ``_Index`` built by ``_build_index`` or by a merge, so counting the
    ``_Index`` values built counts the merges."""
    calls = _count_calls(monkeypatch, "_build_index")
    indices, seams = _count_calls(monkeypatch, "_Index"), _count_calls(monkeypatch, "_seam")
    txs = backbone_model.transactions
    chunks = list(enumerate_chunks(backbone_model))
    assert len(chunks) > len(txs)
    assert calls == [((tx,),) for tx in txs]
    assert (len(indices), len(seams)) == (len(txs), len(txs) ** 2)
    tx1, tx2, tx3, _ = txs
    for counted in (calls, indices, seams):
        counted.clear()
    y, x, x2 = Chunk((tx1,)), Chunk((tx2,)), Chunk((tx3,))
    assert check_church_rosser(y, x, x2).status == CR_VERIFIED
    assert calls == [(y.txs,), (x.txs,), (x2.txs,)]
    assert (len(indices), len(seams)) == (3, 4)
    (iy, ix), (_, ix2) = seams[0], seams[1]
    assert seams == [(iy, ix), (iy, ix2), (ix, ix2), (ix2, ix)]
    # A composition is the one merge: its index is the third built here.
    for counted in (calls, indices, seams):
        counted.clear()
    assert compose(y, x) is not FAIL
    assert (len(calls), len(indices), len(seams)) == (2, 3, 1)


# Atom pool of the probe differential: "z1"/"z2" are the first names
# fresh_atoms mints, so chunks often hold them and fresh atoms must avoid them.
PROBE_POOL = ("a", "b", "c", "z1", "z2")
_atom_tuples = st.lists(st.sampled_from(PROBE_POOL), min_size=1, max_size=2).map(tuple)
# Keys and datums: opaque strings and ints, or tuples whose strings are atoms
# and are renamed with the transaction.
_payloads = st.one_of(st.sampled_from(["k0", "k1"]), st.integers(0, 1), _atom_tuples)
_leaves = st.one_of(
    st.just(AcceptAll()),
    st.just(RejectAll()),
    st.builds(KeyEquals, _payloads),
    st.builds(DatumEquals, _payloads),
    st.builds(InputPositionIn, st.frozensets(st.sampled_from(PROBE_POOL), min_size=1, max_size=3)),
    st.builds(SpendsAtMostNInputs, st.integers(0, 2)),
)
_scripts = st.recursive(
    _leaves,
    lambda s: st.one_of(st.builds(Not, s), st.builds(And, s, s), st.builds(Or, s, s)),
    max_leaves=3,
)


@st.composite
def _pool_txs(draw, distinct):
    """A transaction over PROBE_POOL; with ``distinct`` its positions are
    distinct, otherwise it may repeat a position or use none at all."""
    positions = st.sampled_from(PROBE_POOL)
    if distinct:
        ps = draw(st.lists(positions, min_size=1, max_size=3, unique=True))
        is_out = draw(st.lists(st.booleans(), min_size=len(ps), max_size=len(ps)))
        ins = [p for p, o in zip(ps, is_out) if not o]
        outs = [p for p, o in zip(ps, is_out) if o]
    else:
        ins = draw(st.lists(positions, max_size=2))
        outs = draw(st.lists(positions, max_size=2))
    return Transaction(
        [Input(p, draw(_payloads)) for p in ins],
        [Output(p, draw(_payloads), draw(_scripts)) for p in outs],
    )


# Support-free candidates: opaque string or integer keys and datums, and
# validators that name no atom.
_free_leaves = st.one_of(
    st.just(AcceptAll()),
    st.just(RejectAll()),
    st.builds(KeyEquals, st.sampled_from(["k0", "k1", 0])),
    st.builds(DatumEquals, st.sampled_from(["k0", 0, 1])),
    st.builds(SpendsAtMostNInputs, st.integers(0, 2)),
)
_free_scripts = st.recursive(
    _free_leaves,
    lambda s: st.one_of(st.builds(Not, s), st.builds(And, s, s), st.builds(Or, s, s)),
    max_leaves=3,
)


@st.composite
def _free_txs(draw):
    ps = draw(st.lists(st.sampled_from(PROBE_POOL), min_size=1, max_size=3, unique=True))
    is_out = draw(st.lists(st.booleans(), min_size=len(ps), max_size=len(ps)))
    opaque = st.sampled_from(["k0", "k1", 0, 1])
    return Transaction(
        [Input(p, draw(opaque)) for p, o in zip(ps, is_out) if not o],
        [Output(p, draw(opaque), draw(_free_scripts)) for p, o in zip(ps, is_out) if o],
    )


@st.composite
def _named_position_txs(draw, ch):
    """A candidate with support: its one output accepts only inputs at the
    positions an ``InputPositionIn`` names, among them z1 (the first fresh
    atom) or an atom of ``ch``, which the probes query; with an input that
    may be spent or spend there."""
    named = {draw(st.sampled_from(("z1",) + tuple(sorted(pos(ch)) or ("a",))))}
    named |= draw(st.frozensets(st.sampled_from(PROBE_POOL), max_size=2))
    out_at, in_at = draw(st.lists(st.sampled_from(PROBE_POOL), min_size=2, max_size=2, unique=True))
    script = draw(st.sampled_from([
        InputPositionIn(frozenset(named)),
        Not(InputPositionIn(frozenset(named))),
        Or(KeyEquals("k0"), InputPositionIn(frozenset(named))),
    ]))
    return Transaction([Input(in_at, draw(st.sampled_from(["k0", "k1"])))], [Output(out_at, 0, script)])


def _has_support(tx):
    facts = ieutxo._probe_facts(tx)
    return facts is not None and not facts[2]


@st.composite
def probe_cases(draw):
    """(probed chunk, model): a chunk grown from pool transactions that keep
    it a chunk, then an unspent output outside the pool that limits its
    spender's inputs, and a probe universe of one of three kinds: at least
    one support-free candidate and one naming positions in a validator,
    among pool transactions, some of which are not chunks on their own;
    support-free candidates only; or candidates with support only."""
    ch = EMPTY_CHUNK
    for tx in draw(st.lists(_pool_txs(True), min_size=1, max_size=4)):
        grown = compose(ch, Chunk((tx,)))
        ch = ch if grown is FAIL else grown
    # An unspent output whose validator reads the spender's transaction, with
    # a limit on either side of the candidates' input counts (0 to 3); behind
    # a point-local Or, the transaction is read only when the key misses.
    limit = SpendsAtMostNInputs(draw(st.integers(0, 3)))
    reads = draw(st.sampled_from([limit, Or(KeyEquals("k0"), limit)]))
    at = draw(st.sampled_from(("d", "z3")))
    ch = compose(ch, Chunk((Transaction((), [Output(at, 0, reads)]),)))
    kind = draw(st.sampled_from(("mixed", "support-free", "with support")))
    if kind == "mixed":
        cands = [draw(_free_txs()), draw(_named_position_txs(ch))]
        more = st.one_of(_free_txs(), _pool_txs(True), _pool_txs(False))
    elif kind == "support-free":
        cands, more = [draw(_free_txs())], _free_txs()
    else:
        cands = [draw(_named_position_txs(ch))]
        more = st.one_of(_named_position_txs(ch), _pool_txs(True).filter(_has_support))
    cands += draw(st.lists(more, max_size=2))
    cands = draw(st.permutations(cands))
    model = IeutxoModel("probes", (), probe_candidates=tuple(cands))
    for table in (model._out_probes, model._in_probes):
        # Support-free candidates come first in each side's table.
        free = [support_free for *_, support_free in table]
        assert free == sorted(free, reverse=True)
        assert kind != "support-free" or all(free)
        assert kind != "with support" or not any(free)
    return Chunk(ch.txs), model


def _renamed_probe_chunks_reference(atoms, model):
    avoid = frozenset(atoms)
    out = []
    for a in sorted(avoid):
        for cand in model.probe_candidates:
            if not check_chunk((cand,)).ok:
                continue
            for slot in sorted(pos(cand)):
                out.append((_retarget(cand, slot, a, avoid),))
    return out


@given(probe_cases())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_probe_plan_matches_singleton_reference(case):
    """One validator call per probe, with fresh atoms planned once per call,
    against renaming each probe afresh and checking the whole concatenation,
    on universes that mix both kinds or hold one kind only: support-free
    candidates, read from the model's slot tables, and candidates with
    support, whose validators, keys and datums name atoms (fresh ones
    and queried ones too); validators that read the whole spending
    transaction, whether the spender is built or not, queried atoms among
    the candidates' positions, and non-chunk candidates.  The reference
    checks each concatenation with ``check_chunk`` and with
    ``pairwise_chunk_oracle``."""
    ch, model = case
    for inputs, blocked in ((True, blocked_utxi), (False, blocked_utxo)):
        want = _singleton_compose_blocked(ch, model, inputs)
        assert want == _singleton_compose_blocked(ch, model, inputs, pairwise_chunk_oracle)
        for probed in (ch, _indexed(ch)):
            assert blocked(probed, model) == want
    for atoms in (pos(ch), PROBE_POOL[:2]):
        got = [c.txs for c in renamed_probe_chunks(atoms, model)]
        assert got == _renamed_probe_chunks_reference(atoms, model)


def test_blocked_verdicts_depend_on_the_whole_chunk():
    """Whether an unspent input is blocked is not decided by its own
    transaction alone: a probe's fresh atoms avoid every position of the
    chunk, so another transaction's output can rule out the one renaming
    that connects."""
    cand = Transaction([Input("r", "k0")], [Output("p", 0, KeyEquals(("r",)))])
    model = IeutxoModel("m", (cand,))
    t1 = Transaction((), [Output("z1", 0, AcceptAll())])
    t2 = Transaction([Input("a", ("z1",))], [])
    whole, alone = Chunk((t1, t2)), Chunk((t2,))
    # The only renaming that connects at a sends r to z1, where t1 outputs.
    connecting = Chunk((cand.rename(Permutation.extending({"r": "z1", "p": "a"})),))
    assert compose(connecting, alone) is not FAIL and compose(connecting, whole) is FAIL
    assert blocked_utxi(whole, model) == {"a"} == _singleton_compose_blocked(whole, model, True)
    assert blocked_utxi(alone, model) == frozenset() == _singleton_compose_blocked(alone, model, True)


@given(probe_cases())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_probes_check_no_chunk_after_the_model_is_built(case):
    """Which candidates are chunks on their own is found when the model is
    built; a blocked-channel query or probe closure never asks again."""
    ch, model = case
    calls = []
    real = ieutxo.check_chunk
    ieutxo.check_chunk = lambda txs: calls.append(txs) or real(txs)
    try:
        blocked_utxi(ch, model)
        blocked_utxo(ch, model)
        renamed_probe_chunks(pos(ch), model)
    finally:
        ieutxo.check_chunk = real
    assert calls == []


# The probe universe of perfbench's ledger-ingest workload: support-free
# candidates, whose input keys are the only keys it offers.
LEDGER_PROBES = IeutxoModel("ledger-probes", (
    Transaction([Input("u1", "k0")], [Output("u2", 0, KeyEquals("k0"))]),
    Transaction([Input("u3", "k1")], [Output("u4", 1, KeyEquals("k1")), Output("u5", 2, RejectAll())]),
))


def _count_retargets(monkeypatch):
    """Every call from here on that retargets a probe, mints its fresh atoms
    or builds its permutation: ``_retarget``, ``fresh_atoms`` and
    ``Permutation.extending``."""
    calls = []
    for owner, name in ((ieutxo, "_retarget"), (ieutxo, "fresh_atoms"), (Permutation, "extending")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    return calls


def test_point_local_probes_build_no_transaction(monkeypatch):
    """A ledger-ingest-style block, every validator point-local: no probe
    builds a spender, and each probe of an unspent input hands the
    spender's validator the candidate's own output, not a renamed one.
    The candidates are support-free, so no probe is retargeted: nothing is
    minted or renamed."""
    block = Chunk((
        Transaction([Input("c1", "k0"), Input("c2", "k5")],
                    [Output("p1", 0, KeyEquals("k0")), Output("p2", 1, KeyEquals("k7"))]),
        Transaction([Input("p1", "k0")], [Output("p3", 2, AcceptAll()), Output("p4", 3, DatumEquals(3))]),
        Transaction([Input("c3", "k1")], [
            Output("p5", 4, InputPositionIn(frozenset({"p5", "q3"}))),
            Output("p6", 5, Or(RejectAll(), Not(RejectAll()))),
        ]),
        Transaction([Input("p2", "k7")], [
            Output("p7", 6, And(KeyEquals("k1"), Not(RejectAll()))),
            Output("p8", 7, RejectAll()),
        ]),
    ))
    assert _singleton_compose_blocked(block, LEDGER_PROBES, True) == {"c2"}
    assert _singleton_compose_blocked(block, LEDGER_PROBES, False) == {"p8"}
    retargeted = _count_retargets(monkeypatch)
    built = _record_spenders(monkeypatch)
    checked = _count_calls(monkeypatch, "validates")
    assert blocked_utxi(block, LEDGER_PROBES) == {"c2"}
    cand_outputs = [o for tx in LEDGER_PROBES.probe_candidates for o in tx.outputs]
    assert checked and all(any(out is o for o in cand_outputs) for out, _ in checked)
    checked.clear()
    assert blocked_utxo(block, LEDGER_PROBES) == {"p8"}
    assert len(checked) == 8  # p3 to p6 take the first probe, p7 the second, p8 neither
    assert built == [] and retargeted == []


def _record_spenders(monkeypatch):
    """(point, spender) for every spender a probe context builds from here on."""
    built = []
    real = ieutxo._SpendingContext

    def recording(point, build):
        return real(point, lambda: built.append((point, build())) or built[-1][1])

    monkeypatch.setattr(ieutxo, "_SpendingContext", recording)
    return built


def _reference_spenders(ch, model, a):
    """The reference ``_retarget``'s probe of each input slot of each
    candidate that is a chunk on its own, at the queried atom ``a``."""
    return [
        _retarget(cand, slot.position, a, pos(ch.txs))
        for cand in model.probe_candidates
        if check_chunk((cand,)).ok
        for slot in cand.inputs
    ]


def _assert_reference_spenders(built, ch, model):
    """Each built spender is a reference probe at its point's position, and
    holds its point."""
    for point, tx in built:
        assert tx in _reference_spenders(ch, model, point.position)
        assert point in tx.inputs


def test_spends_at_most_n_inputs_builds_one_transaction_per_probe(monkeypatch):
    """An unspent output that limits its spender's inputs builds one
    spender for each probe it evaluates, holding the probe's point, and
    mints that probe's fresh atoms and permutation then; a point-local one
    beside it builds none.  Each spender is the reference's renamed probe,
    in the order the probes are evaluated."""
    block = Chunk((Transaction([Input("c", "k0")], [
        Output("s0", 0, SpendsAtMostNInputs(0)),
        Output("s1", 0, SpendsAtMostNInputs(1)),
        Output("t", 0, AcceptAll()),
    ]),))
    retargeted = _count_retargets(monkeypatch)
    built = _record_spenders(monkeypatch)
    checked = _count_calls(monkeypatch, "validates")
    # both candidates spend one input: s0 refuses both, s1 takes the first
    assert blocked_utxo(block, LEDGER_PROBES) == {"s0"}
    reading = [ctx for out, ctx in checked if isinstance(out.validator, SpendsAtMostNInputs)]
    assert len(reading) == len(built) == 3 and len(checked) == 4
    for ctx, (_, tx) in zip(reading, built):
        assert ctx.transaction is tx and ctx.point in tx.inputs
    assert retargeted == ["_retarget", "fresh_atoms", "extending"] * 3
    _assert_reference_spenders(built, block, LEDGER_PROBES)
    first, second = (_reference_spenders(block, LEDGER_PROBES, a) for a in ("s0", "s1"))
    assert [tx for _, tx in built] == first + second[:1]


# Support-free candidates whose positions are the names fresh_atoms mints.
MINTED_PROBES = IeutxoModel("minted-probes", (), probe_candidates=(
    Transaction([Input("z1", "k0")], [Output("z2", 0, AcceptAll())]),
    Transaction([Input("u1", "k0"), Input("z2", "k1")], [Output("z1", 1, RejectAll())]),
))


def test_spenders_with_minted_positions_match_reference(monkeypatch):
    """A spender's fresh atoms avoid the candidate's own positions, minted
    names among them, as the reference's do: every input slot is tried
    against an output that refuses all spenders."""
    block = Chunk((Transaction((), [Output("d", 0, SpendsAtMostNInputs(0))]),))
    built = _record_spenders(monkeypatch)
    assert blocked_utxo(block, MINTED_PROBES) == {"d"}
    assert len(built) == 3
    assert built[1][1] == Transaction(
        [Input("d", "k0"), Input("z4", "k1")], [Output("z3", 1, RejectAll())]
    )
    _assert_reference_spenders(built, block, MINTED_PROBES)


@given(probe_cases())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_built_spenders_match_reference(case):
    """On every generated universe, each spender a validator reads is the
    reference's renamed probe."""
    ch, model = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = _record_spenders(monkeypatch)
        blocked_utxo(ch, model)
    _assert_reference_spenders(built, ch, model)


def test_spending_context_checks_its_point():
    """The spender's transaction is built on first read, once, and must hold
    the point, as a PointedTransaction's must."""
    tx = Transaction([Input("b", "k")], [Output("c", 0, AcceptAll())])
    builds = []
    ctx = ieutxo._SpendingContext(Input("b", "k"), lambda: builds.append(tx) or tx)
    assert builds == []
    assert ctx.transaction is tx and ctx.transaction is tx and builds == [tx]
    with pytest.raises(ValueError) as want:
        PointedTransaction(tx, Input("a", "k"))
    with pytest.raises(ValueError) as got:
        ieutxo._SpendingContext(Input("a", "k"), lambda: tx).transaction
    assert str(got.value) == str(want.value)


def test_cli_default_universe_matches_reference(tmp_path):
    """A model file without probe candidates probes its enumeration, both
    as a ``chunks:`` instance and for ``adjunction``."""
    path = tmp_path / "model.json"
    with open(fixture_path("blocked_model.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    del obj["probe_candidates"]
    path.write_text(json.dumps(obj))
    inst, elements = _resolve_instance(f"chunks:{path}", 200, 0)
    model = inst.model
    assert model.probe_candidates == model.transactions
    with pytest.raises(FrozenInstanceError):
        model.probe_candidates = ()
    chunks = [x for x in elements if x is not FAIL]
    assert len(chunks) > 3
    for ch in chunks:
        assert blocked_utxi(ch, model) == _singleton_compose_blocked(ch, model, True)
        assert blocked_utxo(ch, model) == _singleton_compose_blocked(ch, model, False)
    assert blocked_utxo(Chunk((model.transactions[0],)), model) == {"m"}
    assert main(["adjunction", "--model", str(path), "--json"]) == 0
