"""Church–Rosser from four seams against a frozen copy of its merged form.

``check_church_rosser`` decides both premises and the conclusions from
four seams on the operands' own indices and merges nothing; the earlier
check merged the indices of ``y·x``, ``y·x·x2`` and ``y·x2`` and compared
the merged ledgers.  A verbatim copy of the earlier check, with the merge
it called, is kept here as the reference, and Hypothesis requires the two
reports (status and detail) to be equal on generated confluence triples,
on triples where exactly one premise fails (each of the three seams, with
each seam violation kind, ``x`` spending an input outside ``y``'s unspent
outputs, and ``x2`` spending an output of ``x``), and on unrelated chunks
over one small atom pool, where premises also fail together.
"""

from typing import Optional

import pytest
from hypothesis import HealthCheck, event, find, given, settings
from hypothesis import strategies as st

from chunkalg import ieutxo
from chunkalg.generators import GenConfig, gen_cr_triple, gen_valid_chunk, stream
from chunkalg.ieutxo import (
    BACKWARD_OR_SELF_POINTER,
    CR_COUNTEREXAMPLE,
    CR_PREMISES_FAILED,
    CR_VERIFIED,
    DUPLICATE_INPUT_POSITION,
    DUPLICATE_OUTPUT_POSITION,
    VALIDATION_FAILED,
    Chunk,
    ChurchRosserReport,
    Input,
    Output,
    Transaction,
    _Index,
    _index_of,
    _seam,
    check_chunk,
    check_church_rosser,
    compose_all,
)
from chunkalg.scripts import AcceptAll, RejectAll


# ---------------------------------------------------------------------------
# Frozen reference: the check as it was when it merged the ledgers it read
# (its code and its merge's verbatim, apart from the ``ref_`` names)


def ref_join(x: _Index, y: _Index) -> Optional[_Index]:
    spends = _seam(x, y)
    if spends is None:
        return None
    outs = dict(x.outs)
    ins = {**x.ins, **y.ins}
    for p in spends:
        del outs[p]
        del ins[p]
    outs.update(y.outs)
    return _Index(outs, ins, x.stx.union(y.stx, spends))


def ref_check_church_rosser(y: Chunk, x: Chunk, x2: Chunk) -> ChurchRosserReport:
    iy, ix, ix2 = _index_of(y), _index_of(x), _index_of(x2)
    yx = ref_join(iy, ix)
    full = None if yx is None else ref_join(yx, ix2)
    if full is None:
        return ChurchRosserReport(CR_PREMISES_FAILED, "y·x·x2 is not a chunk")
    # y·x2 is a sublist of the chunk y·x·x2, so by locality it is a chunk.
    yx2 = ref_join(iy, ix2)
    if yx2.ins.keys() != full.ins.keys():
        return ChurchRosserReport(
            CR_PREMISES_FAILED, "utxi(y·x2) differs from utxi(y·x·x2)"
        )
    problems = []
    if (_seam(ix, ix2) is None) != (_seam(ix2, ix) is None):
        problems.append("x and x2 do not commute")
    if _seam(yx2, ix) is None:
        problems.append("y·x2·x is not a chunk")
    if problems:
        return ChurchRosserReport(CR_COUNTEREXAMPLE, "; ".join(problems))
    return ChurchRosserReport(CR_VERIFIED)


# ---------------------------------------------------------------------------
# Strategies: generated triples, one premise broken on fresh positions

# The generators name atoms with letters; these are no generated position.
FRESH = "fresh"

# (transaction appended to the left operand, transaction appended to the
# right one): a pair of chunks whose seam fails with the kind.
CLASHES = {
    DUPLICATE_OUTPUT_POSITION: (
        Transaction((), [Output(FRESH, 0, AcceptAll())]),
        Transaction((), [Output(FRESH, 1, AcceptAll())]),
    ),
    DUPLICATE_INPUT_POSITION: (
        Transaction([Input(FRESH, "k")], []),
        Transaction([Input(FRESH, "k")], []),
    ),
    BACKWARD_OR_SELF_POINTER: (
        Transaction([Input(FRESH, "k")], []),
        Transaction((), [Output(FRESH, 0, AcceptAll())]),
    ),
    VALIDATION_FAILED: (
        Transaction((), [Output(FRESH, 0, RejectAll())]),
        Transaction([Input(FRESH, "k")], []),
    ),
}

SEAMS = {"y·x": (0, 1), "y·x2": (0, 2), "x·x2": (1, 2)}


def _appended(chunk: Chunk, tx: Transaction) -> Chunk:
    return Chunk(chunk.txs + (tx,))


def _broken(triple: list, case: str, kind: str) -> list:
    """``triple`` with the premise ``case`` names broken on the fresh position."""
    triple = list(triple)
    if case in SEAMS:
        left, right = SEAMS[case]
        l_tx, r_tx = CLASHES[kind]
        triple[left], triple[right] = _appended(triple[left], l_tx), _appended(triple[right], r_tx)
    elif case == "x spends outside y":
        triple[1] = _appended(triple[1], CLASHES[DUPLICATE_INPUT_POSITION][0])
    elif case == "x2 spends x":
        spent, spender = CLASHES[BACKWARD_OR_SELF_POINTER][1], CLASHES[VALIDATION_FAILED][1]
        triple[1], triple[2] = _appended(triple[1], spent), _appended(triple[2], spender)
    return triple


CASES = ("as generated", *SEAMS, "x spends outside y", "x2 spends x", "unrelated chunks")


@st.composite
def cr_triples(draw):
    """A generated confluence triple, as generated or with one premise
    broken, or three unrelated chunks; each operand is built directly or
    rebuilt by composition, so that it carries an index."""
    case = draw(st.sampled_from(CASES))
    seed = draw(st.integers(0, 2**20))
    if case == "unrelated chunks":
        cfg = GenConfig(seed=seed, max_atoms=draw(st.integers(4, 9)), max_txs=3)
        rng = stream(cfg)
        triple = [gen_valid_chunk(cfg, rng) for _ in range(3)]
    else:
        cfg = GenConfig(seed=seed, max_atoms=draw(st.integers(6, 12)), max_txs=draw(st.integers(1, 3)))
        triple = gen_cr_triple(cfg, stream(cfg), blockchain=draw(st.booleans()))
        triple = _broken(triple, case, draw(st.sampled_from(sorted(CLASHES))))
    indexed = draw(st.lists(st.booleans(), min_size=3, max_size=3))
    return [compose_all(Chunk((tx,)) for tx in c.txs) if i else c for c, i in zip(triple, indexed)]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cr_triples())
def test_church_rosser_matches_the_frozen_reference(triple):
    want = ref_check_church_rosser(*triple)
    event(f"{want.status}: {want.detail}")
    assert check_church_rosser(*triple) == want


# ---------------------------------------------------------------------------
# The strategy reaches each case, judged from the concatenations alone


def _cat(*parts) -> tuple:
    return tuple(tx for part in parts for tx in part.txs)


def _seam_kind(left: Chunk, right: Chunk) -> str:
    violation = check_chunk(_cat(left, right)).violation
    return violation.kind if violation else "ok"


def _unspent(parts) -> tuple[frozenset, frozenset]:
    """(unspent inputs, unspent outputs) of a chunk, from its position sets:
    in a chunk each position carries at most one input and one output."""
    txs = _cat(*parts)
    ins = {i.position for tx in txs for i in tx.inputs}
    outs = {o.position for tx in txs for o in tx.outputs}
    return frozenset(ins - outs), frozenset(outs - ins)


def _only_seam_fails(name: str, kind: str):
    def holds(triple) -> bool:
        fails = {
            seam: _seam_kind(triple[left], triple[right])
            for seam, (left, right) in SEAMS.items()
        }
        return fails[name] == kind and all(
            k == "ok" for seam, k in fails.items() if seam != name
        )

    return holds


def _utxi_premise(x_outside: bool, x2_on_x: bool):
    """``y·x·x2`` is a chunk, and ``x`` has an input outside ``y``'s unspent
    outputs, and ``x2`` an input on an unspent output of ``x``, as given."""

    def holds(triple) -> bool:
        y, x, x2 = triple
        if not check_chunk(_cat(y, x, x2)).ok:
            return False
        y_outs, x_ins, x_outs, x2_ins = _unspent([y])[1], *_unspent([x]), _unspent([x2])[0]
        return bool(x_ins - y_outs) == x_outside and bool(x2_ins & x_outs) == x2_on_x

    return holds


REACHED = {
    "every premise holds": _utxi_premise(False, False),
    "x spends an input outside y's unspent outputs, alone": _utxi_premise(True, False),
    "x2 spends an output of x, alone": _utxi_premise(False, True),
    **{
        f"only the seam {name} fails, by {kind}": _only_seam_fails(name, kind)
        for name in SEAMS
        for kind in sorted(CLASHES)
    },
}


@pytest.mark.parametrize("case", sorted(REACHED))
def test_the_strategy_reaches_each_case(case):
    """Each premise failure, alone, is drawn, and there the two checks agree."""
    triple = find(cr_triples(), REACHED[case], settings=settings(max_examples=5_000, database=None))
    assert check_church_rosser(*triple) == ref_check_church_rosser(*triple)


def test_the_conclusion_reads_the_seam_x2_x(monkeypatch):
    """No triple reaches a counterexample: under both premises ``x2·x``
    spends nothing and its positions are disjoint.  With that one seam
    refused, the check must report both conclusions failed."""
    cfg = GenConfig(seed=3)
    y, x, x2 = (compose_all(Chunk((tx,)) for tx in c.txs) for c in gen_cr_triple(cfg, stream(cfg)))
    assert check_church_rosser(y, x, x2) == ChurchRosserReport(CR_VERIFIED)
    assert x.txs and x2.txs
    # Compositions keep their indices, so each operand's is one object.
    ix, ix2 = _index_of(x), _index_of(x2)
    monkeypatch.setattr(ieutxo, "_seam", lambda a, b: None if a is ix2 and b is ix else _seam(a, b))
    assert check_church_rosser(y, x, x2) == ChurchRosserReport(
        CR_COUNTEREXAMPLE, "x and x2 do not commute; y·x2·x is not a chunk"
    )
