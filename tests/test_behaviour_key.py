"""Observational equivalence decided by behaviour keys, against the probing loop.

``obs_equiv_probe`` answers at once when the two elements' behaviour keys
are equal: the element itself by default, and a chunk's set of
transactions in a model's chunk system, which locality makes a key.
Hypothesis compares it with the frozen probing loop of
``test_checker_reference`` on finite sets, substitutions, the chunks of
generated models and the chunks of a represented model, whose validators
compose elements.  Probes include the unit, the top and renamed elements
off the carrier; pairs include both orders of a composition, reorderings
of a chunk's transactions, and near neighbours: an element beside its
renaming, or beside itself with one factor dropped.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from chunkalg.acs import ChunkAcs, FiniteSetsAcs, Fn, SubstAcs, Var, obs_equiv_probe
from chunkalg.atoms import Permutation
from chunkalg.functors import g_object
from chunkalg.generators import GenConfig, gen_model, stream
from chunkalg.ieutxo import FAIL, Chunk, check_chunk

from test_checker_reference import counting, ref_obs_equiv_probe


def _model(seed: int):
    cfg = GenConfig(seed=seed)
    return gen_model(cfg, stream(cfg), name=f"m{seed}", n_txs=3 + seed % 2)


@lru_cache(maxsize=None)
def _instance(kind: str, seed: int):
    """The instance with its carrier enumerated, so that carrier chunks
    compose by the pair table and every other chunk through ``compose``."""
    if kind == "finsets":
        inst = FiniteSetsAcs(("a", "b", "c", "d")[: 2 + seed % 3])
    elif kind == "subst":
        inst = SubstAcs(("a", "b", "c")[: 2 + seed % 2], term_pool=(Fn("c"), Var("a")))
    elif kind == "model":
        inst = ChunkAcs(_model(seed))
    else:
        inst = ChunkAcs(g_object(ChunkAcs(_model(seed))).model)
    return inst, tuple(inst.enumerate_carrier())


def _reorderings(x) -> list:
    """The other orders of a chunk's transactions that are chunks too."""
    if not isinstance(x, Chunk) or len(x) > 4:
        return []
    return [
        Chunk(txs)
        for txs in itertools.permutations(x.txs)
        if txs != x.txs and check_chunk(txs).ok
    ]


def _rename(draw, inst, x):
    """``x`` with one of its atoms swapped for another atom or a fresh one;
    for a chunk, usually a chunk off the carrier."""
    atoms = sorted(inst.posi(x))
    if not atoms:
        return x
    a = draw(st.sampled_from(atoms))
    b = draw(st.sampled_from(sorted({"w1", "w2", *atoms} - {a})))
    return inst.act(Permutation.swap(a, b), x)


def _drop_factor(draw, inst, x):
    """``x`` recomposed without one of its atomic factors."""
    if inst.is_top(x) or inst.is_bot(x):
        return x
    parts = inst.factor(x)
    del parts[draw(st.integers(0, len(parts) - 1))]
    out = inst.bot
    for part in parts:
        out = inst.mcompose(out, part)
    return out


KINDS = ("finsets", "subst", "model", "represented")
PAIRS = ("both orders", "reordered", "renamed", "factor dropped", "any two")


@st.composite
def cases(draw, kinds=KINDS):
    kind = draw(st.sampled_from(kinds))
    inst, carrier = _instance(kind, draw(st.integers(0, 5)))

    @st.composite
    def element(draw):
        x = draw(st.sampled_from(carrier))
        return _rename(draw, inst, x) if draw(st.booleans()) else x

    how = draw(st.sampled_from(PAIRS))
    x = draw(element())
    if how == "both orders":
        y = draw(element())
        x, y = inst.mcompose(x, y), inst.mcompose(y, x)
    elif how == "reordered" and _reorderings(x):
        y = draw(st.sampled_from(_reorderings(x)))
    elif how == "renamed":
        y = _rename(draw, inst, x)
    elif how == "factor dropped":
        y = _drop_factor(draw, inst, x)
    else:
        y = draw(element())
    probes = [inst.bot, inst.top] + draw(st.lists(element(), max_size=8))
    # The operands' own factors, which tend to separate near neighbours.
    probes += [p for z in (x, y) if not inst.is_top(z) for p in inst.factor(z)]
    draw(st.randoms()).shuffle(probes)
    return inst, x, y, probes


def _agrees(case) -> bool:
    inst, x, y, probes = case
    return obs_equiv_probe(x, y, probes, inst) == ref_obs_equiv_probe(x, y, probes, inst)


def _keys_equal(case) -> bool:
    inst, x, y, _ = case
    return inst.behaviour_key(x) == inst.behaviour_key(y)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_obs_equiv_matches_the_probing_loop(case):
    assert _agrees(case)


# Finding a case, or the mutants' failure, is the point; shrinking it is not.
NO_SHRINK = settings(
    max_examples=300,
    deadline=None,
    database=None,
    derandomize=True,
    phases=[Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)


def test_both_branches_are_reached():
    """Equal keys on two distinct elements (a reordered chunk, or the two
    orders of a composition), and unequal keys that the probes separate."""
    same = find(cases(), lambda c: _keys_equal(c) and c[1] != c[2], settings=NO_SHRINK)
    assert isinstance(same[0], ChunkAcs) and same[1] is not FAIL
    inst, x, y, probes = find(
        cases(("model", "represented")),
        lambda c: not _keys_equal(c) and not ref_obs_equiv_probe(c[1], c[2], c[3], c[0]),
        settings=NO_SHRINK,
    )
    assert not obs_equiv_probe(x, y, probes, inst)


def _length_key(self, x):
    return x if x is FAIL else len(x.txs)


def _input_positions_key(self, x):
    return x if x is FAIL else frozenset(i.position for tx in x.txs for i in tx.inputs)


@pytest.mark.parametrize("mutant", [_length_key, _input_positions_key])
def test_mutant_keys_fail_the_differential_test(monkeypatch, mutant):
    """A key that forgets which transactions a chunk holds conflates
    chunks that some probe separates, and the differential test fails."""
    monkeypatch.setattr(ChunkAcs, "behaviour_key", mutant)

    @NO_SHRINK
    @given(cases(("model", "represented")))
    def differential(case):
        assert _agrees(case)

    with pytest.raises(AssertionError):
        differential()


def test_chunks_over_the_same_transactions_are_decided_without_a_probe():
    inst = counting(ChunkAcs)(_model(1))
    carrier = inst.enumerate_carrier()
    pairs = [(x, y) for x in carrier for y in _reorderings(x)]
    assert pairs
    for x, y in pairs:
        assert obs_equiv_probe(x, y, carrier, inst)
    assert obs_equiv_probe(FAIL, FAIL, carrier, inst)
    assert inst.calls["mcompose"] == 0
