"""Every instance samples through one sampler, ``AcsInstance.sample_elements``.

A sample of ``n`` is ``min(n, carrier size)`` distinct carrier elements:
the whole carrier, in its order, when it is no larger than ``n``, and
otherwise bot and top first, then a seeded draw.  A law's ``checked``
count over a sample therefore counts distinct elements.

The sampler it replaced kept bot and top and drew ``n - 2`` elements from
the whole carrier, dropping a draw of bot or top without drawing again, so
it could return fewer than ``n``.  It is frozen here as the reference:
wherever it returned ``n`` distinct elements, the sample must not change.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg.acs import AcsInstance, ChunkAcs, FiniteSetsAcs, Fn, SubstAcs, Var
from chunkalg.generators import GenConfig, gen_model, stream

TERMS = (Fn("c"), Fn("f", (Var("a"),)), Var("b"))


def _reference_sample_from(pool: list, n: int, seed: int, bot, top) -> list:
    """Deterministic sample that always keeps bot and top."""
    if n >= len(pool):
        return list(pool)
    rng = random.Random(seed)
    picked = rng.sample(pool, max(0, n - 2))
    out = [bot, top]
    for x in picked:
        if x not in out:
            out.append(x)
    return out[:n]


def _chunk_acs(seed: int, n_txs: int) -> ChunkAcs:
    cfg = GenConfig(seed=seed, max_txs=n_txs)
    return ChunkAcs(gen_model(cfg, stream(cfg), name=f"m{seed}", n_txs=n_txs))


FINSETS = st.builds(FiniteSetsAcs, st.lists(st.sampled_from("abcde"), max_size=5))
SUBSTS = st.builds(SubstAcs) | st.builds(
    SubstAcs,
    st.lists(st.sampled_from("abc"), max_size=3),
    st.lists(st.sampled_from(TERMS), max_size=4),
)
CHUNKS = st.builds(_chunk_acs, st.integers(0, 2**20), st.integers(1, 5))


def _draw_n_and_seed(data, carrier: list) -> tuple[int, int]:
    n = data.draw(st.integers(0, len(carrier) + 2), label="n")
    return n, data.draw(st.integers(0, 2**32), label="seed")


@given(FINSETS | SUBSTS | CHUNKS, st.data())
@settings(max_examples=200, deadline=None)
def test_a_sample_is_distinct_carrier_elements_bot_and_top_first(inst, data):
    carrier = inst.enumerate_carrier()
    n, seed = _draw_n_and_seed(data, carrier)
    sample = inst.sample_elements(n, seed)
    assert len(sample) == min(n, len(carrier))
    assert len(set(sample)) == len(sample)
    assert all(x in carrier for x in sample)
    if n < len(carrier):
        assert sample[:2] == [inst.bot, inst.top][:n]
    else:
        assert sample == carrier
    assert inst.sample_elements(n, seed) == sample


@given(FINSETS | CHUNKS, st.data())
@settings(max_examples=150, deadline=None)
def test_a_sample_the_old_sampler_got_right_is_unchanged(inst, data):
    carrier = inst.enumerate_carrier()
    n, seed = _draw_n_and_seed(data, carrier)
    old = _reference_sample_from(carrier, n, seed, inst.bot, inst.top)
    if len(old) == n and len(set(old)) == n:
        assert inst.sample_elements(n, seed) == old


def test_every_instance_samples_through_the_base_sampler():
    """``FiniteSetsAcs`` and ``SubstAcs`` inherit it; ``ChunkAcs`` names it
    in its own dict, for the tracer, and answers what the base answers."""
    for cls in (FiniteSetsAcs, SubstAcs):
        assert "sample_elements" not in vars(cls)
    inst = _chunk_acs(7, 5)
    for n, seed in ((3, 0), (12, 5), (40, 9)):
        assert inst.sample_elements(n, seed) == AcsInstance.sample_elements(inst, n, seed)
