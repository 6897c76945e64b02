"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by.  Every criterion runs at its stated scale and tolerance; nothing is
deferred to later calibration.
"""

import json
import time

import pytest

from chunkalg.acs import ChunkAcs, FiniteSetsAcs, Fn, SubstAcs, perm_acs_arrow
from chunkalg.atoms import Permutation, fresh_atoms
from chunkalg.axioms import (
    atomic_axiom_check,
    derived_orientation,
    monoid_axiom_check,
    oriented_axiom_check,
    partial_converse_check,
)
from chunkalg.cli import main
from chunkalg.functors import check_adjunction, f_arrow, g_arrow, g_object
from chunkalg.generators import (
    GenConfig,
    gen_arrow,
    gen_cr_triple,
    gen_model,
    gen_txlist,
    gen_valid_chunk,
    stream,
)
from chunkalg.ieutxo import (
    CR_VERIFIED,
    Chunk,
    EMPTY_CHUNK,
    FAIL,
    blocked_utxi,
    blocked_utxo,
    check_church_rosser,
    chunk_leq,
    commuting,
    compose,
    identity_arrow,
    is_blockchain,
    is_chunk,
    pairwise_chunk_oracle,
    pos,
    renamed_probe_chunks,
    stx,
    utxi,
    utxo,
)
from chunkalg.jsonio import load_txlist

from conftest import fixture_path


def _line(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_locality_oracle():
    t0 = time.time()
    cfg = GenConfig(seed=1001, max_txs=6, max_atoms=8)
    rng = stream(cfg)
    disagreements = 0
    for _ in range(1000):
        txs = gen_txlist(cfg, rng)
        if is_chunk(txs) != pairwise_chunk_oracle(txs):
            disagreements += 1
    elapsed = time.time() - t0
    _line(
        1,
        disagreements == 0 and elapsed < 10.0,
        f"1000 transaction lists, oracle agreement, {elapsed:.2f}s",
    )


def test_criterion_2_down_closure():
    cfg = GenConfig(seed=1002)
    rng = stream(cfg)
    bad = 0
    for _ in range(500):
        ch = gen_valid_chunk(cfg, rng)
        n = len(ch.txs)
        for _ in range(min(50, 2**n)):
            mask = rng.randrange(2**n)
            sub = tuple(ch.txs[i] for i in range(n) if mask >> i & 1)
            if not is_chunk(sub):
                bad += 1
    _line(2, bad == 0, "500 chunks x 50 sampled sublists all valid")


def test_criterion_3_partial_monoid_laws():
    cfg = GenConfig(seed=1003)
    rng = stream(cfg)
    elems = [gen_valid_chunk(cfg, rng) for _ in range(80)] + [EMPTY_CHUNK, FAIL]
    bad = 0
    for _ in range(2000):
        x, y, z = (elems[rng.randrange(len(elems))] for _ in range(3))
        if compose(compose(x, y), z) != compose(x, compose(y, z)):
            bad += 1
        if compose(EMPTY_CHUNK, x) != x or compose(x, EMPTY_CHUNK) != x:
            bad += 1
        if compose(FAIL, x) is not FAIL or compose(x, FAIL) is not FAIL:
            bad += 1
        # monotone / down-closed against a random sub-chunk of x
        if x is not FAIL:
            mask = rng.randrange(2 ** len(x.txs)) if x.txs else 0
            sub = Chunk(tuple(t for i, t in enumerate(x.txs) if mask >> i & 1))
            if compose(x, y) is not FAIL and compose(sub, y) is FAIL:
                bad += 1
            if not chunk_leq(compose(sub, y), compose(x, y)):
                bad += 1
            if not chunk_leq(compose(y, sub), compose(y, x)):
                bad += 1
        if not (chunk_leq(x, compose(x, y)) and chunk_leq(y, compose(x, y))):
            bad += 1
    _line(3, bad == 0, "2000 sampled triples: unit/absorption/assoc/monotone")


def test_criterion_4_freshness_equivalence():
    cfg = GenConfig(seed=1004)
    rng = stream(cfg)
    pairs = 0
    bad = 0
    while pairs < 1000:
        x = gen_valid_chunk(cfg, rng)
        if rng.random() < 0.5:
            interface = sorted(pos(x))
            perm = Permutation.extending(
                dict(zip(interface, fresh_atoms(len(interface), interface)))
            )
            y = x.rename(perm)
        else:
            y = gen_valid_chunk(cfg, rng)
        xy, yx = compose(x, y), compose(y, x)
        if xy is FAIL and yx is FAIL:
            continue
        pairs += 1
        disjoint = not (pos(x) & pos(y))
        both = xy is not FAIL and yx is not FAIL
        if not (disjoint == both == commuting(x, y)):
            bad += 1
    _line(4, bad == 0, "1000 composable pairs: three freshness conditions coincide")


def test_criterion_5_church_rosser():
    t0 = time.time()
    cfg = GenConfig(seed=1005)
    rng = stream(cfg)
    bad = 0
    for _ in range(500):
        y, x, x2 = gen_cr_triple(cfg, rng)
        if check_church_rosser(y, x, x2).status != CR_VERIFIED:
            bad += 1
    for _ in range(100):
        y, x, x2 = gen_cr_triple(cfg, rng, blockchain=True)
        yx2 = compose(y, x2)
        full = compose(compose(y, x), x2)
        if yx2 is FAIL or not is_blockchain(yx2):
            bad += 1
        elif full is not FAIL and is_blockchain(full) and not commuting(x, x2):
            bad += 1
    elapsed = time.time() - t0
    _line(5, bad == 0 and elapsed < 30.0, f"500 + 100 confluence triples, {elapsed:.2f}s")


def test_criterion_6_fixture_reproduction():
    def chunk_of(name):
        txs, _ = load_txlist(fixture_path(name))
        return txs

    checks = []
    checks.append(is_chunk(chunk_of("pair_combined.json")))
    checks.append(not is_chunk(chunk_of("pair_swapped.json")))
    for name in ("backbone_full.json", "backbone_full_alt.json",
                 "backbone_12.json", "backbone_13.json"):
        txs = chunk_of(name)
        checks.append(is_chunk(txs) and is_blockchain(txs))
    for name in ("backbone_34.json", "backbone_24.json", "pair_first_alone.json"):
        txs = chunk_of(name)
        checks.append(is_chunk(txs) and not is_blockchain(txs))
    swapped = chunk_of("backbone_21.json")
    checks.append(not is_chunk(swapped))
    # the genesis singleton: a chunk, and by the definition a blockchain,
    # because it has no inputs at all (see the companion xfail below for the
    # literal classification it is sometimes given)
    tx1 = chunk_of("backbone_tx1.json")
    checks.append(is_chunk(tx1) and utxi(tx1) == frozenset())
    ok = all(checks)
    _line(6, ok, "worked-example fixtures reproduce every coherent classification")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the classification table lists the genesis singleton as a"
        " non-blockchain 'because it has unspent inputs', but a genesis"
        " transaction has no inputs, so its utxi is empty and the definition"
        " (blockchain = chunk with empty utxi) makes it a blockchain;"
        " the listing contradicts the definition it cites"
    ),
)
def test_criterion_6_genesis_singleton_as_literally_stated():
    txs, _ = load_txlist(fixture_path("backbone_tx1.json"))
    assert not is_blockchain(txs)


def test_criterion_7_acs_axiom_audits():
    t0 = time.time()
    fs = FiniteSetsAcs(("a", "b", "c", "d"))
    su = SubstAcs(("a", "b", "c", "d"), term_pool=(Fn("c"),))
    exhaustive_ok = True
    for inst in (fs, su):
        carrier = inst.enumerate_carrier()
        exhaustive_ok &= monoid_axiom_check(inst, carrier).ok
        exhaustive_ok &= oriented_axiom_check(inst, carrier).ok
        exhaustive_ok &= atomic_axiom_check(inst, carrier).ok
        exhaustive_ok &= partial_converse_check(inst, carrier).ok
    small_elapsed = time.time() - t0

    cfg = GenConfig(seed=1007)
    rng = stream(cfg)
    chunk_ok = True
    for i in range(20):
        inst = ChunkAcs(gen_model(cfg, rng, name=f"acc7-{i}", n_txs=4))
        elems = inst.sample_elements(60, seed=100 + i)
        probes = inst.sample_elements(20, seed=200 + i)
        chunk_ok &= monoid_axiom_check(
            inst, elems, pair_cap=4000, triple_cap=6000, list_samples=120
        ).ok
        chunk_ok &= oriented_axiom_check(inst, elems, probes=probes, pair_cap=3000).ok
        chunk_ok &= atomic_axiom_check(inst, elems, strict=True, pair_cap=3000).ok
        chunk_ok &= partial_converse_check(
            inst, elems, probes=probes, pair_cap=3000
        ).ok
    ok = exhaustive_ok and chunk_ok and small_elapsed < 0.2
    _line(
        7,
        ok,
        f"finsets+subst exhaustive in {small_elapsed*1000:.0f}ms; "
        "20 chunk systems pass all checkers incl. strict",
    )


def test_criterion_8_pos_eq_posi_witnesses():
    cfg = GenConfig(seed=1008)
    rng = stream(cfg)
    bad = 0
    for _ in range(200):
        x = gen_valid_chunk(cfg, rng)
        interface = sorted(pos(x))
        for a in interface:
            movable = [b for b in interface if b != a]
            for _ in range(20):
                rng.shuffle(movable)
                chosen = sorted(movable[: rng.randint(0, len(movable))])
                targets = fresh_atoms(len(chosen), interface, prefix="v")
                perm = Permutation.extending(dict(zip(chosen, targets)))
                assert perm.fixes(a)
                moved = x.rename(perm)
                if compose(x, moved) is not FAIL or compose(moved, x) is not FAIL:
                    bad += 1
        # conversely: atoms outside the interface admit a successful
        # composition under a fresh renaming that fixes them
        for b in fresh_atoms(2, interface, prefix="w"):
            targets = fresh_atoms(len(interface), set(interface) | {b})
            perm = Permutation.extending(dict(zip(interface, targets)))
            moved = x.rename(perm)
            if not perm.fixes(b) or (
                x.txs and compose(x, moved) is FAIL and compose(moved, x) is FAIL
            ):
                bad += 1
    _line(8, bad == 0, "200 chunks: interface atoms clash, outside atoms compose")


def test_criterion_9_orientation_refinement():
    cfg = GenConfig(seed=1009)
    rng = stream(cfg)
    bad = 0
    done = 0
    while done < 100:
        model = gen_model(cfg, rng, name=f"acc9-{done}", n_txs=3)
        inst = ChunkAcs(model)
        for x in inst.enumerate_carrier()[:-1]:
            if done >= 100:
                break
            done += 1
            probes = renamed_probe_chunks(pos(x), model)
            left, right, up = derived_orientation(inst, x, probes)
            dead_in = blocked_utxi(x, model)
            dead_out = blocked_utxo(x, model)
            if left != utxi(x) - dead_in:
                bad += 1
            if right != utxo(x) - dead_out:
                bad += 1
            if up != stx(x) | dead_in | dead_out:
                bad += 1
            if (inst.left(x), inst.right(x), inst.up(x)) != (left, right, up):
                bad += 1
    _line(9, bad == 0, "100 chunks: behavioural orientation equals blocked refinement")


def test_criterion_10_adjunction_suite():
    t0 = time.time()
    cfg = GenConfig(seed=1010, max_txs=5)
    rng = stream(cfg)
    instances = [
        FiniteSetsAcs(("a", "b", "c", "d")),
        SubstAcs(("a", "b", "c", "d"), term_pool=(Fn("c"),)),
    ]
    failures = []
    for i in range(50):
        model = gen_model(cfg, rng, name=f"acc10-{i}", n_txs=rng.randint(3, 5))
        inst = instances[i % 2]
        arrows = [identity_arrow(model), gen_arrow(cfg, model, rng=rng)]
        acs_arrows = [perm_acs_arrow(inst, Permutation.swap("a", "b"))]
        report = check_adjunction(
            model,
            inst,
            seed=2000 + i,
            samples=25,
            model_arrows=arrows,
            acs_arrows=acs_arrows,
        )
        if not report.ok:
            failures.append((i, [r.law for r in report.results if not r.ok]))
        # functor laws on arrows: composing then mapping equals mapping then
        # composing, for both directions
        f = arrows[1]
        g2 = gen_arrow(cfg, f.target, rng=rng)
        from chunkalg.acs import acs_arrows_equal, compose_acs_arrows
        from chunkalg.ieutxo import arrow_compose, arrows_equal

        if not acs_arrows_equal(
            f_arrow(arrow_compose(f, g2)),
            compose_acs_arrows(f_arrow(f), f_arrow(g2)),
        ):
            failures.append((i, ["f_arrow_functorial"]))
        gm = g_object(inst)
        p = perm_acs_arrow(inst, Permutation.swap("a", "b"))
        if not arrows_equal(
            g_arrow(compose_acs_arrows(p, p), gm, gm),
            arrow_compose(g_arrow(p, gm, gm), g_arrow(p, gm, gm)),
        ):
            failures.append((i, ["g_arrow_functorial"]))
    elapsed = time.time() - t0
    _line(
        10,
        not failures and elapsed < 60.0,
        f"50 models x both instances: adjunction + functor laws, {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_11_cli_determinism(capsys, tmp_path):
    commands = [
        ["validate", fixture_path("pair_combined.json"), "--json"],
        ["ledger", fixture_path("backbone_full.json"), "--json"],
        ["ledger", fixture_path("blocked_chunk.json"), "--json"],
        ["commute", fixture_path("backbone_tx1.json"), fixture_path("backbone_tx4.json"), "--json"],
        ["acs-check", "finsets", "--seed", "7", "--json"],
        ["acs-check", f"chunks:{fixture_path('backbone_model.json')}", "--strict", "--seed", "7", "--json"],
        ["adjunction", "--seed", "7", "--samples", "15", "--json"],
        ["church-rosser", "--seed", "7", "--samples", "40", "--json"],
    ]
    ok = True
    for argv in commands:
        runs = []
        for _ in range(2):
            code = main(list(argv))
            runs.append((code, capsys.readouterr().out))
        if runs[0] != runs[1]:
            ok = False
        json.loads(runs[0][1])  # reports must be valid JSON
    _line(11, ok, f"{len(commands)} commands byte-identical across reruns")
