"""A model's carrier comes out of the walk in label order.

``walk_chunks`` visits the transactions in label order and yields each
chunk after its extensions, so ``ChunkAcs.enumerate_carrier`` builds no
chunk label and sorts nothing.  That is the label order whenever no
transaction label equals or is a prefix of another (``label_order``).  A
model whose labels fail that condition is sorted by label, ties by the
transactions' indices: the order a stable label sort of the index-order
walk gave.  The reference here enumerates every list of distinct
transactions, keeps those ``check_chunk`` accepts and sorts them by that
key.
"""

from itertools import permutations
from types import SimpleNamespace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chunkalg import ieutxo
from chunkalg.acs import AcsInstance, ChunkAcs, Fn, Var
from chunkalg.atoms import value_label
from chunkalg.generators import GenConfig, gen_model, stream
from chunkalg.ieutxo import (
    EMPTY_CHUNK,
    FAIL,
    Chunk,
    IeutxoModel,
    ModelError,
    check_chunk,
    enumerate_chunks,
    label_order,
)

from conftest import mk_tx


def _reference_carrier(model: IeutxoModel) -> list:
    """Every chunk of ``model``, found from scratch, in label order with ties
    by transaction indices, then FAIL."""
    n = len(model.transactions)
    lists = (p for r in range(n + 1) for p in permutations(range(n), r))
    keyed = []
    for p in lists:
        txs = tuple(model.transactions[j] for j in p)
        if check_chunk(txs).ok:
            chunk = Chunk._trusted(txs)
            keyed.append(((value_label(chunk), p), chunk))
    keyed.sort(key=lambda pair: pair[0])
    return [chunk for _, chunk in keyed] + [FAIL]


def _reference_sample(carrier: list, n: int, seed: int) -> list:
    """The base sampler run on the reference carrier."""
    stand_in = SimpleNamespace(enumerate_carrier=lambda: list(carrier), bot=EMPTY_CHUNK, top=FAIL)
    return AcsInstance.sample_elements(stand_in, n, seed)


def _assert_carrier_and_samples(model: IeutxoModel) -> None:
    expected = _reference_carrier(model)
    inst = ChunkAcs(model)
    assert inst.enumerate_carrier() == expected
    assert inst.enumerate_carrier()[0] is EMPTY_CHUNK
    for n in range(len(expected) + 2):
        for seed in (0, 7):
            assert inst.sample_elements(n, seed) == _reference_sample(expected, n, seed)


@given(st.integers(0, 2**20), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_generated_carriers_are_in_label_order(seed, n_txs):
    cfg = GenConfig(seed=seed, max_txs=n_txs)
    model = gen_model(cfg, stream(cfg), name=f"m{seed}", n_txs=n_txs)
    expected = _reference_carrier(model)
    assert ChunkAcs(model).enumerate_carrier() == expected
    if label_order(model)[1]:
        assert list(enumerate_chunks(model)) == expected[:-1]


# Keys whose labels are prefixes of each other, on inputs at ``a`` or ``b``,
# and datums that label alike, on outputs at ``c`` or ``d``: so that
# transaction labels often equal each other or are prefixes of each other.
_INPUT = st.tuples(st.sampled_from("ab"), st.sampled_from(["k", "k)|]", "k)|]k"]))
_OUTPUT = st.tuples(st.sampled_from("cd"), st.sampled_from(["k", Var("c"), Fn("c")]))
_TX = st.builds(mk_tx, st.lists(_INPUT, max_size=1), st.lists(_OUTPUT, max_size=1))


@given(st.lists(_TX, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_carriers_of_colliding_labels_are_in_label_order(txs):
    try:
        model = IeutxoModel("colliding", txs)
    except ModelError:
        assume(False)
    _assert_carrier_and_samples(model)


def _same_label_model() -> IeutxoModel:
    """``Var("c")`` and ``Fn("c")`` both label as ``c``: two distinct
    transactions with one label, each composing with a third."""
    txs = tuple(mk_tx([], [("p", datum)]) for datum in (Var("c"), Fn("c")))
    return IeutxoModel("same-label", txs + (mk_tx([("z", "k")], []),))


def _prefix_key_model() -> IeutxoModel:
    """The key ``k)|]`` makes one input's label ``tx[(a,s:k)|]`` a prefix of
    the other's, and a third transaction composes with each."""
    txs = (mk_tx([("a", "k")], []), mk_tx([("a", "k)|]")], []), mk_tx([], [("c", 1)]))
    return IeutxoModel("prefix-key", txs)


def test_models_whose_labels_do_not_decide_keep_the_label_order():
    """Both models need the fallback sort: the walk alone gives another order."""
    for model in (_same_label_model(), _prefix_key_model()):
        assert not label_order(model)[1], model.name
        assert list(enumerate_chunks(model)) != _reference_carrier(model)[:-1], model.name
        _assert_carrier_and_samples(model)


def test_a_carrier_builds_no_chunk_label(backbone_model, pair_model, monkeypatch):
    """Where the transaction labels decide the order no chunk is labelled;
    a model that needs the fallback sort still labels its chunks, and keeps
    the label order."""
    calls = []
    real_label = ieutxo.Chunk.label

    def counted(self):
        calls.append(self)
        return real_label(self)

    monkeypatch.setattr(ieutxo.Chunk, "label", counted)
    for model in (backbone_model, pair_model):
        assert label_order(model)[1]
        assert len(ChunkAcs(model).enumerate_carrier()) > len(model.transactions)
        assert calls == [], model.name
    model = _prefix_key_model()
    assert ChunkAcs(model).enumerate_carrier() == _reference_carrier(model)
    assert calls
