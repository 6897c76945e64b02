import os

import pytest

from chunkalg.ieutxo import IeutxoModel, Input, Output, Transaction
from chunkalg.scripts import AcceptAll

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def mk_tx(ins, outs):
    """ins: [(pos, key)]; outs: [(pos, datum, validator?)] with accept-all default."""
    inputs = [Input(p, k) for p, k in ins]
    outputs = [
        Output(o[0], o[1], o[2] if len(o) > 2 else AcceptAll()) for o in outs
    ]
    return Transaction(inputs, outputs)


def sublists(txs):
    """All 2^n sublists of ``txs`` in a deterministic order."""
    n = len(txs)
    for mask in range(1 << n):
        yield tuple(txs[i] for i in range(n) if mask >> i & 1)


@pytest.fixture
def pair_txs():
    """The two-transaction example: tx feeds ty over channels d and e."""
    tx = mk_tx(
        [("a", "x1"), ("b", "x2"), ("c", "x3")],
        [("d", 1), ("e", 2)],
    )
    ty = mk_tx([("d", "x4"), ("e", "x5")], [("f", 3)])
    return tx, ty


@pytest.fixture
def backbone():
    """Genesis tx1 plus three spenders; every sublist drives one example."""
    tx1 = mk_tx([], [("a", 1), ("b", 2), ("c", 3)])
    tx2 = mk_tx([("b", "x1")], [("d", 4)])
    tx3 = mk_tx([("a", "x2")], [("e", 5), ("f", 6), ("g", 7)])
    tx4 = mk_tx([("e", "x3"), ("f", "x4"), ("d", "x5")], [("h", 8), ("i", 9), ("j", 10), ("k", 11)])
    return tx1, tx2, tx3, tx4


@pytest.fixture
def backbone_model(backbone):
    return IeutxoModel("backbone", backbone, probe_candidates=backbone)


@pytest.fixture
def pair_model(pair_txs):
    return IeutxoModel("pair", pair_txs, probe_candidates=pair_txs)
