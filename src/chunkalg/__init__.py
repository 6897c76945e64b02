"""Chunk algebra for UTxO-style ledgers.

Concrete half: transactions, validated transaction lists (chunks), the
partial monoid they form, and ledger queries.  Abstract half: chunk systems
presented axiomatically, with instances and sample-based law checkers.  The
two are connected by a pair of functors and an adjunction, all rendered as
executable checks.
"""

__version__ = "0.1.0"

from .acs import AcsArrow, AcsInstance, ChunkAcs, FiniteSetsAcs, SubstAcs
from .atoms import Atom, Permutation, act, fresh_atoms, swap
from .functors import check_adjunction, eta, f_arrow, f_object, g_arrow, g_object
from .generators import GenConfig
from .ieutxo import (
    FAIL,
    EMPTY_CHUNK,
    Chunk,
    ChunkOrFail,
    IeutxoArrow,
    IeutxoModel,
    Input,
    NotAChunk,
    Output,
    PointedTransaction,
    Transaction,
    check_chunk,
    check_church_rosser,
    composable,
    compose,
    enumerate_chunks,
    is_blockchain,
    is_chunk,
    is_iutxo_model,
    ledger_sets,
    pairwise_chunk_oracle,
    pos,
    stx,
    utxi,
    utxo,
)

__all__ = [
    "AcsArrow",
    "AcsInstance",
    "ChunkAcs",
    "FiniteSetsAcs",
    "SubstAcs",
    "GenConfig",
    "check_adjunction",
    "eta",
    "f_arrow",
    "f_object",
    "g_arrow",
    "g_object",
    "Atom",
    "Permutation",
    "act",
    "fresh_atoms",
    "swap",
    "FAIL",
    "EMPTY_CHUNK",
    "Chunk",
    "ChunkOrFail",
    "IeutxoArrow",
    "IeutxoModel",
    "Input",
    "NotAChunk",
    "Output",
    "PointedTransaction",
    "Transaction",
    "check_chunk",
    "check_church_rosser",
    "composable",
    "compose",
    "enumerate_chunks",
    "is_blockchain",
    "is_chunk",
    "is_iutxo_model",
    "ledger_sets",
    "pairwise_chunk_oracle",
    "pos",
    "stx",
    "utxi",
    "utxo",
    "__version__",
]
