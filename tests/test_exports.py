"""The package's public names: everything in ``__all__`` exists."""

import chunkalg


def test_every_exported_name_resolves():
    missing = [name for name in chunkalg.__all__ if not hasattr(chunkalg, name)]
    assert missing == []


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from chunkalg import *", namespace)
    assert set(chunkalg.__all__) <= set(namespace)
