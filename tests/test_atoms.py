import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkalg.atoms import (
    Permutation,
    act,
    fresh_atoms,
    swap,
    value_label,
)

ATOMS = list("abcdef")


def perms():
    return st.permutations(ATOMS).map(lambda ys: Permutation(dict(zip(ATOMS, ys))))


atoms = st.sampled_from(ATOMS)


def test_swap_basics():
    p = swap("a", "b")
    assert p("a") == "b"
    assert p("b") == "a"
    assert p("c") == "c"
    assert swap("a", "a") == Permutation.identity()
    assert p.compose(p) == Permutation.identity()


def test_fixes():
    assert Permutation.identity().fixes("a")
    assert not swap("a", "b").fixes("a")
    assert swap("b", "c").fixes("a")


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation({"a": "b", "c": "b"})
    with pytest.raises(ValueError):
        Permutation({"a": "b"})  # image != domain


@given(perms(), perms(), atoms)
@settings(max_examples=60, deadline=None)
def test_compose_is_function_composition(p, q, a):
    assert p.compose(q)(a) == p(q(a))


@given(perms(), atoms)
@settings(max_examples=60, deadline=None)
def test_invert_is_two_sided(p, a):
    assert p.compose(p.invert())(a) == a
    assert p.invert().compose(p)(a) == a


@given(perms(), perms(), perms())
@settings(max_examples=40, deadline=None)
def test_compose_associative(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


@given(perms())
@settings(max_examples=40, deadline=None)
def test_identity_neutral(p):
    e = Permutation.identity()
    assert e.compose(p) == p
    assert p.compose(e) == p


def test_extending_completes_partial_injections():
    p = Permutation.extending({"a": "x", "b": "y"})
    assert p("a") == "x" and p("b") == "y"
    # bijectivity: the loose targets come back to the loose sources
    assert sorted(p(t) for t in ("x", "y")) == ["a", "b"]
    q = Permutation.extending({"a": "b", "b": "c"})
    assert q("a") == "b" and q("b") == "c" and q("c") == "a"


def test_fresh_atoms_avoid_and_determinism():
    got = fresh_atoms(3, ["z1", "z3"])
    assert got == ["z2", "z4", "z5"]
    assert fresh_atoms(3, ["z1", "z3"]) == got


def _fresh_atoms_copying(n, avoid, prefix="z"):
    """The body ``fresh_atoms`` had when it copied ``avoid`` into a set."""
    taken = set(avoid)
    out = []
    counter = 1
    while len(out) < n:
        cand = f"{prefix}{counter}"
        counter += 1
        if cand not in taken:
            taken.add(cand)
            out.append(cand)
    return out


counter_names = st.builds(
    "{}{}".format, st.sampled_from(["z", "w", "v", "zz"]), st.integers(0, 12)
)


@given(
    st.integers(0, 8),
    st.lists(st.one_of(counter_names, atoms)),
    st.sampled_from(["z", "w", "v", "zz"]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_fresh_atoms_matches_copying_reference(n, avoid, prefix, as_set):
    avoid = frozenset(avoid) if as_set else avoid
    assert fresh_atoms(n, avoid, prefix) == _fresh_atoms_copying(n, avoid, prefix)


def test_act_on_containers():
    p = swap("a", "b")
    assert act(p, "a") == "b"
    assert act(p, ("a", "c")) == ("b", "c")
    assert act(p, frozenset({"a", "c"})) == frozenset({"b", "c"})
    assert act(p, 7) == 7


def test_value_label_is_order_independent():
    assert value_label(frozenset({"b", "a"})) == value_label(frozenset({"a", "b"}))
    assert value_label("a") != value_label(1)


def test_action_laws_on_every_overload():
    """Identity acts trivially and composition acts stagewise on all shapes."""
    from chunkalg.ieutxo import Chunk, Input, Output, PointedTransaction, Transaction
    from chunkalg.scripts import InputPositionIn, KeyEquals, Or

    tx = Transaction(
        [Input("a", "k1"), Input("b", "k2")],
        [Output("c", 1, Or(KeyEquals("k1"), InputPositionIn(frozenset({"a", "c"}))))],
    )
    values = [
        tx.inputs[0],
        tx.outputs[0],
        tx,
        (tx,),
        PointedTransaction(tx, tx.inputs[0]),
        Chunk((tx,)),
        tx.outputs[0].validator,
    ]
    e = Permutation.identity()
    p = swap("a", "z")
    q = swap("b", "a")
    for v in values:
        assert act(e, v) == v
        assert act(p.compose(q), v) == act(p, act(q, v))
