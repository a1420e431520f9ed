from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from qschur.symgroup import (
    Perm,
    all_perms,
    block_boundaries,
    coset_factorize,
    elements_of_parabolic,
    min_coset_reps,
    parabolic_longest,
    split_parabolic,
)


def _from_one_line(text: str) -> Perm:
    """Parse 1-based one-line notation, e.g. "2 1 3"."""
    return Perm(int(x) - 1 for x in text.split())


def test_identity_length():
    assert Perm.identity(4).length() == 0


def test_longest_element_length():
    assert parabolic_longest((3,)).length() == 3  # 3*2/2


def test_descent_of_transposition():
    t1 = Perm.transposition(2, 1)
    assert t1.has_right_descent(1)
    assert not Perm.identity(2).has_right_descent(1)


def test_composition_is_functional():
    w = _from_one_line("2 3 1")
    v = _from_one_line("3 1 2")
    assert (w * v)(1) == w(v(1))


perm_strategy = st.integers(2, 5).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(Perm)


@settings(max_examples=80, deadline=None)
@given(perm_strategy)
def test_reduced_word_rebuilds(w):
    word = w.reduced_word()
    assert len(word) == w.length()
    r = Perm.identity(w.ell)
    for i in word:
        r = r.times_tau(i)
    assert r == w


@settings(max_examples=60, deadline=None)
@given(perm_strategy)
def test_inverse(w):
    assert (w * w.inverse()).is_identity()
    assert w.inverse().length() == w.length()


def test_parabolic_counts():
    assert list(elements_of_parabolic((1, 1))) == [Perm.identity(2)]
    assert sorted(p.images for p in elements_of_parabolic((2,))) == [(0, 1), (1, 0)]
    got = sorted(p.images for p in elements_of_parabolic((2, 1)))
    assert got == [(0, 1, 2), (1, 0, 2)]
    for parts in [(2, 2), (3, 1), (1, 2, 1)]:
        n = 1
        for p in parts:
            n *= factorial(p)
        assert len(list(elements_of_parabolic(parts))) == n


def test_parabolic_longest():
    assert parabolic_longest((2,)) == Perm.transposition(2, 1)
    assert parabolic_longest((4,)).images == (3, 2, 1, 0)
    assert parabolic_longest((1, 1, 1)).is_identity()
    w = parabolic_longest((2, 3))
    assert w.length() == 1 + 3


def test_invalid_partition():
    with pytest.raises(ValueError):
        parabolic_longest((0, 2))
    with pytest.raises(ValueError):
        parabolic_longest(())


@pytest.mark.parametrize("l1,l2", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_min_coset_reps_against_enumeration(l1, l2):
    reps = min_coset_reps(l1, l2)
    assert len(reps) == comb(l1 + l2, l1)
    paras = list(elements_of_parabolic((l1, l2)))
    covered = set()
    for d in reps:
        coset = sorted((p * d for p in paras), key=lambda x: (x.length(), x.images))
        assert coset[0] == d  # d is the unique minimum
        if len(coset) > 1:
            assert coset[0].length() < coset[1].length()
        covered.update(c.images for c in coset)
    assert len(covered) == factorial(l1 + l2)


@pytest.mark.parametrize("l1,l2", [(1, 1), (2, 1), (2, 2)])
def test_factorization_unique_and_length_additive(l1, l2):
    for w in all_perms(l1 + l2):
        p, d = coset_factorize(w, l1, l2)
        assert p * d == w
        assert p.length() + d.length() == w.length()
        p1, p2 = split_parabolic(p, l1, l2)
        assert Perm(list(p1.images) + [x + l1 for x in p2.images]) == p


def test_block_boundaries():
    assert block_boundaries((2, 1)) == {2}
    assert block_boundaries((1, 2, 1)) == {1, 3}
    assert block_boundaries((4,)) == set()


def test_one_line_round_trip():
    w = _from_one_line("2 1 3")
    assert w.one_line() == "2 1 3"
