"""Affine maps: application, substitution, structural equality."""

import pytest

from repro.errors import SpaceMismatchError
from repro.poly.affine import aff_var
from repro.poly.imap import AffineMap
from repro.poly.space import Space

S1 = Space("S1", ("i", "j", "k"))
A = Space("A", ("r", "c"))
i, j, k = aff_var("i"), aff_var("j"), aff_var("k")


def test_access_map():
    m = AffineMap.access(S1, A, [i, k])
    assert m.apply({"i": 4, "j": 9, "k": 7}) == (4, 7)
    assert m.range_space == A


def test_range_rank_mismatch():
    with pytest.raises(SpaceMismatchError):
        AffineMap(S1, [i], A)


def test_apply_with_params():
    m = AffineMap(S1, [i + aff_var("M")])
    assert m.apply({"i": 1, "j": 0, "k": 0}, {"M": 10}) == (11,)


def test_substitute():
    m = AffineMap(S1, [i + k])
    m2 = m.substitute({"k": aff_var("k") * 2})
    assert m2.apply({"i": 1, "j": 0, "k": 3}) == (7,)


def test_variables():
    m = AffineMap(S1, [i + aff_var("M") * 2])
    assert m.variables() == frozenset({"i", "M"})


def test_structural_equality():
    m1 = AffineMap.access(S1, A, [i, k])
    m2 = AffineMap.access(S1, A, [i, k])
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1 != AffineMap.access(S1, A, [k, i])
