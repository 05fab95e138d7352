"""Affine maps: application, composition, footprints."""

import pytest

from repro.errors import SpaceMismatchError
from repro.poly.affine import aff_var
from repro.poly.imap import AffineMap
from repro.poly.space import Space

S1 = Space("S1", ("i", "j", "k"))
A = Space("A", ("r", "c"))
i, j, k = aff_var("i"), aff_var("j"), aff_var("k")


def test_identity():
    m = AffineMap.identity(S1)
    assert m.apply({"i": 1, "j": 2, "k": 3}) == (1, 2, 3)


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


def test_compose():
    tile = AffineMap(S1, [i.floordiv(8), j.floordiv(8), k])
    # inner: point loops -> statement dims
    P = Space("P", ("it", "jt", "kp"))
    expand = AffineMap(
        P, [aff_var("it") * 8, aff_var("jt") * 8, aff_var("kp")], S1
    )
    composed = tile.compose(expand)
    assert composed.apply({"it": 3, "jt": 2, "kp": 5}) == (3, 2, 5)


def test_compose_rank_mismatch():
    other = AffineMap(Space("P", ("x",)), [aff_var("x")])
    with pytest.raises(SpaceMismatchError):
        AffineMap(S1, [i]).compose(other)


def test_substitute():
    m = AffineMap(S1, [i + k])
    m2 = m.substitute({"k": aff_var("k") * 2})
    assert m2.apply({"i": 1, "j": 0, "k": 3}) == (7,)


def test_box_image_is_footprint():
    # The DMA footprint computation of §4: A[i, k] over one CPE's tile.
    m = AffineMap.access(S1, A, [i, k])
    box = {"i": (64, 127), "j": (0, 63), "k": (32, 63)}
    image = m.box_image(box)
    assert image == [(64, 127), (32, 63)]


def test_box_image_with_params():
    m = AffineMap(S1, [i + aff_var("M")])
    image = m.box_image({"i": (0, 3), "j": (0, 0), "k": (0, 0)}, {"M": 100})
    assert image == [(100, 103)]


def test_parameters():
    m = AffineMap(S1, [i + aff_var("M") * 2])
    assert m.parameters() == frozenset({"M"})
    assert m.variables() == frozenset({"i", "M"})


def test_structural_equality():
    m1 = AffineMap.access(S1, A, [i, k])
    m2 = AffineMap.access(S1, A, [i, k])
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1 != AffineMap.access(S1, A, [k, i])
