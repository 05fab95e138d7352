"""Integer sets: bounds, membership, enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PolyhedralError, SpaceMismatchError
from repro.poly.affine import aff_const, aff_var
from repro.poly.iset import Constraint, IntegerSet, box_set, eq, ge, le, lt
from repro.poly.space import Space

S = Space("S", ("i", "j"))


def gemm_domain():
    space = Space("S1", ("i", "j", "k"))
    return box_set(
        space,
        {"i": (0, aff_var("M")), "j": (0, aff_var("N")), "k": (0, aff_var("K"))},
    )


def test_box_set_bounds():
    dom = gemm_domain()
    box = dom.bounding_box({"M": 4, "N": 6, "K": 2})
    assert box == {"i": (0, 3), "j": (0, 5), "k": (0, 1)}


def test_box_set_requires_all_dims():
    with pytest.raises(SpaceMismatchError):
        box_set(S, {"i": (0, 4)})


def test_contains():
    dom = gemm_domain()
    params = {"M": 4, "N": 4, "K": 4}
    assert dom.contains({"i": 0, "j": 3, "k": 3}, params)
    assert not dom.contains({"i": 4, "j": 0, "k": 0}, params)
    assert not dom.contains({"i": -1, "j": 0, "k": 0}, params)


def test_contains_requires_full_point():
    dom = gemm_domain()
    with pytest.raises(SpaceMismatchError):
        dom.contains({"i": 0}, {"M": 4, "N": 4, "K": 4})


def test_count_matches_volume():
    dom = gemm_domain()
    assert dom.count({"M": 3, "N": 2, "K": 5}) == 30


def test_points_enumerates_lexicographically_complete():
    dom = box_set(S, {"i": (0, 2), "j": (0, 3)})
    points = list(dom.points())
    assert len(points) == 6
    assert {"i": 1, "j": 2} in points


def test_equality_constraint():
    dom = box_set(S, {"i": (0, 4), "j": (0, 4)}).with_constraints(
        [eq(aff_var("i") - aff_var("j"))]
    )
    points = list(dom.points())
    assert all(p["i"] == p["j"] for p in points)
    assert len(points) == 4


def test_emptiness_detected():
    dom = box_set(S, {"i": (0, 4), "j": (0, 4)}).with_constraints(
        [ge(aff_var("i"), 10)]
    )
    assert list(dom.points()) == []


def test_nonempty():
    assert gemm_domain().count({"M": 1, "N": 1, "K": 1}) == 1


def test_empty_when_param_zero():
    assert gemm_domain().count({"M": 0, "N": 4, "K": 4}) == 0


def test_unbounded_raises():
    dom = IntegerSet(S, [ge(aff_var("i"), 0)])
    with pytest.raises(PolyhedralError):
        dom.bounding_box()


def test_unbound_parameter_raises():
    dom = gemm_domain()
    with pytest.raises(PolyhedralError):
        dom.bounding_box({"M": 4})  # N, K missing


def test_parameters_listed():
    assert gemm_domain().parameters() == frozenset({"M", "N", "K"})


def test_constraint_dedup():
    c = ge(aff_var("i"), 0)
    dom = IntegerSet(S, [c, c, lt(aff_var("i"), 5), ge(aff_var("j"), 0), lt(aff_var("j"), 5)])
    assert len(dom.constraints) == 4


def test_floordiv_constraint_bounds():
    # { (i, j) : 0 <= i < 16, 0 <= j < 16, floor(i/8) == 1 }
    dom = box_set(S, {"i": (0, 16), "j": (0, 16)}).with_constraints(
        [eq(aff_var("i").floordiv(8), 1)]
    )
    points = list(dom.points())
    assert all(8 <= p["i"] < 16 for p in points)
    assert len(points) == 8 * 16


@given(
    st.integers(1, 6), st.integers(1, 6),
    st.integers(0, 5), st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_prop_box_count(w, h, lo_i, lo_j):
    dom = box_set(S, {"i": (lo_i, lo_i + w), "j": (lo_j, lo_j + h)})
    assert dom.count() == w * h
    box = dom.bounding_box()
    assert box["i"] == (lo_i, lo_i + w - 1)
    assert box["j"] == (lo_j, lo_j + h - 1)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_prop_equality_slices(m, n, value):
    dom = box_set(S, {"i": (0, m), "j": (0, n)}).with_constraints(
        [eq(aff_var("i"), value)]
    )
    expected = n if value < m else 0
    assert dom.count() == expected
