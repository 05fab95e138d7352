"""Quasi-affine expression arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NonAffineError
from repro.poly.affine import AffExpr, FloorDiv, aff_const, aff_var


def test_var_and_const_construction():
    i = aff_var("i")
    assert i.is_single_var()
    assert i.single_var() == "i"
    assert aff_const(7).constant_value() == 7
    assert not aff_const(7).is_single_var()


def test_addition_combines_like_terms():
    i, j = aff_var("i"), aff_var("j")
    expr = i + j + i * 2 + 5
    assert expr.coefficient("i") == 3
    assert expr.coefficient("j") == 1
    assert expr.const == 5


def test_zero_coefficients_are_dropped():
    i = aff_var("i")
    expr = i - i
    assert expr.is_constant()
    assert expr == aff_const(0)
    assert not expr.coeffs


def test_subtraction_and_negation():
    i, j = aff_var("i"), aff_var("j")
    assert (i - j).evaluate({"i": 10, "j": 4}) == 6
    assert (-i).evaluate({"i": 3}) == -3
    assert (5 - i).evaluate({"i": 2}) == 3


def test_scalar_multiplication():
    i = aff_var("i")
    assert (i * 4).coefficient("i") == 4
    assert (4 * i) == (i * 4)
    with pytest.raises(NonAffineError):
        _ = i * aff_var("j")


def test_multiplication_by_constant_expression_is_allowed():
    i = aff_var("i")
    assert (i * aff_const(3)) == i * 3
    assert (aff_const(3) * i) == i * 3


def test_floordiv_basics():
    k = aff_var("k")
    e = k.floordiv(32)
    assert e.evaluate({"k": 95}) == 2
    assert e.evaluate({"k": 0}) == 0
    assert (k // 32) == e


def test_floordiv_by_one_is_identity():
    k = aff_var("k")
    assert k.floordiv(1) is k


def test_floordiv_distributes_over_exact_multiples():
    # floor((256*ko + r)/256) = ko + floor(r/256)
    ko = aff_var("ko")
    expr = (ko * 256).floordiv(256)
    assert expr == ko


def test_floordiv_rejects_bad_divisors():
    with pytest.raises(NonAffineError):
        aff_var("i").floordiv(0)
    with pytest.raises(NonAffineError):
        aff_var("i").floordiv(-4)


def test_mod_identity():
    k = aff_var("k")
    expr = k.mod(32)
    for value in (0, 1, 31, 32, 33, 255, 256, 1000):
        assert expr.evaluate({"k": value}) == value % 32


def test_stripmine_expression_matches_fig6():
    # floor(k/32) - 8*floor(k/256) enumerates the slice within a chunk.
    k = aff_var("k")
    expr = k.floordiv(32) - k.floordiv(256) * 8
    for value in range(0, 1024, 17):
        assert expr.evaluate({"k": value}) == (value // 32) % 8


def test_substitute_simple():
    i = aff_var("i")
    expr = i * 3 + 1
    assert expr.substitute({"i": aff_var("x") + 2}).evaluate({"x": 5}) == 22


def test_substitute_inside_floordiv():
    k = aff_var("k")
    expr = k.floordiv(32)
    replaced = expr.substitute({"k": aff_var("t") * 32})
    assert replaced == aff_var("t")


def test_rename():
    expr = aff_var("i") + aff_var("j") * 2
    renamed = expr.rename({"i": "x"})
    assert renamed.coefficient("x") == 1
    assert renamed.coefficient("j") == 2


def test_evaluate_unbound_raises():
    with pytest.raises(NonAffineError):
        aff_var("i").evaluate({})


def test_variables_include_floordiv_args():
    k = aff_var("k")
    expr = (k + aff_var("m")).floordiv(4) + aff_var("n")
    assert expr.variables() == frozenset({"k", "m", "n"})


def test_interval_linear_exact():
    i, j = aff_var("i"), aff_var("j")
    expr = 3 * i - 2 * j + 1
    lo, hi = expr.interval({"i": (0, 10), "j": (0, 5)})
    assert lo == 3 * 0 - 2 * 5 + 1
    assert hi == 3 * 10 - 2 * 0 + 1


def test_interval_floordiv():
    k = aff_var("k")
    lo, hi = k.floordiv(32).interval({"k": (0, 255)})
    assert (lo, hi) == (0, 7)


def test_interval_rejects_unbounded_var():
    with pytest.raises(NonAffineError):
        aff_var("i").interval({})


def test_hash_and_equality_are_structural():
    a = aff_var("i") * 2 + 3
    b = aff_var("i") + aff_var("i") + 3
    assert a == b
    assert hash(a) == hash(b)
    assert a != aff_var("i") * 2


def test_floordiv_term_equality():
    t1 = FloorDiv(aff_var("k"), 32)
    t2 = FloorDiv(aff_var("k"), 32)
    assert t1 == t2 and hash(t1) == hash(t2)
    assert t1 != FloorDiv(aff_var("k"), 16)


# ---------------------------------------------------------------------------
# Property-based coverage
# ---------------------------------------------------------------------------

names = st.sampled_from(["i", "j", "k", "m"])
small_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def affine_exprs(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(0, 1))
        if choice == 0:
            return aff_const(draw(small_ints))
        return aff_var(draw(names)) * draw(st.integers(-4, 4))
    op = draw(st.integers(0, 3))
    lhs = draw(affine_exprs(depth=depth - 1))
    rhs = draw(affine_exprs(depth=depth - 1))
    if op == 0:
        return lhs + rhs
    if op == 1:
        return lhs - rhs
    if op == 2:
        return lhs.floordiv(draw(st.integers(1, 9)))
    return lhs.mod(draw(st.integers(1, 9)))


envs = st.fixed_dictionaries({n: st.integers(-100, 100) for n in ["i", "j", "k", "m"]})


@given(affine_exprs(), affine_exprs(), envs)
@settings(max_examples=150, deadline=None)
def test_prop_add_evaluates_pointwise(a, b, env):
    assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)


@given(affine_exprs(), st.integers(1, 17), envs)
@settings(max_examples=150, deadline=None)
def test_prop_floordiv_matches_python(a, d, env):
    assert a.floordiv(d).evaluate(env) == a.evaluate(env) // d


@given(affine_exprs(), st.integers(1, 17), envs)
@settings(max_examples=150, deadline=None)
def test_prop_mod_matches_python(a, d, env):
    assert a.mod(d).evaluate(env) == a.evaluate(env) % d


@given(affine_exprs(), envs, envs)
@settings(max_examples=100, deadline=None)
def test_prop_interval_is_sound(a, lo_env, hi_env):
    box = {
        name: (min(lo_env[name], hi_env[name]), max(lo_env[name], hi_env[name]))
        for name in lo_env
    }
    lo, hi = a.interval(box)
    # Any point inside the box must evaluate within the interval.
    mid_env = {name: (b[0] + b[1]) // 2 for name, b in box.items()}
    for env in (
        {name: b[0] for name, b in box.items()},
        {name: b[1] for name, b in box.items()},
        mid_env,
    ):
        value = a.evaluate(env)
        assert lo <= value <= hi


@given(affine_exprs(), affine_exprs(), envs)
@settings(max_examples=100, deadline=None)
def test_prop_substitution_composes(a, b, env):
    composed = a.substitute({"i": b})
    inner = b.evaluate(env)
    direct = a.evaluate({**env, "i": inner})
    assert composed.evaluate(env) == direct
