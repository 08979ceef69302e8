"""Dual-number arithmetic and the custom-tangent escape hatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shocktangent.dual import (
    Dual,
    edge_pad,
    lift,
    maximum,
    seed,
    sqrt,
    where,
    with_custom_tangent,
)


def test_addition_and_subtraction():
    a = Dual(2.0, 3.0)
    b = Dual(5.0, 7.0)
    assert (a + b).value == 7.0 and (a + b).tangent == 10.0
    assert (a - b).value == -3.0 and (a - b).tangent == -4.0
    assert (a + 1.5).tangent == 3.0
    assert (1.5 - a).value == -0.5 and (1.5 - a).tangent == -3.0


def test_product_rule():
    a = Dual(2.0, 3.0)
    b = Dual(5.0, 7.0)
    p = a * b
    assert p.value == 10.0
    assert p.tangent == 3.0 * 5.0 + 2.0 * 7.0


def test_quotient_rule():
    a = Dual(1.0, 2.0)
    b = Dual(4.0, -8.0)
    q = a / b
    assert q.value == 0.25
    assert q.tangent == pytest.approx((2.0 * 4.0 - 1.0 * (-8.0)) / 16.0)
    r = 3.0 / b
    assert r.value == 0.75
    assert r.tangent == pytest.approx(-3.0 * (-8.0) / 16.0)


def test_division_by_zero_value_raises():
    # Scalar payloads are Python floats, whose division by zero raises on its own.
    for t in (0.0, 1.0):
        for divide in (lambda: Dual(1.0, 0.0) / Dual(0.0, t), lambda: Dual(1.0, t) / 0.0,
                       lambda: 1.0 / Dual(0.0, t)):
            with pytest.raises(ZeroDivisionError):
                divide()


def test_power_rule():
    a = Dual(3.0, 2.0)
    sq = a**2
    assert sq.value == 9.0 and sq.tangent == 2.0 * 3.0 * 2.0
    cube = a**3
    assert cube.value == 27.0 and cube.tangent == pytest.approx(3.0 * 9.0 * 2.0)
    half = a**0.5
    assert half.tangent == pytest.approx(0.5 * 3.0**-0.5 * 2.0)
    with pytest.raises(TypeError):
        a ** Dual(2.0, 0.0)


def test_negation_abs_and_comparisons():
    a = Dual(-2.0, 3.0)
    assert (-a).value == 2.0 and (-a).tangent == -3.0
    assert abs(a).value == 2.0 and abs(a).tangent == -3.0
    assert abs(Dual(2.0, 3.0)).tangent == 3.0


@pytest.mark.parametrize("other", [0.0, Dual(1.0, 0.0)], ids=["float", "dual"])
def test_ordering_a_dual_raises(other):
    # A branch must read .value, so that it names its non-smooth choice.
    a = Dual(-2.0, 3.0)
    for compare in (lambda: a < other, lambda: a <= other, lambda: a > other,
                    lambda: a >= other, lambda: other < a):
        with pytest.raises(TypeError):
            compare()
    # == is identity: equal components do not make equal duals.
    assert a == a and a != other and a != Dual(-2.0, 3.0)


def test_abs_on_arrays_flips_tangent_where_negative():
    d = Dual(np.array([-1.0, 2.0]), np.array([5.0, 5.0]))
    r = abs(d)
    assert np.array_equal(r.value, [1.0, 2.0])
    assert np.array_equal(r.tangent, [-5.0, 5.0])


def test_lift_and_seed():
    c = lift(4.0)
    assert c.value == 4.0 and c.tangent == 0.0
    assert lift(c) is c
    s = seed(4.0)
    assert s.tangent == 1.0


def test_sqrt_rule_and_domain():
    r = sqrt(Dual(9.0, 4.0))
    assert r.value == 3.0 and r.tangent == pytest.approx(4.0 / 6.0)
    with pytest.raises(ValueError):
        sqrt(Dual(-1.0, 1.0))


def test_custom_tangent_decouples_value_and_tangent():
    out = with_custom_tangent(7.0, 0.5)
    assert out.value == 7.0 and out.tangent == 0.5


def test_where_and_maximum_follow_the_winning_branch():
    a = Dual(1.0, 10.0)
    b = Dual(2.0, 20.0)
    assert where(True, a, b).tangent == 10.0
    assert where(False, a, b).tangent == 20.0
    assert maximum(a, b).tangent == 20.0
    # ties keep the first argument
    assert maximum(a, Dual(1.0, -1.0)).tangent == 10.0
    arr = where(np.array([True, False]), lift(np.array([1.0, 1.0])), b)
    assert np.array_equal(arr.tangent, [0.0, 20.0])


def test_edge_pad_repeats_ends():
    d = Dual(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    p = edge_pad(d)
    assert np.array_equal(p.value, [1.0, 1.0, 2.0, 3.0, 3.0])
    assert np.array_equal(p.tangent, [4.0, 4.0, 5.0, 6.0, 6.0])
    assert p[0].value == 1.0 and p[-1].tangent == 6.0


_payloads = arrays(np.float64, st.integers(1, 40), elements=st.floats(allow_nan=True, width=64))


@given(value=_payloads, data=st.data())
def test_edge_pad_equals_numpy_edge_mode(value, data):
    tangent = data.draw(arrays(np.float64, value.shape))
    p = edge_pad(Dual(value, tangent))
    for got, src in ((p.value, value), (p.tangent, tangent)):
        want = np.pad(src, 1, mode="edge")
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)


def test_tangents_agree_with_finite_differences_on_a_composition():
    def f(x):
        return sqrt(x * x + 1.0) / (x + 3.0) - x**2 * 0.125

    x0 = 1.3
    ad = f(seed(x0)).tangent
    h = 1e-6
    fd = (f(lift(x0 + h)).value - f(lift(x0 - h)).value) / (2.0 * h)
    assert ad == pytest.approx(fd, rel=1e-9)


# -- property checks against central finite differences ------------------------

_away_from_zero = st.one_of(st.floats(0.5, 4.0), st.floats(-4.0, -0.5))
_positive = st.floats(0.5, 4.0)
_slope = st.floats(-3.0, 3.0)

#: (name, f(x, c) on duals and floats alike, domain of x). c is a constant
#: from _away_from_zero; every binary op runs dual-dual, dual-constant and
#: constant-dual.
_ELEMENTALS = [
    ("dual + dual", lambda x, c: x + (c * x + 1.0), _away_from_zero),
    ("dual + c", lambda x, c: x + c, _away_from_zero),
    ("c + dual", lambda x, c: c + x, _away_from_zero),
    ("dual - dual", lambda x, c: x - (c * x + 1.0), _away_from_zero),
    ("dual - c", lambda x, c: x - c, _away_from_zero),
    ("c - dual", lambda x, c: c - x, _away_from_zero),
    ("dual * dual", lambda x, c: x * (c * x + 1.0), _away_from_zero),
    ("dual * c", lambda x, c: x * c, _away_from_zero),
    ("c * dual", lambda x, c: c * x, _away_from_zero),
    ("dual / dual", lambda x, c: (c * x + 1.0) / (x * x + 1.0), _away_from_zero),
    ("dual / c", lambda x, c: x / c, _away_from_zero),
    ("c / dual", lambda x, c: c / x, _away_from_zero),
    ("dual ** 2", lambda x, c: x**2, _away_from_zero),
    ("dual ** 3", lambda x, c: x**3, _away_from_zero),
    ("dual ** -1", lambda x, c: x**-1, _away_from_zero),
    ("dual ** 0.5", lambda x, c: x**0.5, _positive),
    ("dual ** 1.5", lambda x, c: x**1.5, _positive),
    ("sqrt", lambda x, c: sqrt(x), _positive),
    ("abs", lambda x, c: abs(c * x), _away_from_zero),
]


def _central_difference(f, x0, c, h=1e-6):
    return (f(lift(x0 + h), c).value - f(lift(x0 - h), c).value) / (2.0 * h)


@pytest.mark.parametrize("name, f, domain", _ELEMENTALS, ids=[e[0] for e in _ELEMENTALS])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), c=_away_from_zero, direction=_slope)
def test_elemental_tangents_match_central_differences_on_scalars(name, f, domain, data, c, direction):
    x0 = data.draw(domain)
    ad = f(seed(x0, direction), c).tangent
    fd = direction * _central_difference(f, x0, c)
    assert ad == pytest.approx(fd, rel=1e-6, abs=1e-7)


@pytest.mark.parametrize("name, f, domain", _ELEMENTALS, ids=[e[0] for e in _ELEMENTALS])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), c=_away_from_zero)
def test_elemental_tangents_match_central_differences_on_arrays(name, f, domain, data, c):
    n = data.draw(st.integers(1, 8))
    x0 = np.array(data.draw(st.lists(domain, min_size=n, max_size=n)))
    direction = np.array(data.draw(st.lists(_slope, min_size=n, max_size=n)))
    ad = f(Dual(x0, direction), c).tangent
    fd = direction * _central_difference(f, x0, c)
    np.testing.assert_allclose(ad, fd, rtol=1e-6, atol=1e-7)


_finite = st.floats(-1e6, 1e6)
_divisor = st.one_of(st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3))


def _division_written_out(a, b):
    # value a.v / b.v and tangent (a.t - a.v * inv * b.t) * inv, inv = 1 / b.v
    inv = 1.0 / b.value
    return a.value * inv, (a.tangent - a.value * inv * b.tangent) * inv


@given(av=_finite, at=_finite, bv=_divisor, bt=_finite)
def test_division_equals_the_quotient_rule_written_out_bit_for_bit(av, at, bv, bt):
    a, b = Dual(av, at), Dual(bv, bt)
    q = a / b
    assert (q.value, q.tangent) == _division_written_out(a, b)


@given(data=st.data())
def test_array_division_equals_the_quotient_rule_written_out_bit_for_bit(data):
    n = data.draw(st.integers(1, 8))
    a, b = (
        Dual(*(np.array(data.draw(st.lists(s, min_size=n, max_size=n))) for s in strats))
        for strats in ((_finite, _finite), (_divisor, _finite))
    )
    q = a / b
    value, tangent = _division_written_out(a, b)
    assert np.array_equal(q.value, value) and np.array_equal(q.tangent, tangent)
