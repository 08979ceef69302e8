"""Dual-number arithmetic and the custom-tangent escape hatch."""

import math
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shocktangent import dual, native
from shocktangent.dual import (
    Dual,
    cell,
    edge_pad,
    lift,
    maximum,
    seed,
    sqrt,
    trace,
    where,
    with_custom_tangent,
)
from shocktangent.native import compiled


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
        assert np.array_equal(_int_bits(got), _int_bits(want))


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


def _bits(*floats):
    # Equal under this, two results round alike to the last bit, NaN payloads included.
    return struct.pack(f"<{len(floats)}d", *floats)


def _every_operation(a, b, c):
    # Each dual + - * / with a dual, a float and an int on either side, and negation.
    x, y = Dual(a, 1.0), Dual(b, c)
    return (((x + y) * (2 - x) - 0.5 * y / x + (3.0 + y) / (1 - x) - y * 2.5) / (x - 0.25)
            + (1.5 - y) * -y - 2.0 / y)


@settings(derandomize=True, deadline=None)
@given(a=_finite, b=_finite, c=_finite)
def test_a_traced_kernel_equals_the_dual_evaluation_bit_for_bit(a, b, c):
    kernel = trace(_every_operation)
    try:
        ref = _every_operation(a, b, c)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            kernel(a, b, c)
        return
    assert _bits(*kernel(a, b, c)) == _bits(ref.value, ref.tangent)


def test_a_traced_kernel_drops_the_lines_no_output_reads():
    def fn(a, b):
        unread = (a - b) * 2.0  # noqa: F841
        return Dual(a * b, 3.0)

    kernel = trace(fn)
    assert kernel.__code__.co_varnames == ("a0", "a1", "t2")  # the inputs and a0 * a1
    assert kernel(2.0, 5.0) == (10.0, 3.0)


@pytest.mark.parametrize(
    "use",
    [lambda a: a < 1.0, lambda a: a == a, lambda a: a != 0.0, lambda a: 0.0 >= a,
     bool, float, abs, lambda a: a ** 2, lambda a: 2.0 ** a,
     np.sqrt, lambda a: maximum(Dual(a, 1.0), 0.0).value],
    ids=["lt", "eq", "ne", "ge", "bool", "float", "abs", "pow", "rpow", "np-sqrt", "maximum"],
)
def test_a_traced_float_refuses_every_use_that_reads_its_value(use):
    with pytest.raises(TypeError, match=r"takes only \+ - \* /"):
        trace(lambda a: Dual(use(a), 0.0))


def _roots(a, b, c):
    # dual.sqrt of a dual and of a value formed from two, in a formula of both.
    x, y = Dual(a, b), Dual(c, 1.0)
    return sqrt(x) * y - 2.0 / sqrt(x * y + 0.5), sqrt(y)


_ROOTS = trace(_roots)


@settings(derandomize=True, deadline=None)
@given(a=_finite, b=_finite, c=_finite)
def test_a_traced_sqrt_equals_the_dual_evaluation_bit_for_bit(a, b, c):
    # sqrt checks its value when the kernel runs, as the dual evaluation does.
    try:
        ref = _roots(a, b, c)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            _ROOTS(a, b, c)
        return
    assert _bits(*_ROOTS(a, b, c)) == _bits(*(x for d in ref for x in (d.value, d.tangent)))


@pytest.mark.parametrize("a", [0.0, -0.0, -2.5, -math.inf])
def test_a_traced_sqrt_raises_the_dual_sqrt_error_below_zero(a):
    kernel = trace(lambda a: sqrt(Dual(a, 1.0)))
    with pytest.raises(ValueError) as want:
        sqrt(Dual(a, 1.0))
    with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
        kernel(a)
    assert _bits(*kernel(6.25)) == _bits(2.5, 0.2)


def test_a_traced_function_must_return_a_dual_of_traced_or_constant_floats():
    with pytest.raises(TypeError, match="must return a Dual"):
        trace(lambda a: Dual(a, np.float64(1.0)))


@pytest.mark.parametrize("const", [np.float64(2.0), float("inf"), 1j],
                         ids=["numpy", "inf", "complex"])
def test_a_traced_float_takes_only_finite_int_and_float_constants(const):
    with pytest.raises(TypeError):
        trace(lambda a: Dual(a * const, a))


def _every_array_operation(u, t, v, s, c):
    # Each operation a traced array takes, on duals of arrays and floats: + - * / with
    # a dual, an array, a float and an int on either side, negation, the four orderings,
    # where, maximum, abs, sqrt, the edge pad and slices.
    x, y = Dual(u, t), Dual(v, s * t)
    p = edge_pad(x * y - 1.5)
    d = p[2:] - 2 * p[:-2] / (3 - x) + (1.0 + -y) * c
    e = where(x.value > y.value, d, where(0.5 <= y.value, s * y, 4 - x / s))
    f = maximum(abs(e), y / c) + maximum(d, x)
    g = sqrt(f * f + 1.0 / (x * x + 1.0)) - 2.0 * p[1:-1]
    h = where(y.value < 0, x, where(y.value >= x.value, -x, y))
    return g, Dual(h.value, g.tangent)


_EVERY_ARRAY_OPERATION = trace(_every_array_operation, arrays=3)
(_COMPILED_EVERY_ARRAY_OPERATION,) = compiled(_EVERY_ARRAY_OPERATION)
_ties = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
_tangents = st.floats(-1e3, 1e3)


def _int_bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(derandomize=True, deadline=None)
@given(data=st.data(), lengths=st.lists(st.integers(3, 40), min_size=2, max_size=2),
       s=st.sampled_from([-1.5, 0.5, 2.0]), c=_divisor)
def test_an_array_kernel_equals_the_dual_evaluation_bit_for_bit(data, lengths, s, c):
    # Values drawn from a few floats tie in maximum and where; the compiled kernel's
    # scratch is reallocated when the length changes and reused when it does not.
    n, m = lengths
    for k in (n, m, m, n):
        u, v = (np.array(data.draw(st.lists(_ties, min_size=k, max_size=k))) for _ in "uv")
        t = np.array(data.draw(st.lists(_tangents, min_size=k, max_size=k)))
        with np.errstate(all="ignore"):
            want = _every_array_operation(u, t, v, s, c)
            for kernel in (_EVERY_ARRAY_OPERATION, _COMPILED_EVERY_ARRAY_OPERATION):
                got = kernel(u, t, v, s, c)
                assert len(got) == 4
                for g, w in zip(got, (want[0].value, want[0].tangent, want[1].value,
                                      want[1].tangent)):
                    assert np.array_equal(_int_bits(g), _int_bits(w))


@pytest.mark.parametrize(
    "use",
    [bool, float, len, abs, lambda a: a[0], lambda a: a[[0, 1]], lambda a: a[a < 1.0],
     lambda a: a[::2], lambda a: a[-2:], lambda a: a[:2], lambda a: a[:0], np.sum,
     np.add.reduce, np.add.accumulate, lambda a: np.sqrt(a, out=np.empty(3)),
     lambda a: np.sqrt(a, np.empty(3)), np.exp,
     lambda a: np.maximum(a, a), lambda a: np.concatenate([a, a]), np.asarray,
     lambda a: np.pad(a, 2, mode="edge"), lambda a: np.where(a, a, 0.0),
     lambda a: a == a, lambda a: a ** 2, lambda a: (a < 1.0) * 1.0, lambda a: a < 1.0,
     lambda a: a[1:] + a, lambda a: a * np.ones(3), lambda a: a + np.float64(1.0),
     lambda a: a + np.maximum.reduce(a), lambda a: np.maximum.reduce(a, axis=0),
     lambda a: np.maximum.reduce(a, 0), lambda a: np.maximum.reduce(a, out=np.empty(())),
     lambda a: np.minimum.reduce(a, initial=1.0), lambda a: np.minimum.reduce(a < 1.0),
     lambda a: np.abs(a, out=np.empty(3))],
    ids=["bool", "float", "len", "abs", "int-index", "fancy-index", "mask-index", "step",
         "negative-start", "positive-stop", "empty", "sum", "reduce", "accumulate", "out",
         "positional-out", "exp", "np-maximum", "concatenate", "asarray", "pad-2",
         "where-on-values", "eq", "pow", "mask-arithmetic", "mask-output", "lengths",
         "array-constant", "numpy-constant", "reduction-read", "reduce-axis",
         "reduce-positional-axis", "reduce-out", "reduce-initial", "reduce-mask", "abs-out"],
)
def test_a_traced_array_refuses_every_use_outside_its_operations(use):
    with pytest.raises(TypeError):
        trace(lambda u, t: Dual(use(u), t), arrays=2)


@pytest.mark.parametrize(
    "use",
    [lambda u, t, c: np.maximum.reduce(u) * 2.0, lambda u, t, c: -np.minimum.reduce(u),
     lambda u, t, c: c / np.maximum.reduce(u), lambda u, t, c: sqrt(Dual(np.maximum.reduce(u), c)),
     lambda u, t, c: np.where(u < 1.0, np.maximum.reduce(t), u),
     lambda u, t, c: np.maximum.reduce(np.minimum.reduce(u)), lambda u, t, c: np.maximum.reduce(u)[0],
     lambda u, t, c: float(np.minimum.reduce(u)), lambda u, t, c: np.sqrt(np.maximum.reduce(u)),
     lambda u, t, c: Dual(np.maximum.reduce(u), 0.0)],
    ids=["scaled", "negated", "divisor", "dual-sqrt", "where", "reduced", "indexed", "float",
         "np-sqrt", "dual-payload"],
)
def test_a_traced_reduction_is_read_by_no_other_line(use):
    # A reduction is a float that the kernel may only return: nothing branches on it.
    with pytest.raises(TypeError, match="a traced reduction is a float that the kernel may only "
                                        "return"):
        trace(lambda u, t, c: (Dual(u, t), use(u, t, c)), arrays=2)


@pytest.mark.parametrize(
    "out",
    [lambda u, t, c: (Dual(u, t), np.maximum.reduce(c)),
     lambda u, t, c: (np.maximum.reduce(u), Dual(u, t)),
     lambda u, t, c: (Dual(u, t), np.maximum.reduce(u), Dual(t, u)),
     lambda u, t, c: np.maximum.reduce(u)],
    ids=["of-a-float", "before-a-dual", "between-duals", "alone"],
)
def test_a_traced_function_returns_reductions_of_arrays_after_its_duals(out):
    with pytest.raises(TypeError):
        trace(out, arrays=2)


#: Both zeros, subnormals, both infinities, nan, and values of both signs.
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.5, -2.0, 1e300)


def _reductions(u, t, c):
    # np.abs and both reductions: of a value of a loop, of an input, of a view and of a pad.
    x = Dual(u, t) * c
    return (x, np.maximum.reduce(np.abs(x.value)), np.minimum.reduce(t),
            np.maximum.reduce(x.value[1:]), np.minimum.reduce(np.pad(u, 1, mode="edge") * 2.0))


_REDUCTIONS = trace(_reductions, arrays=2)
_REDUCTIONS_BOTH = (_REDUCTIONS, *compiled(_REDUCTIONS))


def _same_bits(got, want):
    # Bit for bit, except which NaN a NaN holds (IEEE 754 leaves it open).
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(_int_bits(got[~nan]), _int_bits(want[~nan])))


def _same_number(got, want):
    # A reduction: the same number, or a NaN for a NaN. Which NaN, and which of 0.0 and
    # -0.0 is the largest of both, is left open.
    return type(got) is float and (got == want or math.isnan(got) and math.isnan(want))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(2, 40), c=st.sampled_from([-1.5, 0.0, -0.0, 2.0, 1e300]))
def test_np_abs_and_the_reductions_equal_numpy_on_both_backends(data, n, c):
    # n up to 40 runs the vector body, any peeled head and the scalar tail of each loop.
    picks = np.frombuffer(data.draw(st.binary(min_size=2 * n, max_size=2 * n)), np.uint8)
    u, t = np.array(_SPECIAL)[picks % len(_SPECIAL)].reshape(2, n)
    with np.errstate(all="ignore"):
        want = _reductions(u, t, c)
    for kernel in _REDUCTIONS_BOTH:
        got = kernel(u, t, c)
        assert len(got) == 6
        assert _same_bits(got[0], want[0].value) and _same_bits(got[1], want[0].tangent)
        assert all(_same_number(g, w) for g, w in zip(got[2:], want[1:]))


def test_an_array_kernel_refuses_arrays_too_short_to_pad_or_reduce():
    # Both backends refuse with one message. _reductions reduces a view n - 1 long; a
    # kernel that pads takes any n from 1.
    padded = trace(lambda u, t: edge_pad(Dual(u, t)), arrays=2)
    assert (_REDUCTIONS.shortest[0], padded.shortest[0]) == (2, 1)
    for kernel, floats, what in ((_REDUCTIONS, (2.0,), "reduce"), (padded, (), "pad")):
        n = kernel.shortest[0] - 1
        for form in _both(kernel):
            with pytest.raises(ValueError,
                               match=f"^arrays of length {n} would {what} an empty array$"):
                form(np.ones(n), np.ones(n), *floats)


def _outputs_of_every_kind(u, t):
    # A computed array and a repeat of it, an input, a view of one and a view of a buffer.
    w = Dual(u, t) * 2.0
    v = (Dual(u, t) * 3.0)[1:]
    return w, Dual(w.value, u), Dual(u[1:], v.value)


def _both(kernel):
    # An array kernel as traced, and as C (`native.compiled`; the kernel itself without `cc`).
    return kernel, *compiled(kernel)


def test_an_array_kernel_returns_arrays_of_its_own():
    for kernel in _both(trace(_outputs_of_every_kind, arrays=2)):
        u, t = np.arange(5.0), np.linspace(1.0, 2.0, 5)
        first = kernel(u, t)
        second = kernel(u, t)
        want = [x for d in _outputs_of_every_kind(u, t) for x in (d.value, d.tangent)]
        for a, b in zip(second, want):
            assert np.array_equal(a, b)
        buffers = ()
        if isinstance(kernel, native._Compiled):  # a numpy kernel holds no scratch
            buffers = kernel.buffers
            assert buffers
        for i, a in enumerate(second):
            for b in (*second[:i], *first, u, t, *buffers):
                assert not np.shares_memory(a, b)


def test_an_array_kernel_refuses_arrays_of_two_lengths():
    for kernel in _both(trace(lambda u, t: Dual(u, t) * 2.0, arrays=2)):
        with pytest.raises(ValueError, match="lengths 3 and 4"):
            kernel(np.ones(3), np.ones(4))


def _scaled(k):
    # Kernels of one qualified name whose sources differ in the constant k.
    def kernel(u, t):
        return Dual(u, t) * k

    return trace(kernel, arrays=2)


_TWICE = _scaled(2.0)


@pytest.mark.parametrize("shape", [(3, 4), (1, 3), ()])
@pytest.mark.parametrize("form", ["numpy", "compiled"])
def test_an_array_kernel_refuses_an_array_that_is_not_1d(form, shape):
    # Without `cc` the compiled form is the numpy kernel.
    kernel = compiled(_TWICE)[0] if form == "compiled" else _TWICE
    for args in ((np.ones(3), np.ones(shape)), (np.ones(shape), np.ones(3))):
        with pytest.raises(ValueError, match=re.escape(f"must be 1-D, not of shape {shape}")):
            kernel(*args)


def _strided(a):
    # a as a view that steps over every other double of a longer array.
    wide = np.zeros(2 * len(a))
    wide[::2] = a
    return wide[::2]


_EVERY_KIND = trace(_outputs_of_every_kind, arrays=2)


@pytest.mark.parametrize("kind", [list, lambda a: a.astype(np.int64),
                                  lambda a: a.astype(np.float32), _strided],
                         ids=["list", "int64", "float32", "strided"])
@pytest.mark.parametrize("form", ["numpy", "compiled"])
def test_both_backends_take_array_arguments_by_one_rule(form, kind):
    # Each array argument is np.asarray(a, np.float64, order="C") on either backend, so
    # every output is a float64 array, also one that returns an input. Without `cc` the
    # compiled form is the numpy kernel.
    kernel = compiled(_EVERY_KIND)[0] if form == "compiled" else _EVERY_KIND
    args = [kind(np.array([3.0, -1.5, 4.25, 1.0, -5.5, 9.0])),
            kind(np.array([2.5, 7.0, -1.25, 8.0, 2.0, -8.75]))]
    want = [x for d in _outputs_of_every_kind(*(np.array(a, np.float64) for a in args))
            for x in (d.value, d.tangent)]
    got = kernel(*args)
    assert [g.dtype for g in got] == [np.dtype(np.float64)] * len(want)
    for g, w in zip(got, want):
        assert np.array_equal(_int_bits(g), _int_bits(w))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_the_kernel_cache_keeps_one_library_per_kernel_set(tmp_path, monkeypatch):
    # The cache lies next to the module, here moved into tmp_path.
    monkeypatch.setattr(native, "__file__", str(tmp_path / "dual.py"))
    cache = tmp_path / "__pycache__"
    assert isinstance(compiled(trace(_outputs_of_every_kind, arrays=2))[0], native._Compiled)
    other = set(cache.iterdir())
    # A library of the older naming, one hash and no set, goes at the next build; a
    # library of another set, and a file of another name, stay.
    old, kept = cache / f"kernels-{'0' * 16}.so", {cache / f"kernels-{'1' * 16}-{'2' * 16}.so",
                                                   cache / f"kernels-{'3' * 15}.so"}
    for path in (old, *kept):
        path.write_bytes(b"")
    for k in (2.0, 3.0):
        assert isinstance(compiled(_scaled(k))[0], native._Compiled)
    left = set(cache.iterdir())
    assert len(other) == 1 and other | kept < left and len(left - other - kept) == 1
    assert not old.exists()


def _float_lines(u, t, a, b):
    # A float root and two float divisions, each checked as the kernel runs.
    return Dual(u, t) * (sqrt(Dual(a, 1.0)) / b)


_FLOAT_LINES = trace(_float_lines, arrays=2)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.0), (-0.0, 2.0), (4.0, 0.0), (4.0, -0.0),
                                  (-1.0, 0.0), (math.nan, 1.0), (4.0, math.inf), (4.0, 2.0)])
def test_a_compiled_kernel_fails_on_float_lines_as_the_numpy_kernel_does(a, b):
    (fast,) = compiled(_FLOAT_LINES)
    u, t = np.linspace(-1.0, 1.0, 5), np.linspace(2.0, 3.0, 5)
    try:
        want = _FLOAT_LINES(u, t, a, b)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            fast(u, t, a, b)
    else:
        got = fast(u, t, a, b)
        for g, w in zip(got, want):
            assert np.array_equal(_int_bits(g), _int_bits(w))


def test_a_compiled_kernel_forgets_the_rows_it_kept_when_a_call_fails():
    # A call on the rows the kernel returned last passes them as they are; one that
    # fails on arrays of another length in between must not leave that length to them.
    (fast,) = compiled(_FLOAT_LINES)
    u, t = np.linspace(-1.0, 1.0, 5), np.linspace(2.0, 3.0, 5)
    first = fast(u, t, 4.0, 2.0)
    with pytest.raises(ZeroDivisionError):
        fast(np.ones(50), np.ones(50), 4.0, 0.0)
    again = fast(*first, 4.0, 2.0)
    for g, w in zip(again, _FLOAT_LINES(first[0].copy(), first[1].copy(), 4.0, 2.0)):
        assert np.array_equal(_int_bits(g), _int_bits(w))


class _Strict(list):
    """A list that refuses a negative index, as a traced read at an index does."""

    def __getitem__(self, i):
        if i < 0:
            raise IndexError(i)
        return list.__getitem__(self, i)


def _lookups(u, t, x, dx):
    # A cell lookup over each input, reads of both inputs at computed indices (the
    # lookups, and + - * of them and ints), indices read as floats (a quotient of two is
    # a float division), ** 0.5, and floats only as outputs: two float Duals and a float.
    i, j = cell(x, dx, u), cell(x * 0.5, dx, t)
    a = Dual(u[i], t[i]) * x + Dual(u[i - 1], t[i - j])
    return a, Dual((i + 0.5) * dx, j / (i + 1)), (u[j] * u[j]) ** 0.5 - u[-i + 2 * j + 1]


_LOOKUPS = trace(_lookups, arrays=2)
_LOOKUPS_BOTH = (_LOOKUPS, *compiled(_LOOKUPS))

#: The ends of the float line: both zeros, subnormals, both infinities, NaN, 1e+-300.
_EDGES = (0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300)


def _outcome(call):
    """What a call returns, as bits, or the type of what it raises."""
    try:
        return _bits(*call())
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 12),
       dx=st.sampled_from([0.1, 0.25, 1e-300, 1e300, 5e-324, 0.0, -0.0, -0.1, math.inf, math.nan]))
def test_a_cell_lookup_and_reads_at_an_index_equal_the_dual_evaluation_on_both_backends(
        data, n, dx):
    # x on a face, in a cell, at either end and past it, or at an edge of the float line;
    # the cells take edge values too. Every backend returns the same bits or fails alike;
    # the compiled kernel fails with the numpy kernel's message.
    k = data.draw(st.integers(-1, n + 1))
    x = data.draw(st.one_of(st.sampled_from([k * dx, (k + 0.5) * dx, n * dx,
                                             n * dx * (1 - 2**-52)]), st.sampled_from(_EDGES)))
    u, t = (np.array(data.draw(st.lists(st.sampled_from([*_EDGES, 1.0, -2.5, 0.5]),
                                        min_size=n, max_size=n))) for _ in "ut")
    want = _outcome(lambda: [p for d in _lookups(_Strict(u.tolist()), _Strict(t.tolist()), x, dx)
                             for p in ((d.value, d.tangent) if isinstance(d, Dual) else (d,))])
    for kernel in _LOOKUPS_BOTH:
        assert _outcome(lambda: kernel(u, t, x, dx)) == want
    try:
        _LOOKUPS(u, t, x, dx)
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        for kernel in _LOOKUPS_BOTH[1:]:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                kernel(u, t, x, dx)


@pytest.mark.parametrize("i", [0, 4, -1, 5])
def test_a_read_at_an_index_reads_cells_0_to_n_minus_1_and_fails_past_them(i):
    # A lookup of x = (i + 0.5) dx, then a read there: cells 0 and n - 1 read, and an
    # index out of range fails where numpy would read the last cell or past the end.
    def read(u, t, x):
        j = cell(x, 1.0, u) + (i if i < 0 else 0) + (1 if i == 5 else 0)
        return Dual(u[j], t[j])

    u, t = np.arange(5.0), -np.arange(5.0)
    x = min(max(i, 0), 4) + 0.5
    for kernel in (trace(read, arrays=2), *compiled(trace(read, arrays=2))):
        if 0 <= i < 5:
            assert kernel(u, t, x) == (float(i), -float(i))
        else:
            with pytest.raises(IndexError, match=f"^index {i} is outside an array of 5$"):
                kernel(u, t, x)


def test_a_lookup_checks_its_x_before_a_floor_and_a_read_its_index_before_it_reads():
    source = native._emit(_LOOKUPS, "kernel")[0]
    lines = [line.strip() for line in source.splitlines()]
    for k, line in enumerate(lines):
        if "floor(" in line:
            assert re.fullmatch(r"if \(!\(\w+ >= 0\.0 && \w+ < \(n\) \* \w+\)\) return 1;",
                                lines[k - 1])
        for a, index in re.findall(r"= (a[01])\[(\w+)\];", line):
            assert lines[k - 1] == f"if ({index} < 0 || {index} >= n) return 1;"
    assert "pow(" in source and "sqrt(" not in source


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.0, 5.0])
def test_a_lookup_of_x_outside_the_cells_fails_on_both_backends(x):
    for kernel in _LOOKUPS_BOTH:
        with pytest.raises(IndexError, match=r"^x = .* is outside \[0\.0, 5\.0\)$"):
            kernel(np.ones(5), np.ones(5), x, 1.0)


def test_a_traced_half_power_is_pythons_below_and_above_zero():
    def half(u, t, a):
        return Dual(u * (a**0.5), t)

    u = np.linspace(0.0, 1.0, 4)
    for kernel in (trace(half, arrays=2), *compiled(trace(half, arrays=2))):
        for a in (0.0, -0.0, 5e-324, 2.0, 1e300, math.inf, math.nan):
            with np.errstate(all="ignore"):
                got, want = kernel(u, u, a), half(u, u, a)
            assert _same_bits(got[0], want.value) and _same_bits(got[1], want.tangent)
        for a in (-5e-324, -2.0, -math.inf):
            with pytest.raises(ValueError, match=r"\*\* 0\.5 is complex$"):
                kernel(u, u, a)


def _arrays_then_floats(u, t, x):
    # An array Dual, then a float Dual of a constant tangent, then a reduction.
    return Dual(u * x, t), Dual(x * x, 0.0), np.maximum.reduce(t)


def test_a_compiled_kernel_returns_its_arrays_then_its_floats():
    kernel = trace(_arrays_then_floats, arrays=2)
    u, t = np.linspace(-1.0, 2.0, 6), np.linspace(3.0, 1.0, 6)
    want = kernel(u, t, 1.5)
    for got in (kernel(u, t, 1.5), compiled(kernel)[0](u, t, 1.5)):
        assert len(got) == 5 and all(type(x) is float for x in got[2:])
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert _bits(*got[2:]) == _bits(2.25, 0.0, 3.0)
    floats_first = trace(lambda u, t, x: (Dual(x, x), Dual(u, t)), arrays=2)
    with pytest.raises(TypeError, match="returns its arrays before its floats"):
        compiled(floats_first)


@pytest.mark.parametrize(
    "use",
    [lambda u, i: u[i + 0.5], lambda u, i: (u * 2.0)[i], lambda u, i: u[1:][i],
     lambda u, i: u[u[i]], lambda u, i: Dual(i, 0.0), lambda u, i: cell(u[i], 1.0, 3),
     lambda u, i: u[i] ** 2.0, lambda u, i: u[i] < 1.0],
    ids=["float-index", "computed-array", "view", "float-as-index", "index-output",
         "int-count", "pow-2", "compare"],
)
def test_a_traced_index_refuses_every_use_outside_its_operations(use):
    def fn(u, t, x):
        out = use(u, cell(x, 1.0, u))
        return out if isinstance(out, Dual) else Dual(out, t[0 * cell(x, 1.0, t)])

    with pytest.raises(TypeError):
        trace(fn, arrays=2)
