"""First-order dual numbers for forward-mode differentiation.

A ``Dual`` carries a value and a directional derivative (tangent) through
arithmetic; overloaded operators apply the usual chain rules, so arithmetic
written for floats runs on duals and propagates exact derivatives. Payloads
may be Python floats or numpy arrays of matching shape, which lets a whole
cell field ride through a finite-volume update as one dual. Division by a
zero float raises ZeroDivisionError; arrays follow IEEE (`run` checks them).

A dual has no ordering and ``==`` is identity: a branch must read ``.value``,
so each non-smooth choice (``where``, ``maximum``, ``abs``) is named where it
is made.

``with_custom_tangent`` is the escape hatch for non-smooth elementals: it
assembles a result whose value and tangent are supplied independently, so a
hand-derived propagation rule can replace the mechanical one at exactly one
spot while everything downstream stays ordinary dual arithmetic.

``trace`` records a scalar dual function once and replays it as plain float
code (operator-overloading AD's tape, Griewank & Walther, *Evaluating
Derivatives*, ch. 3 and 6). The function runs on duals whose payloads are
recording floats, so the tangent code it emits is what the rules above
produce, and the compiled kernel returns the dual evaluation's (value,
tangent) bit for bit, with no ``Dual`` built per call. A recording float
refuses every use but ``+ - * /`` and negation, so no branch on a value is
ever baked into a kernel: a function that branches cannot be traced.
"""

import math

import numpy as np


class Dual:
    """Value plus tangent. Immutable by convention: ops return new instances."""

    __slots__ = ("value", "tangent")

    # Keep numpy from broadcasting over us; binary ops must fall back to the
    # reflected Dual methods.
    __array_ufunc__ = None

    def __init__(self, value, tangent):
        self.value = value
        self.tangent = tangent

    def __repr__(self):
        return f"Dual({self.value!r}, {self.tangent!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.tangent + other.tangent)
        return Dual(self.value + other, self.tangent)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.tangent - other.tangent)
        return Dual(self.value - other, self.tangent)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.tangent)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.tangent * other.value + self.value * other.tangent,
            )
        return Dual(self.value * other, self.tangent * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.value
            val = self.value * inv
            return Dual(val, (self.tangent - val * other.tangent) * inv)
        inv = 1.0 / other
        return Dual(self.value * inv, self.tangent * inv)

    def __rtruediv__(self, other):
        inv = 1.0 / self.value
        val = other * inv
        return Dual(val, -val * inv * self.tangent)

    def __neg__(self):
        return Dual(-self.value, -self.tangent)

    def __pow__(self, exponent):
        if isinstance(exponent, Dual):
            raise TypeError("dual exponents are not supported; exponent must be constant")
        return Dual(
            self.value**exponent,
            exponent * self.value ** (exponent - 1) * self.tangent,
        )

    def __abs__(self):
        if isinstance(self.value, np.ndarray):
            neg = self.value < 0
            return Dual(
                np.where(neg, -self.value, self.value),
                np.where(neg, -self.tangent, self.tangent),
            )
        return -self if self.value < 0 else self

    def __getitem__(self, key):
        return Dual(self.value[key], self.tangent[key])


def lift(value):
    """Embed a constant: tangent identically zero."""
    if isinstance(value, Dual):
        return value
    if isinstance(value, np.ndarray):
        return Dual(value, np.zeros_like(value))
    return Dual(float(value), 0.0)


def seed(value, tangent=1.0):
    """Mark a scalar input as differentiated with the given direction."""
    return Dual(float(value), float(tangent))


def with_custom_tangent(value, tangent):
    """Assemble a dual from an independently computed value and tangent."""
    return Dual(value, tangent)


def sqrt(x):
    """Square root of a dual with the 1/(2 sqrt) tangent rule; domain-checked for scalars."""
    if isinstance(x.value, np.ndarray):
        root = np.sqrt(x.value)
    else:
        if x.value <= 0.0:
            raise ValueError(f"sqrt requires a positive value, got {x.value}")
        root = math.sqrt(x.value)
    return Dual(root, x.tangent / (2.0 * root))


def where(cond, a, b):
    """Elementwise/scalar select; tangent follows the branch taken."""
    a = lift(a)
    b = lift(b)
    if isinstance(cond, np.ndarray):
        return Dual(np.where(cond, a.value, b.value), np.where(cond, a.tangent, b.tangent))
    return a if cond else b


def maximum(a, b):
    """max(a, b) decided on values; ties keep the first argument's tangent."""
    a = lift(a)
    b = lift(b)
    return where(a.value >= b.value, a, b)


def _edge_pad(a):
    # np.pad(a, 1, mode="edge") for 1-D arrays, at a fraction of its cost.
    out = np.empty(len(a) + 2, dtype=a.dtype)
    out[0] = a[0]
    out[1:-1] = a
    out[-1] = a[-1]
    return out


def edge_pad(d):
    """Extend an array-backed dual by one copy of each end cell (zero-gradient)."""
    return Dual(_edge_pad(d.value), _edge_pad(d.tangent))


def _operator(op):
    """The forward and the reflected method of one operator of a recording float."""
    code = f"{{}} {op} {{}}"

    def forward(self, other):
        return self._record(code, self, other)

    def reflected(self, other):
        return self._record(code, other, self)

    return forward, reflected


class _Recorded:
    """A float of a function being traced: each + - * / appends one line of code.

    Unary minus is recorded as such: 0.0 - x would turn a zero's sign.
    """

    __slots__ = ("lines", "name")

    # A numpy scalar operand then gives way instead of wrapping this object, and
    # fails like any constant that is not an int or a float.
    __array_ufunc__ = None

    def __init__(self, lines, name):
        self.lines = lines
        self.name = name

    def _record(self, code, *operands):
        names = [_operand(x) for x in operands]
        if None in names:
            return NotImplemented
        name = f"t{len(self.lines)}"
        self.lines.append((name, code.format(*names), names))
        return _Recorded(self.lines, name)

    __add__, __radd__ = _operator("+")
    __sub__, __rsub__ = _operator("-")
    __mul__, __rmul__ = _operator("*")
    __truediv__, __rtruediv__ = _operator("/")

    def __neg__(self):
        return self._record("-{}", self)

    def _refuse(self, *_):
        raise TypeError(
            "a traced float takes only + - * /: a comparison, bool(), float(), abs() "
            "or ** would fix the branch of one value into the kernel"
        )

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __float__ = __abs__ = __pow__ = __rpow__ = _refuse


def _operand(x):
    """x as code: a recorded name or a finite int or float literal, else None."""
    if isinstance(x, _Recorded):
        return x.name
    if type(x) is int or type(x) is float and math.isfinite(x):
        return repr(x)
    return None


def trace(fn):
    """Compile fn, from floats to a scalar Dual, into kernel(*floats) -> (value, tangent).

    fn runs once, on recording floats, one per positional parameter. Lines that
    no output reads are dropped; the rest run in recorded order, so the kernel
    rounds as fn does on floats.
    """
    lines = []
    args = [f"a{k}" for k in range(fn.__code__.co_argcount)]
    out = fn(*(_Recorded(lines, a) for a in args))
    results = (_operand(out.value), _operand(out.tangent))
    if None in results:
        raise TypeError(f"{fn.__qualname__} must return a Dual of traced or constant floats")
    live, body = set(results), []
    for name, code, operands in reversed(lines):
        if name in live:
            body.append(f"    {name} = {code}\n")
            live.update(operands)
    source = (f"def kernel({', '.join(args)}):\n{''.join(reversed(body))}"
              f"    return {results[0]}, {results[1]}\n")
    namespace = {}
    exec(compile(source, f"<trace of {fn.__qualname__}>", "exec"), namespace)
    return namespace["kernel"]
