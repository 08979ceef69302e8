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

``trace`` records a dual function once and replays it as straight-line code
(operator-overloading AD's tape, Griewank & Walther, *Evaluating Derivatives*,
ch. 3 and 6). The function runs on duals whose payloads are recorders, so the
tangent code it emits is what the rules above produce, and the compiled kernel
returns the dual evaluation's values and tangents bit for bit, with no
``Dual`` built per call. A recorded float refuses every use but ``+ - * /``,
negation, ``** 0.5`` and ``sqrt`` (whose domains the kernel checks as it
runs), so no branch on a value is ever baked into a kernel: a function that
branches cannot be traced. A recorded float x also gives the cell that holds
it, ``cell(x, dx, a)`` over the cells of an array a of the kernel (the lookup
of `Grid1D.cell_containing`, its range checked as the kernel runs): an index,
which takes ``+ - *`` with ints and other indices, counts as a float in float
arithmetic, and reads an input array, ``a[i]``, where the kernel checks i
against the array's ends. A recorded array takes these, the comparisons, whose
masks only ``np.where`` reads (so ``where``, ``maximum`` and ``abs`` record
both branches and the choice), ``np.sqrt``, ``np.abs``, the slices ``a[i:]``
and ``a[i:-j]``, ``np.pad(a, 1, mode="edge")``, and the reductions
``np.maximum.reduce(a)`` and ``np.minimum.reduce(a)``. A reduction is a float
that the kernel may only return, after the Duals: nothing else reads it, so a
kernel still branches on no value. A kernel may also return traced floats
there. Anything else raises TypeError. Each operator has one spelling,
``a + b``, ``a < b`` or ``-a``, for floats and arrays alike: numpy runs
``a + b`` as ``np.add(a, b)``. An array kernel runs the tape as written, one
numpy call per line, drops each temporary after its last reader, and returns
arrays of its own: never an input, nor a view of one. It holds no state
between calls, raises no numpy floating-point warnings, and takes its arrays
by one rule on either backend (`_Kernel.arguments`): each is made float64,
and they must be 1-D, of one length, and long enough to pad or reduce.
`native.compiled` runs array kernels as C.
"""

import math
from collections import namedtuple

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
        if _array(self.value):
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
    if _array(x.value):
        root = np.sqrt(x.value)
    elif isinstance(x.value, _Recorded):  # checked as the kernel runs
        root = x.value._append("_root({})", [_operand(x.value)], None)
    else:
        root = _root(x.value)
    return Dual(root, x.tangent / (2.0 * root))


def _root(value):
    """math.sqrt(value), or sqrt's ValueError for a value at or below zero."""
    if value <= 0.0:
        raise ValueError(f"sqrt requires a positive value, got {value}")
    return math.sqrt(value)


def _half_power(value):
    """value ** 0.5 as Python's float power gives it (C's pow), or ValueError below zero,
    where Python's is complex."""
    if value < 0.0:
        raise ValueError(f"{value!r} ** 0.5 is complex")
    return value**0.5


def cell(x, dx, n):
    """The index i of the cell [i dx, (i + 1) dx), of n, that holds x: `Grid1D.cell_containing`.

    n is the number of cells, or an array of n cells. IndexError where x is
    not in [0, n dx), a NaN included. A traced x records the lookup, over a
    traced array n of the kernel; the kernel checks x's range before it takes
    a floor.
    """
    if isinstance(x, _Recorded):
        if not (isinstance(n, _Recorded) and _array(n)):
            x._refuse()
        return x._append(_CELL, [_operand(x), _operand(dx), _operand(n)], None, "index")
    return _cell(x, dx, n if isinstance(n, int) else len(n))


def _cell(x, dx, n):
    """`cell` of a float x and an int n."""
    if not 0.0 <= x < n * dx:
        raise IndexError(f"x = {x!r} is outside [0.0, {n * dx!r})")
    i = math.floor(x / dx)
    # Rounding in the division can misplace an exact face hit by one (faces are i dx).
    if i + 1 < n and x >= (i + 1) * dx:
        i += 1
    elif x < i * dx:
        i -= 1
    return i


def _at(a, i):
    """float(a[i]), or IndexError for an i outside a (a negative one included)."""
    if not 0 <= i < len(a):
        raise IndexError(f"index {i} is outside an array of {len(a)}")
    return float(a[i])


def where(cond, a, b):
    """Elementwise/scalar select; tangent follows the branch taken."""
    a = lift(a)
    b = lift(b)
    if _array(cond):
        return Dual(np.where(cond, a.value, b.value), np.where(cond, a.tangent, b.tangent))
    return a if cond else b


def maximum(a, b):
    """max(a, b) decided on values; ties keep the first argument's tangent."""
    a = lift(a)
    b = lift(b)
    return where(a.value >= b.value, a, b)


def edge_pad(d):
    """Extend an array-backed dual by one copy of each end cell (zero-gradient)."""
    return Dual(np.pad(d.value, 1, mode="edge"), np.pad(d.tangent, 1, mode="edge"))


def _array(x):
    """Whether a payload is an array, real or recorded."""
    return isinstance(x, np.ndarray) or isinstance(x, _Recorded) and x.length is not None


#: The comparisons of recorded arrays: x > y is recorded as y < x.
_COMPARISONS = ("<", "<=")

#: What traced code calls, by the name it calls it.
_CALLS = {name: getattr(np, name) for name in ("sqrt", "absolute", "where", "concatenate",
                                               "maximum", "minimum")}
_CALLS.update(_root=_root, _half_power=_half_power, _cell=_cell, _at=_at)

#: The recorded cell lookup, over its x, dx and an array of the kernel's n cells,
#: and the read of an input array at a traced index.
_CELL = "_cell({}, {}, len({}))"
_AT = "_at({}, {})"

#: The unary ufuncs a recorded array takes, and its reductions: np.maximum.reduce
#: and np.minimum.reduce, by the code of their line and the C comparison by which
#: an accumulator keeps a cell (`native._emit`).
_UNARY = (np.sqrt, np.absolute)
_REDUCE = {"float(maximum.reduce({}))": ">", "float(minimum.reduce({}))": "<"}

#: Why a mask or a reduction is no operand of another line. An "index", a cell
#: lookup or + - * of indices and ints, is an operand, but no output.
_READ_BY = {"mask": "a traced comparison's mask is read by np.where alone",
            "reduction": "a traced reduction is a float that the kernel may only return"}

#: np.pad(a, 1, mode="edge") of a 1-D array, at a quarter of np.pad's cost.
_PAD = "concatenate(({0}[[0]], {0}, {0}[[-1]]))"

#: One recorded operation: the value `name` is `code` formatted with its operands;
#: `view` is the slice a view takes, and `kind` the result's (`_Recorded`).
_Line = namedtuple("_Line", "name code operands length view kind")


def _operator(op):
    """The forward and the reflected method of one binary operator of a recorder."""
    return (lambda self, other: self._binary(op, self, other),
            lambda self, other: self._binary(op, other, self))


class _Recorded:
    """A float or a float array of a function being traced: each operation appends one line.

    `length` is None for a float; for an array it is the array's length less
    the length n of the kernel's array inputs. `kind` is "mask" for a
    comparison of arrays, which only np.where reads, "reduction" for a
    reduction of an array, which only the kernel returns (`_READ_BY`), and
    "index" for an integer: a cell lookup (`cell`), or + - * of indices and
    ints. An input array read at an index, a[i], is a float. Unary minus is
    recorded as such: 0.0 - x would turn a zero's sign.
    """

    __slots__ = ("lines", "name", "length", "kind")

    def __init__(self, lines, name, length=None, kind=None):
        self.lines = lines
        self.name = name
        self.length = length
        self.kind = kind

    def _append(self, code, operands, length, kind=None, view=None):
        """Record `code`, a format string over the operands' names."""
        name = f"t{len(self.lines)}"
        self.lines.append(_Line(name, code, operands, length, view, kind))
        return _Recorded(self.lines, name, length, kind)

    def _binary(self, op, *operands):
        names = [_operand(x) for x in operands]
        if None in names:
            return NotImplemented
        length = _length(operands)
        if op in _COMPARISONS and length is None:
            self._refuse()
        index = op != "/" and all(type(x) is int or getattr(x, "kind", None) == "index"
                                  for x in operands)
        return self._append(f"{{}} {op} {{}}", names, length,
                            "mask" if op in _COMPARISONS else "index" if index else None)

    __add__, __radd__ = _operator("+")
    __sub__, __rsub__ = _operator("-")
    __mul__, __rmul__ = _operator("*")
    __truediv__, __rtruediv__ = _operator("/")
    __lt__, __gt__ = _operator("<")
    __le__, __ge__ = _operator("<=")

    def __neg__(self):
        return self._append("-{}", [_operand(self)], self.length, self.kind)

    def __pow__(self, exponent):
        # x ** 0.5 of a float, Python's own spelling of a root (`_half_power`).
        if self.length is not None or type(exponent) is not float or exponent != 0.5:
            self._refuse()
        return self._append("_half_power({})", [_operand(self)], None)

    def __getitem__(self, key):
        if getattr(key, "kind", None) == "index":  # an input array at an index
            if self.length != 0 or any(line.name == self.name for line in self.lines):
                raise TypeError("a traced index reads an input array")
            return self._append(_AT, [self.name, key.name], None)
        # a[i:] or a[i:-j], i >= 0 and j > 0: a view, whatever the length n.
        if self.length is None or type(key) is not slice or key.step not in (None, 1):
            self._refuse()
        start, stop = key.start or 0, key.stop
        if type(start) is not int or start < 0 or not (stop is None or type(stop) is int
                                                       and stop < 0):
            self._refuse()
        text = f"{{}}[{start or ''}:{'' if stop is None else stop}]"
        return self._append(text, [_operand(self)], self.length - start + (stop or 0),
                            view=slice(start, stop))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if not kwargs and _array(self):
            if method == "__call__" and ufunc in _UNARY:
                return self._append(f"{ufunc.__name__}({{}})", [_operand(self)], self.length)
            code = f"float({ufunc.__name__}.reduce({{}}))"
            if method == "reduce" and code in _REDUCE:
                return self._append(code, [_operand(self)], None, "reduction")
        self._refuse()

    def __array_function__(self, func, types, args, kwargs):
        if func is np.where and len(args) == 3 and not kwargs and _is_mask(args[0]):
            names = [args[0].name, *(_operand(x) for x in args[1:])]
            if None not in names:
                return self._append("where({}, {}, {})", names, _length(args))
        elif (func is np.pad and len(args) == 2 and type(args[1]) is int and args[1] == 1
              and list(kwargs.items()) == [("mode", "edge")] and _array(args[0])):
            return self._append(_PAD, [_operand(args[0])], args[0].length + 2)
        self._refuse()

    def _refuse(self, *_, **__):
        if self.kind == "reduction":
            raise TypeError(_READ_BY[self.kind])
        if self.length is None:
            raise TypeError(
                "a traced float takes only + - * /, negation, ** 0.5 and dual.sqrt: a "
                "comparison, bool(), float() or abs() would fix the branch of one value into "
                "the kernel"
            )
        raise TypeError(
            "a traced array takes only + - * /, negation, < <= > >=, np.sqrt, np.abs, np.where "
            "on a comparison's mask, slices a[i:] and a[i:-j], np.pad(a, 1, mode='edge'), "
            "np.maximum.reduce(a) and np.minimum.reduce(a)"
        )

    __eq__ = __ne__ = __bool__ = __float__ = __len__ = _refuse
    __abs__ = __rpow__ = __array__ = _refuse


def _is_mask(x):
    return isinstance(x, _Recorded) and x.kind == "mask"


def _operand(x):
    """x as code: a recorded name or a finite int or float literal, else None.

    A mask is an operand of np.where's condition alone, and a reduction of none.
    """
    if isinstance(x, _Recorded):
        if x.kind in _READ_BY:
            raise TypeError(_READ_BY[x.kind])
        return x.name
    if type(x) is int or type(x) is float and math.isfinite(x):
        return repr(x)
    return None


def _length(operands):
    """The length of an operation's result: None for floats, else its arrays' one length."""
    lengths = {x.length for x in operands if isinstance(x, _Recorded)} - {None}
    if len(lengths) > 1:
        shown = " and ".join(f"n{k:+d}" for k in sorted(lengths))
        raise TypeError(f"traced arrays of lengths {shown} do not match")
    return lengths.pop() if lengths else None


def trace(fn, arrays=0, args=None):
    """Compile fn, from payloads to Duals, into a kernel of straight-line code.

    fn's first `arrays` positional parameters are float arrays of one length
    n, the others floats; a fn(*args) takes `args` of them. It runs once, on
    recorders of these, and returns a Dual or a tuple of Duals, which may end
    in traced floats and reductions of arrays; the kernel takes the payloads
    and returns the values and tangents of those Duals in order, then those
    floats. Lines that no output reads are dropped; the rest run in recorded
    order, so the kernel rounds as fn does on payloads.

    A float kernel is a plain function; an array kernel is a `_Kernel`.
    """
    lines = []
    params = [f"a{k}" for k in range(fn.__code__.co_argcount if args is None else args)]
    out = fn(*(_Recorded(lines, a, 0 if k < arrays else None) for k, a in enumerate(params)))
    duals = out if type(out) is tuple else (out,)
    k = next((i for i, d in enumerate(duals) if not isinstance(d, Dual)), len(duals))
    payloads = [x for d in duals[:k] for x in (d.value, d.tangent)]
    results = [None if getattr(x, "kind", None) in ("mask", "index") else _operand(x)
               for x in payloads]
    if not k or None in results or not all(isinstance(r, _Recorded) and r.length is None
                                           and r.kind in (None, "reduction") for r in duals[k:]):
        raise TypeError(f"{fn.__qualname__} must return a Dual, or a tuple of Duals, "
                        "of traced or constant payloads, then any traced floats and reductions")
    results += [r.name for r in duals[k:]]
    live, body = set(results), []
    for line in reversed(lines):
        if line.name in live:
            body.append(line)
            live.update(line.operands)
    body.reverse()
    if arrays:
        return _Kernel(fn.__qualname__, (body, results, params), arrays)
    return _define(fn.__qualname__, params, body, results)


def _define(name, params, body, results, arrays=0):
    """Compile a function of `params` that runs the lines `body` and returns `results`.

    Each array temporary is deleted after its last reader. An array result is
    copied if it is one of the first `arrays` parameters, a view or a repeat,
    so that what a call returns is its own.
    """
    last = {x: i for i, line in enumerate(body) for x in line.operands}
    dead, code = {}, []
    for line in body:
        if line.length is not None and line.name not in results:
            dead.setdefault(last[line.name], []).append(line.name)
    for i, line in enumerate(body):
        code.append(f"{line.name} = {line.code.format(*line.operands)}")
        if i in dead:
            code.append(f"del {', '.join(dead[i])}")
    fresh = {line.name for line in body if line.length is not None and not line.view}
    copied = {line.name for line in body if line.view}.union(params[:arrays])
    returns = [f"{x}.copy()" if x in copied or x in fresh and x in results[:k] else x
               for k, x in enumerate(results)]
    lines = "".join(f"    {c}\n" for c in [*code, f"return ({', '.join(returns)},)"])
    namespace = dict(_CALLS)
    exec(compile(f"def kernel({', '.join(params)}):\n{lines}",
                 f"<trace of {name}>", "exec"), namespace)
    return namespace["kernel"]


class _Kernel:
    """A traced array kernel, run as numpy code: one call per line of its tape (`_define`).

    Both backends take its arrays by one rule (`arguments`): a list, an int or
    float32 array or a strided view gives the float64 results of its copy. It
    holds no state between calls, so calls may overlap, and it runs with
    numpy's floating-point warnings off, as a compiled kernel raises none.
    `name` is the traced function's qualified name; `tape` keeps the recorded
    lines, outputs and parameters, which `native.compiled` emits as C; the
    numpy code is compiled from them on the first call, which a compiled
    kernel makes only where its C fails. `shortest` is the least n, and
    whether a shorter one would pad an empty array (else reduce one).
    """

    __slots__ = ("name", "code", "arrays", "tape", "shortest")

    def __init__(self, name, tape, arrays):
        self.name = name
        self.code = None
        self.arrays = arrays
        self.tape = tape
        body, _, params = tape
        length = {**dict.fromkeys(params[:arrays], 0), **{x.name: x.length for x in body}}
        self.shortest = max([(1 - length[x.operands[0]], x.code == _PAD) for x in body
                             if x.code == _PAD or x.code in _REDUCE], default=(0, True))

    def arguments(self, args):
        """Each array argument as np.asarray(a, np.float64, order="C"), and their one length n.

        A ValueError names shapes that are not all (n,), or a pad or reduction that is empty.
        """
        arrays = [np.asarray(a, np.float64, order="C") for a in args[:self.arrays]]
        for a in arrays:
            if a.ndim != 1:
                raise ValueError(f"array arguments must be 1-D, not of shape {a.shape}")
            if a.shape != arrays[0].shape:
                raise ValueError(f"array arguments of lengths {len(arrays[0])} and {len(a)}")
        n = len(arrays[0])
        if n < self.shortest[0]:
            what = "pad" if self.shortest[1] else "reduce"
            raise ValueError(f"arrays of length {n} would {what} an empty array")
        return arrays, n

    def __call__(self, *args):
        arrays, _ = self.arguments(args)
        if self.code is None:
            body, results, params = self.tape
            self.code = _define(self.name, params, body, results, self.arrays)
        with np.errstate(all="ignore"):
            return self.code(*arrays, *args[self.arrays:])
