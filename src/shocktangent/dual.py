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
(operator-overloading AD's tape, Griewank & Walther, *Evaluating
Derivatives*, ch. 3 and 6). The function runs on duals whose payloads are
recorders, so the tangent code it emits is what the rules above produce, and
the compiled kernel returns the dual evaluation's values and tangents bit for
bit, with no ``Dual`` built per call. A recorded float refuses every use but
``+ - * /``, negation and ``sqrt`` (whose domain the kernel checks as it runs),
so no branch on a value is ever baked into a kernel: a function that branches
cannot be traced. A recorded array takes these, the comparisons, whose masks
only ``np.where`` reads (so ``where``, ``maximum`` and ``abs`` record both
branches and the choice), ``np.sqrt``, ``np.abs``, the slices ``a[i:]`` and
``a[i:-j]``, ``np.pad(a, 1, mode="edge")``, and the reductions
``np.maximum.reduce(a)`` and ``np.minimum.reduce(a)``. A reduction is a float
that the kernel may only return, after the Duals: nothing else reads it, so a
kernel still branches on no value. Anything else raises TypeError. Each
operator has one spelling, ``a + b``, ``a < b`` or ``-a``, for floats and
arrays alike: numpy runs ``a + b`` as ``np.add(a, b)``. An array kernel runs
the tape as written, one numpy call per line, drops each temporary after its
last reader, and returns arrays of its own: never an input, nor a view of one.
It holds no state between calls, raises no numpy floating-point warnings, and
takes its arrays by one rule on either backend (`_Kernel.arguments`): each is
made float64, and they must be 1-D, of one length, and long enough to pad or
reduce.

``compiled`` turns array kernels into C, the tape compiled instead of
interpreted line by line (Griewank & Walther, ch. 6): the lines fuse into a
few loops, whose values live in C locals, so a kernel runs as one call with
no numpy call per line. Each C operation is the IEEE operation numpy runs, in
the same order, built without contraction or fast-math, so a compiled kernel
returns the same bits (which NaN a NaN result holds aside, which IEEE 754
leaves open), whether its loops run on AVX2 vectors, narrower ones or none,
and raises the float lines' exceptions. A reduction keeps an accumulator in
the loop that computes its operand: the largest or smallest of the cells'
bits read as integers that order as the doubles do, and a count of NaNs, as
GCC vectorizes neither a float max nor a float min without fast-math. It
returns the same number as numpy, or a NaN where numpy does; the sign of a
zero it returns is left open. It raises no numpy floating-point warnings.
Where no C compiler, writable cache or loadable library is at hand, the
numpy kernels are used; they stay the reference.
"""

import contextlib
import ctypes
import importlib.util
import math
import operator
import os
import re
import shutil
import tempfile
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
_CALLS["_root"] = _root

#: The unary ufuncs a recorded array takes, and its reductions: np.maximum.reduce
#: and np.minimum.reduce, by the code of their line and the C comparison by which
#: an accumulator keeps a cell (`_emit`).
_UNARY = (np.sqrt, np.absolute)
_REDUCE = {"float(maximum.reduce({}))": ">", "float(minimum.reduce({}))": "<"}

#: Why a mask or a reduction is no operand of another line.
_READ_BY = {"mask": "a traced comparison's mask is read by np.where alone",
            "reduction": "a traced reduction is a float that the kernel may only return"}

#: np.pad(a, 1, mode="edge") of a 1-D array, at a quarter of np.pad's cost.
_PAD = "concatenate(({0}[[0]], {0}, {0}[[-1]]))"

#: One recorded operation: the value `name` is `code` formatted with its operands;
#: `view` is the slice a view takes.
_Line = namedtuple("_Line", "name code operands length view")


def _operator(op):
    """The forward and the reflected method of one binary operator of a recorder."""
    return (lambda self, other: self._binary(op, self, other),
            lambda self, other: self._binary(op, other, self))


class _Recorded:
    """A float or a float array of a function being traced: each operation appends one line.

    `length` is None for a float; for an array it is the array's length less
    the length n of the kernel's array inputs. `kind` is "mask" for a
    comparison of arrays, which only np.where reads, and "reduction" for a
    reduction of an array, which only the kernel returns (`_READ_BY`). Unary
    minus is recorded as such: 0.0 - x would turn a zero's sign.
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
        self.lines.append(_Line(name, code, operands, length, view))
        return _Recorded(self.lines, name, length, kind)

    def _binary(self, op, *operands):
        names = [_operand(x) for x in operands]
        if None in names:
            return NotImplemented
        length = _length(operands)
        if op in _COMPARISONS and length is None:
            self._refuse()
        return self._append(f"{{}} {op} {{}}", names, length,
                            "mask" if op in _COMPARISONS else None)

    __add__, __radd__ = _operator("+")
    __sub__, __rsub__ = _operator("-")
    __mul__, __rmul__ = _operator("*")
    __truediv__, __rtruediv__ = _operator("/")
    __lt__, __gt__ = _operator("<")
    __le__, __ge__ = _operator("<=")

    def __neg__(self):
        return self._append("-{}", [_operand(self)], self.length)

    def __getitem__(self, key):
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
                "a traced float takes only + - * /, negation and dual.sqrt: a comparison, "
                "bool(), float(), abs() or ** would fix the branch of one value into the kernel"
            )
        raise TypeError(
            "a traced array takes only + - * /, negation, < <= > >=, np.sqrt, np.abs, np.where "
            "on a comparison's mask, slices a[i:] and a[i:-j], np.pad(a, 1, mode='edge'), "
            "np.maximum.reduce(a) and np.minimum.reduce(a)"
        )

    __eq__ = __ne__ = __bool__ = __float__ = __len__ = _refuse
    __abs__ = __pow__ = __rpow__ = __array__ = _refuse


def _is_mask(x):
    return isinstance(x, _Recorded) and x.kind == "mask"


def _operand(x):
    """x as code: a recorded name or a finite int or float literal, else None.

    A mask is an operand of np.where's condition alone, and a reduction of none.
    """
    if isinstance(x, _Recorded):
        if x.kind:
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
    in reductions of arrays; the kernel takes the payloads and returns the
    values and tangents of those Duals in order, then the reductions as
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
    results = [None if _is_mask(x) else _operand(x) for x in payloads]
    if not k or None in results or any(getattr(r, "kind", None) != "reduction"
                                       for r in duals[k:]):
        raise TypeError(f"{fn.__qualname__} must return a Dual, or a tuple of Duals, "
                        "of traced or constant payloads, then any reductions")
    results += [r.name for r in duals[k:]]
    live, body = set(results), []
    for line in reversed(lines):
        if line.name in live:
            body.append(line)
            live.update(line.operands)
    body.reverse()
    code = _define(fn, params, body, results, arrays)
    return _Kernel(fn, code, (body, results, params), arrays) if arrays else code


def _define(fn, params, body, results, arrays=0):
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
                 f"<trace of {fn.__qualname__}>", "exec"), namespace)
    return namespace["kernel"]


class _Kernel:
    """A traced array kernel, run as numpy code: one call per line of its tape (`_define`).

    Both backends take its arrays by one rule (`arguments`): a list, an int or
    float32 array or a strided view gives the float64 results of its copy. It
    holds no state between calls, so calls may overlap, and it runs with
    numpy's floating-point warnings off, as a compiled kernel raises none.
    `name` is the traced function's qualified name; `tape` keeps the recorded
    lines, outputs and parameters, which `compiled` emits as C. `shortest` is
    the least n, and whether a shorter one would pad an empty array (else
    reduce one).
    """

    __slots__ = ("name", "code", "arrays", "tape", "shortest")

    def __init__(self, fn, code, tape, arrays):
        self.name = fn.__qualname__
        self.code = code
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
        with np.errstate(all="ignore"):
            return self.code(*arrays, *args[self.arrays:])


#: The C of each recorded operation over its operands' C. A mask is 0.0 or 1.0.
_C = {
    **{f"{{}} {op} {{}}": f"{{}} {op} {{}}" for op in ("+", "-", "*", "/", *_COMPARISONS)},
    "-{}": "-{}", "sqrt({})": "sqrt({})", "absolute({})": "fabs({})", "_root({})": "sqrt({})",
    "where({}, {}, {})": "{} ? {} : {}",
}

#: No -march, no fast-math and no a * b + c contracted into one rounding: each
#: operation rounds once, as numpy's and Python's do. -O3 vectorizes the loops
#: without reordering an operation, and -fno-math-errno lets sqrt run as the
#: instruction: no kernel reads errno, and the float lines check a root's value
#: before taking it.
_CFLAGS = ("-O3", "-fno-math-errno", "-ffp-contract=off", "-shared", "-fPIC")

#: Each kernel is built twice where the compiler can, for AVX2 and for the
#: baseline, and the loader picks by the CPU it runs on, so the library stays
#: portable; the pick is an ifunc, which glibc resolves. The avx2 target does
#: not enable FMA, and contraction stays off besides. The baseline clone leaves
#: the Rusanov flux loop scalar, as a select there loads a row at i or at i + 1
#: and only AVX2 has the masked loads to vectorize that; the AVX2 clone halves
#: the Euler kernel's time and nearly doubles the library's build time.
_PRELUDE = """#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

/* A double's bits as an integer that orders as the doubles do, -0.0 just below
   0.0 and NaNs aside; the map is its own inverse. */
static inline int64_t order_key(double x)
{
    int64_t k;
    memcpy(&k, &x, sizeof k);
    return k ^ ((k >> 63) & INT64_MAX);
}

static inline double key_value(int64_t k)
{
    double x;
    k ^= (k >> 63) & INT64_MAX;
    memcpy(&x, &k, sizeof x);
    return x;
}

"""


def _n_plus(k, n="n"):
    """C of n + k: a length, or with n = "i" an index."""
    return n if k == 0 else f"{n} + {k}" if k > 0 else f"{n} - {-k}"


def _loop(count, body):
    """C of a loop over i < count whose iterations are independent (`_emit`'s rule)."""
    return ["#pragma GCC ivdep", f"for (long i = 0; i < {count}; i++) {{",
            *(f"    {c}" for c in body), "}"]


def _emit(kernel, name):
    """C of an array kernel, as `int name(n, arrays..., floats..., o, s)`, and its layout.

    The float lines run first, in order; a zero divisor returns 1, and a root
    of a value at or below zero stores it in s[0] and returns 2. The array
    lines run in one loop per (stage, length) group, in recorded order within
    it. A line's stage is at least the largest of its array operands' (an
    input's is 0), plus one where it reads a value of a loop through a view
    or a pad, as that value is whole only after its loop; of the stages its
    readers then leave open, it takes the latest. A value lives in a C local
    unless it is read shifted, read by another loop or returned: then its
    loop also stores it, into its output row or an array in the scratch s. A
    padded value of a loop is written into the interior of its pad, whose
    ends are filled after that loop; any other pad is copied before the loops
    of the first stage that may read what it pads.

    So a loop reads a row it stores only at the index it stores it at: what
    it reads shifted or through a pad was stored by an earlier loop. Its
    iterations are then independent, and each loop is marked so
    (`#pragma GCC ivdep`), which lets the compiler vectorize it although
    its rows are carved out of the same two blocks o and s; a loop that
    would break the rule raises TypeError here. Each function is declared
    `CLONES`, which `_PRELUDE` defines.

    A reduction keeps, in the loop of its operand's stage and length, the
    largest or the smallest `order_key` of the cells and a count of NaNs,
    which GCC vectorizes as integer operations; after the loops it stores the
    key's double, or NaN if a cell was one, past the output rows in o.

    Returns the source, and each output's (start, stop) in the output block o
    and the length of s, each as a pair (a, b) meaning a * n + b.
    """
    body, results, params = kernel.tape
    arrays = params[:kernel.arrays]
    length = {**dict.fromkeys(params), **dict.fromkeys(arrays, 0),
              **{line.name: line.length for line in body}}
    reduced = {line.name for line in body if line.code in _REDUCE}
    outputs = [r for r in results if r not in reduced]
    if any(length.get(r) is None for r in outputs):
        raise TypeError(f"{name}: a compiled kernel returns arrays and reductions only")
    views, pads, reads = {}, {}, {}  # view -> (value, offset); pad -> value; array operands
    for line in body:
        if line.view:
            x, k = views.get(line.operands[0], (line.operands[0], 0))
            views[line.name] = x, k + line.view.start
        elif line.code == _PAD:
            pads[line.name] = line.operands[0]
        elif line.length is not None:
            reads[line.name] = [x for x in line.operands if length.get(x) is not None]

    def source(x):  # the value of a loop, or the input, that x reads through views and pads
        while x in views or x in pads:
            x = views[x][0] if x in views else pads[x]
        return x

    def ready(x):  # the first stage whose loops may read x, not a value of a loop
        x = source(x)
        return stage[x] + 1 if x in reads else 0

    stage, latest = {}, {}
    for x in reads:
        stage[x] = max([stage[y] if y in reads else ready(y) for y in reads[x]], default=0)
    for x in reversed(reads):
        stage[x] = latest.get(x, stage[x])
        for y in reads[x]:
            y, bound = (y, stage[x]) if y in reads else (source(y), stage[x] - 1)
            latest[y] = min(latest.get(y, bound), bound)

    memory = dict(zip(arrays, arrays))  # array -> the C pointer it is read through
    bounds, shift = [], 0
    for k, r in enumerate(outputs):
        bounds.append(((k, shift), (k + 1, shift + length[r])))
        shift += length[r]
        if r in reads:
            memory.setdefault(r, f"o{k}")
    bounds += [((len(outputs), shift + j), (len(outputs), shift + j + 1))
               for j in range(len(results) - len(outputs))]
    scratch, declared = [0, 1], [f"double *restrict o{k} = o + {a} * n + {b};"
                                 for k, ((a, b), _) in enumerate(bounds[:len(outputs)])]
    floats, loops, ends, copies, stored = [], {}, {}, {}, set()
    rows, loaded = {}, []  # loop -> {row: the offset from i it stores at}; (loop, row, offset)

    def place(x):
        memory[x] = f"m{x}"
        declared.append(f"double *restrict m{x} = s + {scratch[0]} * n + {scratch[1]};")
        scratch[0] += 1
        scratch[1] += length[x]

    def store(x):
        if x not in stored:
            stored.add(x)
            if x not in memory:
                place(x)
            put((stage[x], length[x]), memory[x], x)

    def put(group, row, value, k=0):
        rows.setdefault(group, {})[row] = k
        loops.setdefault(group, []).append(f"{row}[{_n_plus(k, 'i')}] = {value};")

    def read(x, group=None):
        if x not in length:
            return f"({float(x)!r})"
        if length[x] is None:
            return x
        x, k = views.get(x, (x, 0))
        if x in reads:
            if (stage[x], length[x]) == group:
                return x
            store(x)
        loaded.append((group, memory[x], k))
        return f"{memory[x]}[{_n_plus(k, 'i')}]"

    for line in body:
        if line.name in reduced:
            x, op, acc = line.operands[0], _REDUCE[line.code], f"k{line.name}"
            group = (stage[x] if x in reads else ready(x), length[x])
            value = read(x, group)
            declared += [f"int64_t {acc} = {'INT64_MIN' if op == '>' else 'INT64_MAX'};",
                         f"long n{line.name} = 0;"]
            loops.setdefault(group, []).append(
                f"{{ const int64_t key = order_key({value}); {acc} = key {op} {acc} ? key : {acc}; "
                f"n{line.name} += {value} != {value}; }}")
        elif line.length is None:
            terms = [read(x) for x in line.operands]
            if line.code == "{} / {}":
                floats.append(f"if ({terms[1]} == 0.0) return 1;")
            elif line.code == "_root({})":
                floats.append(f"if ({terms[0]} <= 0.0) {{ s[0] = {terms[0]}; return 2; }}")
            floats.append(f"const double {line.name} = {_C[line.code].format(*terms)};")
        elif line.name in pads:
            x = pads[line.name]
            place(line.name)
            m, last = memory[line.name], _n_plus(length[x])
            fill = f"{m}[0] = {m}[1]; {m}[{last} + 1] = {m}[{last}];"
            if x in reads:
                put((stage[x], length[x]), m, x, 1)
                ends.setdefault((stage[x], length[x]), []).append(fill)
            else:
                rows[line.name] = {m: 1}
                copies.setdefault(ready(x), []).extend(
                    [*_loop(last, [f"{m}[i + 1] = {read(x, line.name)};"]), fill])
        elif line.name in reads:
            group = (stage[line.name], line.length)
            terms = [read(x, group) for x in line.operands]
            loops.setdefault(group, []).append(
                f"const double {line.name} = {_C[line.code].format(*terms)};")
    for k, r in enumerate(outputs):
        if memory.get(r) == f"o{k}":
            store(r)
        else:
            group = (stage[r] if r in reads else ready(r), length[r])
            put(group, f"o{k}", read(r, group))
    for group, row, k in loaded:
        if rows.get(group, {}).get(row, k) != k:
            raise TypeError(f"{name}: a loop would read {row} at i {k:+d}, a row it stores "
                            f"at i {rows[group][row]:+d}")

    code = [*floats, *declared]
    for s in sorted({g for g, _ in loops} | set(copies)):
        code += copies.get(s, [])
        for group in sorted(g for g in loops if g[0] == s):
            code += [*_loop(_n_plus(group[1]), loops[group]), *ends.get(group, [])]
    for ((a, b), _), r in zip(bounds[len(outputs):], results[len(outputs):]):
        code.append(f"o[{_n_plus(b, f'{a} * n')}] = n{r} ? NAN : key_value(k{r});")
    head = ", ".join(["long n", *(f"const double *restrict {a}" for a in arrays),
                      *(f"double {a}" for a in params[len(arrays):]),
                      "double *restrict o", "double *restrict s"])
    source = "".join([f"CLONES int {name}({head})\n{{\n", *(f"    {c}\n" for c in code),
                      "    return 0;\n}\n"])
    return source, bounds, tuple(scratch)


def compiled(*kernels):
    """The array kernels as C functions of one shared library, else the kernels as they are.

    The library is built once per source by the C compiler `cc` on PATH, with
    `_CFLAGS`, and cached in this package's __pycache__ under a hash of its
    source and flags, so a later process only loads it (`_load`). Its loops
    vectorize, and each function has an AVX2 clone and a baseline one where
    the compiler and the C library allow (`_PRELUDE`): the loader picks the
    clone for the CPU, and the cache stays valid on any x86-64. No flag
    changes a rounding. Without a `cc`, a writable cache or a library that
    loads, the numpy kernels themselves are returned; they stay the
    reference that the compiled ones are tested against. The C is emitted
    either way, so a kernel it cannot express fails here, with or without `cc`.
    """
    emitted = [_emit(k, f"kernel{i}") for i, k in enumerate(kernels)]
    library = _load("".join([_PRELUDE, *(e[0] for e in emitted)]),
                    "\0".join(k.name for k in kernels))
    if library is None:
        return kernels
    return tuple(_Compiled(k, getattr(library, f"kernel{i}"), *e[1:])
                 for i, (k, e) in enumerate(zip(kernels, emitted)))


def _load(source, names):
    """The library built from C source, from the cache or compiled into it; None if neither works.

    It is named by its kernel set, a hash of `names`, and by its key: a build
    removes the set's other libraries, so the cache holds one per set, and the
    `kernels-<key>.so` libraries of the older naming, which had no set.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    # The hash that checks hash-based bytecode: of the names, and of the flags and source.
    kind, key = (importlib.util.source_hash(text.encode()).hex()
                 for text in (names, "\0".join([*_CFLAGS, source])))
    folder = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
    path = os.path.join(folder, f"kernels-{kind}-{key}.so")
    try:
        if not os.path.exists(path):
            _build(cc, source, path)
            stale = re.compile(rf"kernels-({kind}-)?[0-9a-f]{{16}}\.so")
            for name in os.listdir(folder):
                if stale.fullmatch(name) and name != os.path.basename(path):
                    with contextlib.suppress(OSError):
                        os.remove(os.path.join(folder, name))
        return ctypes.CDLL(path)
    except OSError:
        return None


def _build(cc, source, path):
    """Compile source into the library at path, which appears whole or not at all."""
    import subprocess  # only the first process of a source runs the compiler

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(path))
    os.close(fd)
    try:
        subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-", "-lm"], check=True,
                       input=source.encode(), capture_output=True, timeout=120)
        os.replace(tmp, path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{cc} could not build the kernels") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _Compiled:
    """An array kernel run as the C function emitted from its tape (`_emit`).

    It takes its arrays by the numpy kernel's rule (`_Kernel.arguments`) and
    returns what that kernel returns, bit for bit (which NaN a NaN result
    holds aside, and the sign of a zero that a reduction returns): each array
    output is a row of one new block, so the outputs share memory with
    nothing, and each reduction a float. A float line raises as Python does:
    ZeroDivisionError for a zero divisor, and sqrt's ValueError for a root of
    a value at or below zero. Its array operations raise no numpy
    floating-point warnings.

    Its one scratch array, `buffers[0]`, is allocated on the first call for an
    input length n and anew when n changes. Every call writes it, so two calls
    may not overlap: unlike the numpy kernel, a compiled kernel is not reentrant.

    A call keeps the first rows it returned, as many as the kernel takes
    arrays, where each is n long, and their addresses: a call on exactly those
    rows, as each step of a march makes on the last, passes the addresses
    without converting or checking its arrays again; every other call does.
    """

    __slots__ = ("function", "kernel", "layout", "scratch", "outputs", "reuse", "n", "buffers",
                 "address", "rows", "last", "inputs")

    def __init__(self, kernel, function, layout, scratch):
        params, arrays = kernel.tape[2], kernel.arrays
        function.argtypes = [ctypes.c_long, *[ctypes.c_void_p] * arrays,
                             *[ctypes.c_double] * (len(params) - arrays), *[ctypes.c_void_p] * 2]
        function.restype = ctypes.c_int
        self.function = function
        self.kernel = kernel
        self.layout = layout
        self.scratch = scratch
        # The array outputs come first, each a row of n + b; the reductions follow.
        self.outputs = sum(c - a for (a, _), (c, _) in layout)
        self.reuse = self.outputs >= arrays and all(d == b for (_, b), (_, d) in layout[:arrays])
        self.n, self.buffers, self.last = None, (), ()

    def __call__(self, *args):
        k = self.kernel.arrays
        if self.last and all(map(operator.is_, args[:k], self.last)):
            n, addresses = self.n, self.inputs
        else:
            self.last = ()
            arrays, n = self.kernel.arguments(args)
            if n != self.n:
                a, b = self.scratch
                self.buffers = (np.empty(a * n + b),)
                self.address = _address(self.buffers[0])
                self.rows = [(a * n + b, c * n + d) for (a, b), (c, d) in self.layout]
                self.n = n
            addresses = list(map(_address, arrays))
        out = np.empty(self.rows[-1][1])
        base = ctypes.addressof(ctypes.c_char.from_buffer(out))
        status = self.function(n, *addresses, *args[k:], base, self.address)
        if status == 1:
            raise ZeroDivisionError("float division by zero")
        if status == 2:
            _root(float(self.buffers[0][0]))
        rows = [out[i:j] for i, j in self.rows[:self.outputs]]
        if self.reuse:
            self.last = rows[:k]
            self.inputs = [base + 8 * i for i, _ in self.rows[:k]]
        return (*rows, *out[self.rows[self.outputs - 1][1]:].tolist())


def _address(a):
    """A ctypes reference to the data of a C-contiguous array, copied first if read-only."""
    return ctypes.byref(ctypes.c_char.from_buffer(a if a.flags.writeable else a.copy()))
