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
cannot be traced. A recorded array takes
these, the comparisons, whose masks only ``np.where`` reads (so ``where``,
``maximum`` and ``abs`` record both branches and the choice), ``np.sqrt``,
the slices ``a[i:]`` and ``a[i:-j]``, and ``np.pad(a, 1, mode="edge")``;
anything else raises TypeError. An array kernel writes its temporaries with
``out=`` into buffers it holds for the length of its last call, and returns
fresh arrays: never a buffer, nor a view of one or of an input.
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
        root = x.value._append("_root({})", [x.value.name], None)
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


def _pad(a, out=None):
    # np.pad(a, 1, mode="edge") of a 1-D array, written into out.
    if out is None:
        return np.pad(a, 1, mode="edge")
    out[1:-1] = a
    out[0] = a[0]
    out[-1] = a[-1]
    return out


def _select(cond, a, b, out=None):
    # np.where(cond, a, b), written into out.
    if out is None:
        return np.where(cond, a, b)
    np.copyto(out, b)
    np.copyto(out, a, where=cond)
    return out


#: What traced code calls, by the name it calls it.
_CALLS = {
    "add": np.add, "subtract": np.subtract, "multiply": np.multiply, "divide": np.divide,
    "negative": np.negative, "sqrt": np.sqrt, "less": np.less, "less_equal": np.less_equal,
    "_pad": _pad, "_select": _select, "_root": _root,
}

#: The ufunc of each operator of a recorded array. x > y is recorded as y < x.
_UFUNC = {"+": "add", "-": "subtract", "*": "multiply", "/": "divide",
          "<": "less", "<=": "less_equal"}
_COMPARISONS = ("<", "<=")

_PAD = "_pad({}{out})"

#: One recorded operation: the value `name` is `code` formatted with its operands;
#: `view` is the slice a view takes.
_Line = namedtuple("_Line", "name code operands length mask view")


def _operator(op):
    """The forward and the reflected method of one binary operator of a recorder."""

    def forward(self, other):
        return self._binary(op, self, other)

    def reflected(self, other):
        return self._binary(op, other, self)

    return forward, reflected


class _Recorded:
    """A float or a float array of a function being traced: each operation appends one line.

    `length` is None for a float; for an array it is the array's length less
    the length n of the kernel's array inputs. A comparison of arrays gives a
    mask, which only np.where reads. Unary minus is recorded as such: 0.0 - x
    would turn a zero's sign.
    """

    __slots__ = ("lines", "name", "length", "mask")

    def __init__(self, lines, name, length=None, mask=False):
        self.lines = lines
        self.name = name
        self.length = length
        self.mask = mask

    def _append(self, code, operands, length, mask=False, view=None):
        """Record `code`, a format string over the operands' names and, for a call, {out}."""
        name = f"t{len(self.lines)}"
        self.lines.append(_Line(name, code, operands, length, mask, view))
        return _Recorded(self.lines, name, length, mask)

    def _binary(self, op, *operands):
        names = [_operand(x) for x in operands]
        if None in names:
            return NotImplemented
        length = _length(operands)
        if length is None:
            if op in _COMPARISONS:
                self._refuse()
            return self._append(f"{{}} {op} {{}}", names, None)
        return self._append(f"{_UFUNC[op]}({{}}, {{}}{{out}})", names, length, op in _COMPARISONS)

    __add__, __radd__ = _operator("+")
    __sub__, __rsub__ = _operator("-")
    __mul__, __rmul__ = _operator("*")
    __truediv__, __rtruediv__ = _operator("/")
    __lt__, __gt__ = _operator("<")
    __le__, __ge__ = _operator("<=")

    def __neg__(self):
        if self.length is None:
            return self._append("-{}", [self.name], None)
        return self._append("negative({}{out})", [_operand(self)], self.length)

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
        if ufunc is np.sqrt and method == "__call__" and not kwargs and _array(self):
            return self._append("sqrt({}{out})", [_operand(self)], self.length)
        self._refuse()

    def __array_function__(self, func, types, args, kwargs):
        if func is np.where and len(args) == 3 and not kwargs and _is_mask(args[0]):
            names = [args[0].name, *(_operand(x) for x in args[1:])]
            if None not in names:
                return self._append("_select({}, {}, {}{out})", names, _length(args))
        elif (func is np.pad and len(args) == 2 and type(args[1]) is int and args[1] == 1
              and list(kwargs.items()) == [("mode", "edge")] and _array(args[0])):
            return self._append(_PAD, [_operand(args[0])], args[0].length + 2)
        self._refuse()

    def _refuse(self, *_, **__):
        if self.length is None:
            raise TypeError(
                "a traced float takes only + - * /, negation and dual.sqrt: a comparison, "
                "bool(), float(), abs() or ** would fix the branch of one value into the kernel"
            )
        raise TypeError(
            "a traced array takes only + - * /, negation, < <= > >=, np.sqrt, np.where on a "
            "comparison's mask, slices a[i:] and a[i:-j], and np.pad(a, 1, mode='edge')"
        )

    __eq__ = __ne__ = __bool__ = __float__ = __len__ = _refuse
    __abs__ = __pow__ = __rpow__ = __array__ = _refuse


def _is_mask(x):
    return isinstance(x, _Recorded) and x.mask


def _operand(x):
    """x as code: a recorded name or a finite int or float literal, else None.

    A mask is an operand of np.where's condition alone.
    """
    if isinstance(x, _Recorded):
        if x.mask:
            raise TypeError("a traced comparison's mask is read by np.where alone")
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
    recorders of these, and returns a Dual or a tuple of Duals; the kernel
    takes the payloads and returns the values and tangents of those Duals in
    order. Lines that no output reads are dropped; the rest run in recorded
    order, so the kernel rounds as fn does on payloads.

    A float kernel is a plain function. An array kernel is a `_Kernel`, which
    holds the buffers its code writes with out=.
    """
    lines = []
    params = [f"a{k}" for k in range(fn.__code__.co_argcount if args is None else args)]
    out = fn(*(_Recorded(lines, a, 0 if k < arrays else None) for k, a in enumerate(params)))
    duals = out if type(out) is tuple else (out,)
    payloads = [x for d in duals if isinstance(d, Dual) for x in (d.value, d.tangent)]
    results = [None if _is_mask(x) else _operand(x) for x in payloads]
    if not duals or len(payloads) < 2 * len(duals) or None in results:
        raise TypeError(f"{fn.__qualname__} must return a Dual, or a tuple of Duals, "
                        "of traced or constant payloads")
    live, body = set(results), []
    for line in reversed(lines):
        if line.name in live:
            body.append(line)
            live.update(line.operands)
    body.reverse()
    if arrays:
        return _Kernel(fn, body, results, params, arrays)
    return _define(fn, params, [f"{x.name} = {x.code.format(*x.operands)}" for x in body], results)


def _define(fn, params, code, returns):
    """Compile a function of `params` that runs the code lines and returns `returns`."""
    body = "".join(f"    {c}\n" for c in [*code, f"return ({', '.join(returns)},)"])
    namespace = dict(_CALLS)
    exec(compile(f"def kernel({', '.join(params)}):\n{body}",
                 f"<trace of {fn.__qualname__}>", "exec"), namespace)
    return namespace["kernel"]


class _Kernel:
    """A traced array kernel and its one set of buffers, sized for the last input length.

    Each call but an output's writes into a buffer, a slice of one of the
    kernel's storage arrays, which is taken back once the last line reading
    its value has run (a line that reads a view of the value reads it too),
    so it is never the out= of a line that reads it. A buffered value that is
    padded is written into the interior of the pad's buffer, and the pad then
    writes the two ends alone. Views of buffers are made with the buffers.

    The buffers are allocated on the first call for an input length n, and
    anew when n changes: one slot, not a cache that grows. Every call writes
    them, so two calls may not overlap: a kernel is not reentrant. What a call
    returns is its own: an array output is computed into a new array, or
    copied if it is an input, a view or an output already returned.
    """

    __slots__ = ("storage", "layout", "code", "arrays", "n", "buffers")

    def __init__(self, fn, body, results, params, arrays):
        last = {name: i for i, line in enumerate(body) for name in line.operands}
        last.update((name, len(body)) for name in results)
        for line in reversed(body):
            if line.view:
                last[line.operands[0]] = max(last[line.operands[0]], last[line.name])
        calls = {line.name for line in body if line.length is not None and not line.view}
        fresh = calls.intersection(results)
        buffered = calls - fresh
        padded = {line.operands[0]: line.name for line in reversed(body)
                  if line.code == _PAD and {line.name, line.operands[0]} <= buffered}
        pads = set(padded.values())
        # [length, mask] of each storage array, and (buffer?, source, start, stop) of
        # each array made with them: storage[source][start:n + stop] for a buffer,
        # made[source][start:stop] for a view of one. held: value -> name made for it.
        self.storage, self.layout = [], []
        free, release, made, index, held, code = ([], []), {}, {}, {}, {}, []

        def make(entry, name):
            if entry not in made:
                made[entry] = name
                index[name] = len(self.layout)
                self.layout.append(entry)
            return made[entry]

        for i, line in enumerate(body):
            name, operands = line.name, [held.get(x, x) for x in line.operands]
            if line.view and line.operands[0] in held:
                source = index[held[line.operands[0]]]
                held[name] = make((False, source, line.view.start, line.view.stop), name)
            elif name in pads:
                b = held[name]
                code.append(f"{b}[0], {b}[-1] = {b}[1], {b}[-2]")
            elif name not in buffered:
                code.append(f"{name} = {line.code.format(*operands, out='')}")
            else:
                pad = padded.get(name)
                start = 1 if pad else 0
                length = line.length + 2 * start
                k = free[line.mask].pop() if free[line.mask] else len(self.storage)
                if k == len(self.storage):
                    self.storage.append([length, line.mask])
                self.storage[k][0] = max(self.storage[k][0], length)
                held[name] = make((True, k, start, start + line.length), f"b{len(made)}")
                if pad:
                    held[pad] = make((True, k, 0, length), f"b{len(made)}")
                code.append(line.code.format(*operands, out=", " + held[name]))
                until = max(last[name], last[pad] if pad else 0)
                release.setdefault(until, []).append((line.mask, k))
            for mask, k in release.pop(i, ()):
                free[mask].append(k)
        array = {line.name for line in body if line.length is not None}.union(params[:arrays])
        returns = []
        for name in results:
            copy = name in array and name not in fresh
            fresh.discard(name)
            returns.append(f"{held.get(name, name)}.copy()" if copy else name)
        if made:
            code.insert(0, f"{', '.join(made.values())}, = buffers")
        self.code = _define(fn, ["buffers", *params], code, returns)
        self.arrays = arrays
        self.n = None
        self.buffers = ()

    def __call__(self, *args):
        n = len(args[0])
        for a in args[1:self.arrays]:
            if len(a) != n:
                raise ValueError(f"array arguments of lengths {n} and {len(a)}")
        if n != self.n:
            self.buffers = self.allocate(n)
            self.n = n
        return self.code(self.buffers, *args)

    def allocate(self, n):
        """The buffers and their views for input length n, in the kernel's order."""
        storage = [np.empty(n + length, bool if mask else float) for length, mask in self.storage]
        made = []
        for buffer, source, start, stop in self.layout:
            made.append(storage[source][start:n + stop] if buffer else made[source][start:stop])
        return made
