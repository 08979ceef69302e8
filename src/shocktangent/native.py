"""Traced array kernels as C functions of one shared library, called through ctypes.

``compiled`` turns array kernels (`dual.trace`) into C, the tape compiled instead of
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

A kernel may return floats only, as the tracker's shock-mode step does, or
floats after its arrays. Its float arguments go in one array: ctypes converts
one pointer faster than a few doubles. Where a float line fails, the C
returns a status and the numpy kernel runs on the same arguments, to raise
what Python raises there. The compiled kernels share the rows that the last
step returned and their addresses, so that the next step, and a tracker step
on the same field before it, pass them without converting them again; and a
kernel writes into the older of its last two output blocks where nothing
holds a row of it any more, so that a march allocates no block per step.
"""

import contextlib
import ctypes
import importlib.util
import operator
import os
import re
import shutil
import struct
import sys
import tempfile

import numpy as np

from .dual import _AT, _CELL, _COMPARISONS, _PAD, _REDUCE


#: The C of each recorded operation over its operands' C. A mask is 0.0 or 1.0.
_C = {
    **{f"{{}} {op} {{}}": f"{{}} {op} {{}}" for op in ("+", "-", "*", "/", *_COMPARISONS)},
    "-{}": "-{}", "sqrt({})": "sqrt({})", "absolute({})": "fabs({})", "_root({})": "sqrt({})",
    "where({}, {}, {})": "{} ? {} : {}", "_half_power({})": "pow({}, 0.5)",
}

#: The C condition under which a float line's Python spelling raises.
_CHECK = {"{} / {}": "{1} == 0.0", "_root({})": "{} <= 0.0", "_half_power({})": "{} < 0.0"}

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
    """C of an array kernel, as `int name(n, arrays..., f, o, s)`, and its layout.

    The kernel's float arguments come in the array f, in order: ctypes passes
    one pointer faster than a few doubles.

    The float lines run first, in order, and return 1 where Python would
    raise: at a zero divisor, a root of a value at or below zero, a ** 0.5 of
    one below zero, a cell lookup of an x outside the cells (a NaN included)
    and a read at an index outside its array. So a lookup takes its floor
    only of an x in range, and no read leaves its array. An index is a C
    long, made a double where a float line reads it. The array
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
    key's double, or NaN if a cell was one, past the output rows in o. The
    kernel returns its arrays first; each float it returns is stored there
    too, in order with the reductions.

    Returns the source, and each output's (start, stop) in the output block o
    and the length of s, each as a pair (a, b) meaning a * n + b.
    """
    body, results, params = kernel.tape
    arrays = params[:kernel.arrays]
    length = {**dict.fromkeys(params), **dict.fromkeys(arrays, 0),
              **{line.name: line.length for line in body}}
    reduced = {line.name for line in body if line.code in _REDUCE}
    indices = {line.name for line in body if line.kind == "index"}
    outputs = [r for r in results if length.get(r) is not None]
    if results[:len(outputs)] != outputs:
        raise TypeError(f"{name}: a compiled kernel returns its arrays before its floats")
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
    scratch, declared = [0, 0], [f"double *restrict o{k} = o + {a} * n + {b};"
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
        elif line.code == _CELL:
            x, dx, i = read(line.operands[0]), read(line.operands[1]), line.name
            cells = f"({_n_plus(length[line.operands[2]])})"
            floats += [f"if (!({x} >= 0.0 && {x} < {cells} * {dx})) return 1;",
                       f"long {i} = floor({x} / {dx});",
                       f"if ({i} + 1 < {cells} && {x} >= ({i} + 1) * {dx}) {i} += 1;",
                       f"else if ({x} < {i} * {dx}) {i} -= 1;"]
        elif line.code == _AT:
            a, i = line.operands
            floats += [f"if ({i} < 0 || {i} >= n) return 1;",
                       f"const double {line.name} = {a}[{i}];"]
        elif line.length is None:
            if line.kind == "index":  # of indices and int literals
                terms = [x if x in indices else f"({x})" for x in line.operands]
            else:
                terms = [f"(double) {x}" if x in indices else read(x) for x in line.operands]
            check = _CHECK.get(line.code)
            if check:
                floats.append(f"if ({check.format(*terms)}) return 1;")
            kind = "long" if line.kind == "index" else "double"
            floats.append(f"const {kind} {line.name} = {_C[line.code].format(*terms)};")
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
        value = f"n{r} ? NAN : key_value(k{r})" if r in reduced else read(r)
        code.append(f"o[{_n_plus(b, f'{a} * n')}] = {value};")
    head = ", ".join(["long n", *(f"const double *restrict {a}" for a in arrays),
                      "const double *restrict f", "double *restrict o", "double *restrict s"])
    code = [f"const double {a} = f[{j}];" for j, a in enumerate(params[len(arrays):])] + code
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
    returns what that kernel returns, bit for bit (which NaN a NaN result holds
    aside, and the sign of a zero that a reduction returns): each array output
    is a row of one block, of which nothing holds a row when the call starts
    (the older of the last two blocks, else a new one), so the outputs share
    memory with nothing, and each float a float. Where a float line fails, the
    numpy kernel runs on the same arguments and raises what Python raises
    there: ZeroDivisionError for a zero divisor, ValueError for a root of a
    value at or below zero or a ** 0.5 of one below it, IndexError for a cell
    lookup or a read out of range. Its array operations raise no numpy
    floating-point warnings.

    Its scratch array, `buffers[0]`, is allocated on the first call for an
    input length n and anew when n changes. Every call writes it, so two calls
    may not overlap: unlike the numpy kernel, a compiled kernel is not reentrant.

    The compiled kernels share `_KEPT`: the last call that returns as many
    rows n long as its kernel takes arrays, first, keeps those rows, n and
    their addresses. A call of a kernel that takes as many arrays, on exactly
    those rows, as each step of a march makes on the last, and as a tracker
    step makes on the field before it, passes the addresses without
    converting or checking its arrays again; every other call does. Every
    argument of the C function is a ctypes object made once, but for the
    arrays of such other calls: ctypes converts none of them.
    """

    __slots__ = ("function", "kernel", "arrays", "least", "pack", "floats", "layout", "scratch",
                 "outputs", "reuse", "n", "buffers", "address", "rows", "blocks")

    def __init__(self, kernel, function, layout, scratch):
        params, arrays = kernel.tape[2], kernel.arrays
        function.restype = ctypes.c_int  # every argument is a ctypes object already
        self.function = function
        self.kernel = kernel
        self.arrays, self.least = arrays, kernel.shortest[0]
        self.pack = struct.Struct(f"{len(params) - arrays}d").pack_into
        self.floats = (ctypes.c_double * max(len(params) - arrays, 1))()
        self.layout = layout
        self.scratch = scratch
        # The array outputs come first, each a row of n + b; the floats follow.
        self.outputs = sum(c - a for (a, _), (c, _) in layout)
        self.reuse = self.outputs >= arrays and all(d == b for (_, b), (_, d) in layout[:arrays])
        self.n = None

    def __call__(self, *args):
        k = self.arrays
        rows, n, head = _KEPT
        if len(rows) != k or n < self.least or not all(map(operator.is_, args, rows)):
            arrays, n = self.kernel.arguments(args)
            head = (ctypes.c_long(n), *map(_address, arrays))
        if n != self.n:
            a, b = self.scratch
            self.buffers = (np.empty(max(a * n + b, 1)),)
            self.address = _address(self.buffers[0])
            self.rows = [(a * n + b, c * n + d) for (a, b), (c, d) in self.layout]
            self.n = n
            self.blocks = [self._block()]
        blocks = self.blocks
        block = blocks[-1]
        # A block is held by its entry and by getrefcount's argument, and by each held row.
        if self.outputs and sys.getrefcount(block[0]) > 2:
            block = self._block()
            self.blocks = [block, blocks[0]]
        elif block is not blocks[0]:
            self.blocks = [block, blocks[0]]
        out, base, kept = block
        self.pack(self.floats, 0, *args[k:])
        if self.function(*head, self.floats, base, self.address):
            self.kernel(*args)
            raise AssertionError(f"{self.kernel.name}: the C kernel failed where numpy did not")
        if not self.outputs:
            return tuple(out.tolist())
        rows = [out[i:j] for i, j in self.rows[:self.outputs]]
        if self.reuse:
            _KEPT[:] = rows[:k], n, kept
        return (*rows, *out[self.rows[self.outputs - 1][1]:].tolist())

    def _block(self):
        """A new output block, its address, and n and its first rows' addresses, as a
        call on those rows passes them."""
        out = np.empty(self.rows[-1][1])
        base = ctypes.addressof(ctypes.c_char.from_buffer(out))
        rows = self.rows[:self.arrays] if self.reuse else ()
        kept = (ctypes.c_long(self.n), *(ctypes.c_void_p(base + 8 * i) for i, _ in rows))
        return out, ctypes.c_void_p(base), kept


#: The rows, n and the arguments n and row addresses that `_Compiled` kernels share (a
#: list: to set an attribute of a class would clear the type's attribute cache on every call).
_KEPT = [(), None, ()]


def _address(a):
    """A ctypes reference to the data of a C-contiguous array, copied first if read-only."""
    return ctypes.byref(ctypes.c_char.from_buffer(a if a.flags.writeable else a.copy()))
