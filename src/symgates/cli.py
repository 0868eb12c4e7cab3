"""Command-line interface: inspect bases, analyze gates, sweep parameters.

Subcommands: basis, gate, sweep, act, lmg, decompose; `lmg` takes
exactly one of --t (a single report) and --t-max (a series), and the
series options --t-min, --steps and --out only with --t-max.  All output
is deterministic (15 significant digits, '.' decimal separator, LF line
endings).

`main` is the one place that turns a failure into an exit code and one
'error: ...' line on stderr, with no traceback and no numpy warning
before it, and the class of the exception carries the code: InputError
gives exit 2 (usage), any other ValueError exit 1 (a tolerance check on
an accepted argument failed, such as a matrix that is not Hermitian) and
RuntimeError exit 3 ('internal check failed', such as e_p outside
[0, 2/9]).  InputError covers every argument outside what a function
accepts: argparse's rejections (the parser's `error` raises it), a bad
--show, a series option with --t, an --out that cannot be written, a
matrix file that holds no finite matrix, and the library's domain checks
(a non-finite number, a spin above 5/2, the shape of `psi` or `coeffs`,
a key `coeffs[(k, q)]`, a quantum number of `clebsch_gordan` or a spin
above its bound of 10, a non-finite `atol`).  Success and a verified
check exit 0, and a failed `basis --verify` 1, with one stderr line per
failed relation; a reader that closes stdout before the report ends
(`| head`), or a piped --out before its CSV ends, ends the command with
exit 0.

`sweep` and `lmg --t-max` share `_write_series`, which rejects a missing
or empty --out, --steps below 2 and an empty or reversed range as usage
errors.  A series call allocates one `_Workspace` of min(steps, _BLOCK)
rows when it starts and passes it to every stage that builds, scores and
lays out a block (`sweep_blocks`, `lmg_blocks`, `write_csv`), which takes
it as a required argument.  The library's grid kernels
(`gates._gates_into`, `entanglement._lmg_profile_into`) take their
buffers the same way, under one contract: a kernel checks its whole grid
once, then walks it in runs of its buffers' rows, written with out= into
the buffers it is given.  The public batch functions allocate buffers
for the whole grid (`gates._scratch`), so they are the case of one run;
the CLI hands over its workspace (`_Workspace.gate_stage`), so each run
is a block of _BLOCK points or fewer, scored by the same code as the
public functions' one run.  Blocks, (float columns, class levels or
None), are written as bytes as they come, the CSV header with the first
one, so that a series the kernel rejects writes no byte; the file
replaces --out after the last block, and then the row count and a
summary folded from the blocks are printed, on stderr if --out is
stdout.  A block's gate, cell and row stages reuse the same bytes of the
workspace in turn.  That is safe: a block's columns are new arrays,
which stay valid after the next block, and its rows are written before
the next block is built.  Otherwise only the library's public names are
used.

A CSV float cell holds the bytes of '%.15g' % (x + 0.0), as `fmt_float`
prints the text reports.  A block's float cells go through one numpy
kernel, `_float_cells`, which rounds each to 15 digits exactly (a
double-double product with a power of ten) and lays out its digits from
tables; a cell falls back to '%.15g' itself when its rounding remainder
lies within 2**-50 of a tie, when it is subnormal, inf or nan, or when it
is outside the kernel's exponent range (|x| below 1e-25 or rounding to
1e15 or more).  The class cell, each gate's index into
`entanglement.CLASSES`, is one `take` from a table of the labels' bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from . import entanglement, gates, su3, tensors
from .linalg import InputError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SWEEP_HEADER = "theta,g1_abs,ep,class"
LMG_HEADER = "t,ep,concurrence"
# Grid points computed and written together, spreading numpy's per-call
# cost.  A call's workspace holds the large intermediates of one block, in
# about 708 bytes a row (`_Workspace`): a 16384-point sweep peaks at
# 1.7 MiB traced, the 1441-point LMG series at 1.1 MiB, whatever the
# grid's length, and a block allocates little beyond its row bytes.  At
# 4096 rows the workspace alone would take 2.8 MiB.
_BLOCK = 2048
# Rows copied to one bytes object whose pads translate drops: a quarter of
# a full block's row bytes, about 73 KiB of a sweep's.
_SLICE = 512
# The class levels from here up are perfect entanglers.
_PERFECT = entanglement.CLASSES.index(entanglement.PERFECT_ENTANGLER)
_LISTED = 8  # windows or times a series summary lists
_FLOATS = 3  # float cells of a series row: theta, |G1|, e_p or t, e_p, concurrence

_LONG_OPTION = re.compile(r"--\w[\w-]*")  # without '=value'
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:e[+-]?\d+)?"  # as float() reads it, without a sign
_ANGLE_RE = re.compile(
    rf"^(?P<sign>[+-]?)(?P<coef>{_NUMBER})?\*?"
    rf"(?:sqrt\(?(?P<root>\d+)\)?)?\*?(?P<pi>pi)?(?:/(?P<div>{_NUMBER}))?$"
)


def parse_angle(text: str) -> float:
    """Parse an angle given in radians or as a multiple of pi.

    Accepts decimals as float() reads them ('0.785', '.5', '5.', '-1E2') and
    symbolic forms such as 'pi', 'pi/2', '2pi/3', 'sqrt3*pi/2', '-.25pi', '2.5e-1pi',
    'pi/.5'; a divisor that reads as zero or inf is rejected.
    """
    token = text.strip().lower().replace(" ", "")
    match = _ANGLE_RE.match(token)
    if not match or not (match.group("coef") or match.group("root") or match.group("pi")):
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")
    value = -1.0 if match.group("sign") == "-" else 1.0
    if match.group("coef"):
        value *= float(match.group("coef"))
    if match.group("root"):
        value *= math.sqrt(float(match.group("root")))
    if match.group("pi"):
        value *= math.pi
    if match.group("div"):
        divisor = float(match.group("div"))  # 1e400 reads inf, 1e-400 reads 0
        if not 0 < divisor < math.inf:
            raise argparse.ArgumentTypeError(
                f"cannot parse angle {text!r}: its divisor is zero or not finite")
        value /= divisor
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not finite")
    return value


def parse_spin(text: str) -> float:
    """Parse a spin value such as '1', '0.5' or '3/2'."""
    num, slash, den = text.strip().partition("/")
    try:
        value = float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse spin {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"spin must be finite, got {text!r}")
    if round(2 * value) != 2 * value or value < 0:
        raise argparse.ArgumentTypeError(f"spin must be a non-negative half-integer, got {text!r}")
    return value


def parse_finite(text: str) -> float:
    """Parse a finite real number such as a coupling constant."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def fmt_float(x: float) -> str:
    return format(float(x) + 0.0, ".15g")  # + 0.0 turns -0.0 into 0.0, printed as "0"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}i"


def fmt_matrix(m: np.ndarray, indent: str = "  ") -> str:
    return "\n".join(indent + "[" + ", ".join(fmt_complex(z) for z in row) + "]"
                     for row in np.asarray(m, dtype=np.complex128))


def fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(fmt_complex(z) for z in np.asarray(v, dtype=np.complex128)) + "]"


def parse_matrix_file(path: str) -> np.ndarray:
    """Read a matrix file: JSON with fields 'dim' and 'entries' of [re, im]
    pairs.  InputError if the JSON holds no such finite matrix; the errors
    of reading a file that holds no JSON value (OSError, UnicodeDecodeError,
    json.JSONDecodeError, RecursionError) pass through."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise InputError("matrix file must contain 'dim' and 'entries' fields")
    dim = data["dim"]
    try:  # an object, a string, a ragged list or an int beyond the float range fails here
        entries = np.asarray(data["entries"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        entries = None
    if entries is None or entries.shape != (dim, dim, 2):
        raise InputError(f"entries must be a {dim}x{dim} array of [re, im] pairs")
    if not np.all(np.isfinite(entries)):  # before 1j * inf warns
        raise InputError("matrix entries must be finite")
    return entries[..., 0] + 1j * entries[..., 1]


# Float cells of a CSV row, formatted by `_float_cells`.  Decimal exponents
# e (|x| rounds to 15 digits in [10**e, 10**(e + 1))) in [_E_MIN, _E_MAX] are
# formatted by the kernel; every nonzero cell of the sweep and LMG CSVs has e
# in [-17, 0].  A cell takes _CELL bytes of the row buffer, and _PAD, a byte
# that UTF-8 text never holds, marks the bytes that are not written.
_E_MIN, _E_MAX = -25, 14
_CELL = 40
_PAD = 0xFF
_PADS = bytes([_PAD])  # the table of bytes that translate drops
_TIE = 2.0 ** -50  # a rounding remainder this close to 1/2 falls back to '%.15g'
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)  # bits of |x|
_CAP = np.array(1e300).view(np.int64)  # inf and nan become this; |x| * _SPLIT stays finite


def _above(num: int, den: int) -> float:
    """The least double greater than num / den."""
    f = num / den  # correctly rounded
    p, q = f.as_integer_ratio()
    return math.nextafter(f, math.inf) if p * den <= num * q else f


def _layouts() -> np.ndarray:
    """Cell layouts per (case, significant digits s), case 0 zero, 1..19 fixed
    notation with e = -4..14, 20 exponent notation.  Cell bytes: 0 sign, 1-2
    '0.', 3-5 zeros after it, 4 + 2i digit i (1..15; the layer's byte 4 is the
    '0' before digit 1), 5 + 2i the gap after digit i, which holds a '.', 35
    'e', 36-38 the exponent, 39 ','.  Byte value 0 keeps the layer's byte, and
    a byte is kept when its rank <= s."""
    values, ranks = [], []
    for e in [None, *range(-4, 15), 15]:  # None: zero, 15: exponent notation
        value, rank = bytearray([_PAD] * _CELL), [0] * _CELL
        value[39] = ord(",")
        if e is None:
            value[1] = ord("0")
        else:
            first = 1 if e == 15 else max(e + 1, 0)  # digits kept at every s
            for i in range(1, 16):
                value[4 + 2 * i], rank[4 + 2 * i] = 0, 0 if i <= first else i
        if e is not None and e < 0:
            value[1:3] = b"0."
            value[7 + e:6] = b"0" * (-1 - e)
        elif e is not None and e != 14:
            value[5 + 2 * first], rank[5 + 2 * first] = ord("."), first + 1
        if e == 15:
            value[35:39] = b"e\0\0\0"
        values.append(value)
        ranks.append(rank)
    value = np.frombuffer(b"".join(values), np.uint8).reshape(-1, _CELL)
    s = np.arange(1, 16)[:, None]
    plus = np.where(np.array(ranks)[:, None, :] <= s, value[:, None, :], _PAD).reshape(-1, _CELL)
    minus = plus.copy()
    minus[:, 0] = ord("-")
    return np.concatenate([plus, minus])


@functools.cache
def _cell_tables() -> tuple:
    """The kernel's tables, built on the first CSV block:
    - above: per binary exponent, the least |x| of the next decade row, or inf;
    - rows: per 2 * binary exponent + (|x| >= above), the decade's power of
      ten (h = hh + hl, lo), its tie threshold, layout key and exponent word;
    - layer: uint64 words, 4 digits interleaved with zero bytes, then the exponents;
    - zeros: (4, 10000), the trailing zeros of m if group j is its last nonzero one;
    - templates: _CELL-byte layouts by key (0 keeps the layer's byte);
    - neg: the key offset of the layouts with a '-' sign."""
    # Decade e holds the doubles whose 15-digit rounding lies in [10**e,
    # 10**(e + 1)); it ends at the least double above the midpoint
    # (10**15 - 1/2) * 10**(e - 14), which tops[j] gives for e = _E_MIN - 1 + j.
    tops = np.array([_above(2 * 10 ** 15 - 1, 2 * 10 ** (14 - e))
                     for e in range(_E_MIN - 1, _E_MAX + 1)])
    last = len(tops) + 1  # row index t: 0 zero, 1 below, 2 + e - _E_MIN, last above
    start = (np.arange(2048, dtype=np.int64) << 52).view(np.float64)  # binade starts
    first = np.searchsorted(tops, start, "right")
    nxt = np.append(tops, math.inf)[first]
    above = np.where(nxt * 0.5 < start, nxt, math.inf)  # one decade end per binade at most
    first += 1
    first[0], above[0] = 0, 5e-324  # zero, then the subnormals
    powers = [10 ** (14 - e) for e in range(_E_MIN, _E_MAX + 1)]
    h = np.array([float(p) for p in powers])
    c = _SPLIT * h
    hh = c - (c - h)
    rows = np.zeros(last + 1, [("h", "f8"), ("hh", "f8"), ("hl", "f8"), ("lo", "f8"),
                               ("tie", "f8"), ("key", "i8"), ("exp", "i8")])
    decades = slice(2, last)
    rows["h"][decades], rows["hh"][decades], rows["hl"][decades] = h, hh, h - hh
    rows["lo"][decades] = [float(p - int(f)) for p, f in zip(powers, h.tolist())]
    rows["tie"] = math.inf
    rows["tie"][0], rows["tie"][decades] = -1.0, _TIE
    e = np.arange(last + 1) + _E_MIN - 2
    case = np.where(e >= -4, e + 5, 20)
    case[[0, 1, last]] = 0
    rows["key"] = case * 15 + 14
    rows["exp"] = 10000 + np.arange(last + 1)
    d = np.indices((10,) * 4, np.uint64).reshape(4, -1)  # the digits of 0..9999
    digits = (d[0] | d[1] << 16 | d[2] << 32 | d[3] << 48) + 0x0030_0030_0030_0030
    exps = np.zeros((last + 1, 8), np.uint8)
    exps[:, :3] = np.frombuffer(b"".join(b"%+03d" % v for v in e.tolist()), np.uint8).reshape(-1, 3)
    z = d == 0
    tail = z[3].astype(np.int8) + (z[3] & z[2]) + (z[3] & z[2] & z[1])  # within a group
    zeros = np.arange(12, -1, -4, dtype=np.int8)[:, None] + tail
    zeros[:, 0] = 14  # m = 0
    templates = _layouts()
    u = np.minimum(np.stack([first, first + 1], axis=1).ravel(), last)
    layer = np.concatenate([digits.astype("<u8"), exps.view("<u8").ravel()])
    return (above, rows[u], layer, zeros, templates.view(f"V{_CELL}").ravel(),
            len(templates) // 2)


class _Workspace:
    """The large intermediates of a series block, views of one buffer that
    a call allocates once, for blocks of up to `rows` rows of _FLOATS float
    cells and a class cell; a shorter block uses their first rows.  Every
    stage of a block takes it, or its gate stage (`gate_stage`), as a
    required argument: no stage allocates its own.
    Allocated afresh for each block, they let glibc trim the heap and fault
    it back on some blocks, depending on where the heap happens to lie.

    A block passes through three stages, and each stage's fields lie side
    by side from the buffer's start, over the bytes of the stage before:
    - the gate stage: u3, tmp, (rows, 3, 3) complex stacks, the gates and
      the scratch that builds and scores them (`gates._gates_into`,
      `entanglement._scores_into`), and phases, (2, rows) complex, the B8
      phase rows (`gates._phases`) or the LMG profile's cos + i sin rows;
    - the cell stage: table, (rows, floats), a block's float columns side
      by side, then scratch, flags, digit_zeros, gather, words, layers and
      cells, the intermediates of `_float_cells`, one per float cell;
    - the row stage: rows, the block's CSV rows, each row's cells and pads,
      over every field of the cell stage but cells, which it copies.
    Sharing is safe because each stage is done with the bytes it lies over:
    the gate stage yields new arrays (and views of the grid), which `table`
    copies, and `cells` is read into `rows` after the last read of every
    other cell-stage field."""

    def __init__(self, rows: int):
        layout = _workspace_layout(rows)
        buffer = np.empty((), layout)
        for name in layout.names:
            setattr(self, name, buffer[name])

    def gate_stage(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The buffers of a run of gates, u3, tmp and phases, shaped as
        `gates._scratch(n)` allocates them, with numpy's slicing capping n
        at rows: the provider that `gates._gates_into` and
        `entanglement._lmg_profile_into` take, whose runs are of min(n, rows)."""
        return self.u3[:n], self.tmp[:n], self.phases[:, :n]


def _stage(fields) -> list:
    """(name, dtype, offset) of each (name, dtype, shape) of a stage's
    `fields`, laid out one after another from byte 0, at multiples of 64."""
    placed, end = [], 0
    for name, dtype, shape in fields:
        field, offset = np.dtype((dtype, shape)), -(-end // 64) * 64
        placed.append((name, field, offset))
        end = offset + field.itemsize
    return placed


@functools.lru_cache(maxsize=16)
def _workspace_layout(rows: int) -> np.dtype:
    """The fields of a `_Workspace` (see there), with explicit offsets."""
    n = rows * _FLOATS
    width = _FLOATS * _CELL + _class_cells().shape[1]
    fields = [
        *_stage([("u3", np.complex128, (rows, 3, 3)), ("tmp", np.complex128, (rows, 3, 3)),
                 ("phases", np.complex128, (2, rows))]),
        *_stage([("table", np.float64, (rows, _FLOATS)), ("scratch", np.float64, (6, n)),
                 ("flags", np.bool_, (2, n)), ("digit_zeros", np.int8, (2, n)),
                 ("gather", _cell_tables()[1].dtype, (n,)), ("words", np.intp, (n, 5)),
                 ("layers", "<u8", (n, 5)), ("cells", np.uint8, (n * _CELL + 8,))]),
        *_stage([("rows", np.uint8, (rows * width,))]),
    ]
    names, formats, offsets = zip(*fields)
    return np.dtype({"names": names, "formats": formats, "offsets": offsets,
                     "itemsize": max(f.itemsize + o for _, f, o in fields)})


def _float_cells(x: np.ndarray, ws: _Workspace) -> np.ndarray:
    """(n, _CELL) bytes: '%.15g' % (v + 0.0) of each value of x, then ',',
    with _PAD bytes between; a view of `ws`, which holds every
    intermediate of the kernel.

    Exactness.  For |x| in decade e of the table, y = |x| * 10**(14 - e)
    lies in (10**14 - 1/20, 10**15 - 1/2], so m = round(y) has 15 digits
    and m * 10**(e - 14) is the 15-digit rounding of |x|.  10**(14 - e) is
    hi + lo with hi the nearest double; Dekker's product gives p + err =
    |x| * hi exactly (26-bit Veltkamp halves of both factors, no FMA), and
    err + |x| * lo then leaves y within 4 u^2 y < 5e-17 (u = 2**-53).  The
    remainder r = (p - floor(p)) + err - 1/2 is then within 1.7e-16 of the
    exact y - floor(p) - 1/2, so m = floor(p) + (r > 0) is the correctly
    rounded value whenever |r| > _TIE = 2**-50.  Otherwise, ties included
    (which '%.15g' breaks to even), the cell falls back to '%.15g' itself,
    as do subnormals, |x| beyond the table, inf and nan: the table's
    fallback rows compute m = 0 and mark every cell.  Decades end at the
    15-digit rounding midpoints rather than at powers of ten, so a value
    that rounds up to 10**(e + 1) is in decade e + 1 already, and the
    notation follows the exponent of the rounded value, as %g chooses it:
    fixed for -4 <= e < 15, else exponent.  0 and -0.0 print "0" (the sign
    is x < 0).  Every step is an IEEE basic operation, a comparison or an
    integer operation, so numpy's SIMD kernels cannot change a byte.

    Layout.  m splits into four 4-digit groups; a table word per group
    holds its digits, each followed by a zero byte, and a layout table
    keyed by (sign, notation and e, significant digits) fills the other
    bytes: the sign, '0.' and leading zeros, the '.' in the gap after the
    last integer digit, 'e' and ','.  Digits past the last significant one
    and unused gaps are _PAD.  The digit words are OR-ed into the layout.
    """
    above, rows, layer, zeros, templates, neg = _cell_tables()
    n = x.size
    f, flags, tz, words = ws.scratch[:, :n], ws.flags[:, :n], ws.digit_zeros[:, :n], ws.words[:n]
    ints = f.view(np.int64)  # the same rows as integers
    bits = np.bitwise_and(x.view(np.int64), _MAGNITUDE, out=ints[0])
    np.minimum(bits, _CAP, out=bits)
    a = f[0]
    u = np.right_shift(bits, 52, out=ints[1])
    up = np.greater_equal(a, above.take(u, out=f[2], mode="clip"), out=flags[0])
    u += u
    u += up
    row = rows.take(u, out=ws.gather[:n], mode="clip")
    hh, hl = row["hh"], row["hl"]
    p = np.multiply(a, row["h"], out=f[1])
    ah = np.multiply(a, _SPLIT, out=f[2])
    ah -= np.subtract(ah, a, out=f[3])  # Veltkamp: (a * _SPLIT) - (a * _SPLIT - a)
    al = np.subtract(a, ah, out=f[3])
    err = np.multiply(ah, hh, out=f[4])
    err -= p
    err += np.multiply(ah, hl, out=f[5])
    err += np.multiply(al, hh, out=f[5])
    err += np.multiply(al, hl, out=f[5])
    err += np.multiply(a, row["lo"], out=f[5])
    whole = np.floor(p, out=f[2])
    r = np.subtract(p, whole, out=f[3])
    r += err
    r -= 0.5
    fallback = np.less_equal(np.abs(r, out=f[4]), row["tie"], out=flags[0])
    # layer words: the four digit groups, the exponent
    m = np.add(whole, np.greater(r, 0, out=flags[1]), out=words[:, 4], casting="unsafe")
    high, low = np.divmod(m, 10 ** 8, out=(ints[0], ints[1]))
    np.divmod(high, 10 ** 4, out=(words[:, 0], words[:, 1]))
    np.divmod(low, 10 ** 4, out=(words[:, 2], words[:, 3]))
    zeros[0].take(words[:, 0], out=tz[0], mode="clip")
    for j in 1, 2, 3:
        np.minimum(tz[0], zeros[j].take(words[:, j], out=tz[1], mode="clip"), out=tz[0])
    words[:, 4] = row["exp"]
    key = np.subtract(row["key"], tz[0], out=ints[2])
    np.add(key, neg, out=key, where=np.less(x, 0, out=flags[1]))
    # the layer words start 4 bytes into each cell; the last one's upper
    # half, which is zero, spills into the next cell or the 8 spare bytes
    buf = ws.cells[:n * _CELL + 8]
    templates.take(key, out=buf[:n * _CELL].view(templates.dtype), mode="clip")
    layers = layer.take(words, out=ws.layers[:n], mode="clip")
    buf.view(np.uint32)[1:1 + 10 * n] |= layers.view(np.uint32).ravel()
    cells = buf[:n * _CELL].reshape(n, _CELL)
    if fallback.any():
        i = np.flatnonzero(fallback)
        text = b"".join((b"%.15g" % (v + 0.0)).ljust(_CELL - 1, _PADS) for v in x[i].tolist())
        cells[i, :_CELL - 1] = np.frombuffer(text, np.uint8).reshape(-1, _CELL - 1)
    return cells


@functools.cache
def _class_cells() -> np.ndarray:
    """(4, width) bytes: each label of entanglement.CLASSES, then ',', with
    _PAD bytes between; row i is the cell of level i."""
    texts = [c.encode() for c in entanglement.CLASSES]
    width = max(map(len, texts)) + 1
    return np.frombuffer(b"".join(t.ljust(width - 1, _PADS) + b"," for t in texts),
                         np.uint8).reshape(-1, width)


def sweep_blocks(k: int, thetas: np.ndarray, ws: _Workspace):
    """Blocks ((theta, |G1|, e_p), class levels) of a B_k sweep, one per run
    of `gates._gates_into`, which checks the grid once and builds it in
    runs of the rows of `ws`; each is yielded as new arrays, theta a view
    of thetas.

    Returns the sweep's summary line: the largest e_p and the angle of its
    first row, and the first and last angle of the first _LISTED runs of
    consecutive perfect-entangler rows, then how many runs follow; or only
    that the sweep is non-entangling, when its largest e_p is classed so."""
    best_ep, best_theta, best_level = -math.inf, 0.0, 0
    starts, ends, runs, in_run = [], [], 0, False
    for theta, u3, tmp in gates._gates_into(k, thetas, ws.gate_stage):
        report = entanglement._scores_into(u3, tmp)
        ep, level = report.ep, report.level
        yield (theta, report.g1_abs, ep), level
        i = int(np.argmax(ep))
        if ep[i] > best_ep:
            best_ep, best_theta, best_level = float(ep[i]), float(theta[i]), int(level[i])
        perfect = level >= _PERFECT
        if in_run and perfect[0] and runs <= _LISTED:
            ends.pop()  # the run that ended the last block goes on
        first = theta[perfect & ~np.append(in_run, perfect[:-1])].tolist()
        starts += first[:_LISTED - len(starts)]
        runs += len(first)
        ends += theta[perfect & ~np.append(perfect[1:], False)].tolist()[:_LISTED - len(ends)]
        in_run = bool(perfect[-1])
    if entanglement.CLASSES[best_level] == entanglement.NON_ENTANGLING:
        # e_p this small is rounding noise: the angle of its maximum says nothing
        return f"B{k}: non-entangling on the grid (max e_p <= {entanglement.CLASSIFY_ATOL:g})"
    windows = ", ".join(f"[{a:.6f}, {b:.6f}]" for a, b in zip(starts, ends))
    if runs > _LISTED:
        windows += f" and {runs - _LISTED} more"
    summary = f"perfect entangler for theta in {windows}" if windows else "never a perfect entangler"
    return f"B{k}: max e_p = {best_ep:.12f} at theta = {best_theta:.12f}; {summary}"


def lmg_blocks(g1: float, g2: float, t_grid: np.ndarray, ws: _Workspace):
    """Blocks ((t, e_p, concurrence of B_L |up up>), None) of an LMG series,
    one per run of `entanglement._lmg_profile_into`, which checks the grid
    once and builds it in runs of the rows of `ws`; each is yielded as new
    arrays, t a view of t_grid.

    Returns the series' summary lines: the first _LISTED times of
    concurrence zeros (< 1e-9) and maxima (> 1 - 1e-9), and of e_p within
    1e-9 of 2/9, each beside the times the closed forms give; an empty
    list reads "none on grid"."""
    zeros, maxima, hits = [], [], []
    for t, ep, conc in entanglement._lmg_profile_into(g1, g2, t_grid, ws.gate_stage):
        yield (t, ep, conc), None
        for found, mask in ((zeros, conc < 1e-9), (maxima, conc > 1.0 - 1e-9),
                            (hits, np.abs(ep - 2.0 / 9.0) < 1e-9)):
            found += (f"{x:.6f}" for x in t[mask][:_LISTED - len(found)].tolist())
    # e_p = 2/9 iff cos(4 g1 t) = -cos(4 g2 t): a difference branch
    # 2(g2 - g1) t = pi/2 + n pi and a sum branch 2(g2 + g1) t = pi/2 + n pi.
    expected = ", ".join(f"{t:.6f}" for t in sorted(
        {abs((math.pi / 2) / (2 * (g2 - s * g1))) for s in (1, -1) if g2 != s * g1}))
    spacing = (f"expected multiples of pi/(4 g1) = {math.pi / (4 * abs(g1)):.6f}" if g1
               else "g1 = 0: the concurrence is 0 at every t")
    first = f"first expected at t = {expected}" if expected else "never expected (g1 = g2 = 0)"
    zeros, maxima, hits = (", ".join(found) or "none on grid" for found in (zeros, maxima, hits))
    return (f"concurrence zeros near t = {zeros}\n  ({spacing})\n"
            f"concurrence maxima near t = {maxima}\n"
            f"maximal entangling power {first}; grid hits: {hits}")


def _write_rows(fh, header: str, blocks, ws: _Workspace) -> int:
    """Write `header` with the first block, so that a series its kernel
    rejects writes no byte, then one row per entry of each block (at most
    _FLOATS float columns, class levels or None) to the binary file `fh`: the floats
    as fmt_float prints them (`_float_cells`), then a level's label in
    entanglement.CLASSES.  Each block, no longer than `ws` has rows, is laid
    out in `ws`.  Its `table` and `rows` lie over the gate stage and the
    cell stage (see `_Workspace`), so a block's columns must not be views
    of `ws`: a series yields new arrays and views of its grid.  Each _SLICE
    rows are copied to a bytes object, whose pads one translate drops, and
    written before the next block is built."""
    count = 0
    for floats, level in blocks:
        if not count:
            fh.write(f"{header}\n".encode())
        n, cells = len(floats[0]), len(floats) * _CELL
        width = cells + (0 if level is None else _class_cells().shape[1])
        rows = ws.rows[:n * width].reshape(n, width)
        # the first n rows of ws.table, or as many bytes for fewer columns
        table = ws.table.reshape(-1)[:n * len(floats)].reshape(n, -1)
        np.stack(floats, axis=1, out=table)
        rows[:, :cells] = _float_cells(table.ravel(), ws).reshape(n, cells)
        if level is not None:
            rows[:, cells:] = _class_cells()[level]
        rows[:, -1] = ord("\n")  # the last cell's ',' ends the row
        for i in range(0, n, _SLICE):
            fh.write(bytes(rows[i:i + _SLICE]).translate(None, _PADS))
        count += n
    return count


def write_csv(path, header: str, blocks, ws: _Workspace) -> int:
    """Write `header` with the first block, then the rows of each block as
    it arrives (laid out in `ws`, see `_write_rows`).

    The rows go to a temporary file beside `path`, which replaces `path`
    only once every block has been written: an error part way leaves an
    existing file as it was and no partial one.  A path that is not a
    regular file (a pipe, a device) is written directly.  Returns the
    number of rows written.
    """
    try:  # the path as given: /dev/stdout would resolve to a /proc name
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "wb") as fh:
            return _write_rows(fh, header, blocks, ws)
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            count = _write_rows(fh, header, blocks, ws)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return count


def cmd_gate(args) -> int:
    g = gates.gate(args.k, args.theta)
    report = entanglement.entangling_power(g)
    print(f"gate {g.label}  theta = {fmt_float(g.theta)}")
    print("u3 =")
    print(fmt_matrix(g.u3))
    print("u4 =")
    print(fmt_matrix(g.u4))
    print(f"G1 = {fmt_complex(report.g1)}")
    print(f"|G1| = {fmt_float(report.g1_abs)}")
    print(f"e_p = {fmt_float(report.ep)}")
    print(f"class = {report.classification}")
    return EXIT_OK


def cmd_basis(args) -> int:
    if args.verify and args.j != 1:
        raise InputError(f"--verify checks only the spin-1 tables, got --j {fmt_float(args.j)}")
    rc = EXIT_OK
    if args.show is not None:
        token = args.show.strip().upper().removeprefix("M")
        try:
            index = int(token)
            matrix = su3.m_matrix(index)
        except ValueError:
            raise InputError(f"--show takes M0..M8 or 0..8, got {args.show!r}") from None
        print(f"M{index} =")
        print(fmt_matrix(matrix))
    if args.count:
        print((int(round(2 * args.j)) + 1) ** 2)  # (2j + 1)^2 matrices
    if args.tensor_basis:
        for op in tensors.hermitian_basis(args.j):
            print(f"T({op.component}, k={op.k}, q={op.q}) for j = {fmt_float(op.j)}:")
            print(fmt_matrix(op.matrix))
    if args.verify:
        report = su3.verify_algebra_tables()
        gm = su3.verify_gellmann()
        ok_entries = report.entries_checked - len(report.mismatches)
        ok_gm = gm.relations_checked - len(gm.failures)
        print(f"{ok_entries}/{report.entries_checked} table entries verified, "
              f"{ok_gm}/{gm.relations_checked} Gell-Mann relations verified")
        if not report.passed or not gm.passed:
            for mismatch in report.mismatches:
                print(str(mismatch), file=sys.stderr)
            if not report.triplets_ok:
                print("vector triplet relations failed", file=sys.stderr)
            if not report.vanishing_ok:
                print("vanishing commutators with M8 failed", file=sys.stderr)
            for k in gm.failures:
                print(f"Gell-Mann relation for M{k} failed", file=sys.stderr)
            rc = EXIT_VERIFY
    if args.show is None and not (args.count or args.tensor_basis or args.verify):
        for k in range(9):
            print(f"M{k} =")
            print(fmt_matrix(su3.m_matrix(k)))
    return rc


def _write_series(args, name: str, start: float, stop: float, header: str, blocks) -> int:
    """Write the CSV of the --steps point grid from start to stop, of the
    blocks that `blocks(grid)` yields, then print the row count and the
    summary it returns: on stderr if --out is this process's stdout, so
    that stdout holds the CSV alone.  InputError (exit 2) if --steps is
    missing, below 2 or too large for memory, --out is missing or empty or
    cannot be written or --{name}-max is not above --{name}-min; exit 0 if the reader
    of a piped --out has gone."""
    if args.steps is None:
        raise InputError("--steps is required for a series")
    if args.steps < 2:
        raise InputError("--steps must be at least 2")
    if not args.out:  # '' too, which would name the working directory
        raise InputError("--out is required for a series")
    if not stop > start:
        raise InputError(f"--{name}-max ({fmt_float(stop)}) must be greater than "
                         f"--{name}-min ({fmt_float(start)})")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the library names an overflow
            grid = np.linspace(start, stop, args.steps)
    except (MemoryError, ValueError, IndexError):  # numpy's refusals of a huge array
        raise InputError(f"--steps {args.steps} is too large: "
                         "the grid does not fit in memory") from None
    try:  # before writing: a regular --out is replaced by a new file
        report = sys.stderr if os.path.samestat(os.stat(args.out), os.fstat(1)) else sys.stdout
    except OSError:  # no such file yet, or no fd 1
        report = sys.stdout
    summary = []
    ws = _Workspace(min(len(grid), _BLOCK))  # every block of the call is built in it

    def stream():
        summary.append((yield from blocks(grid, ws)))

    try:
        count = write_csv(args.out, header, stream(), ws)
    except BrokenPipeError:  # as a closed stdout: the reader wants no more
        return EXIT_OK
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(f"wrote {count} rows to {args.out}", *summary, sep="\n", file=report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    return _write_series(args, "theta", args.theta_min, args.theta_max, SWEEP_HEADER,
                         functools.partial(sweep_blocks, args.k))


def cmd_act(args) -> int:
    g = gates.gate(args.k, args.theta)
    state = entanglement.separable_state(args.alpha, args.phi)
    out, conc = entanglement.apply_gate(g, state)
    print(f"input  alpha = {fmt_float(state.alpha)}  phi = {fmt_float(state.phi)}")
    print(f"input  vec4 = {fmt_vector(state.vec4)}")
    print(f"output vec4 = {fmt_vector(out)}")
    print(f"concurrence = {fmt_float(conc)}")
    return EXIT_OK


def cmd_lmg(args) -> int:
    if args.t is not None:
        series = [flag for flag, value in (("--t-min", args.t_min), ("--steps", args.steps),
                                           ("--out", args.out)) if value is not None]
        if series:
            raise InputError(f"{', '.join(series)} not allowed with --t (a series takes --t-max)")
        params = gates.LMGParams(g1=args.g1, g2=args.g2, t=args.t)
        g = gates.lmg_gate(params)
        report = entanglement.entangling_power(g)
        _, conc = entanglement.apply_gate(g, entanglement.separable_state(0.0))  # |up up>
        print(f"g1 = {fmt_float(params.g1)}  g2 = {fmt_float(params.g2)}  "
              f"t = {fmt_float(params.t)}  xi = {fmt_float(params.xi)}  "
              f"beta = {fmt_float(params.beta)}")
        print("B_L =")
        print(fmt_matrix(g.u3))
        print(f"e_p = {fmt_float(report.ep)}")
        print(f"class = {report.classification}")
        print(f"concurrence(B_L |upup>) = {fmt_float(conc)}")
        return EXIT_OK
    return _write_series(args, "t", 0.0 if args.t_min is None else args.t_min, args.t_max,
                         LMG_HEADER, functools.partial(lmg_blocks, args.g1, args.g2))


def cmd_decompose(args) -> int:
    try:
        matrix = parse_matrix_file(args.file)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(str(exc)) from None  # no JSON value to read, or one nested too deep
    coeffs = su3.decompose_hamiltonian(matrix)  # main maps its errors to exit codes
    for k, value in enumerate(coeffs):
        print(f"h{k} = {fmt_float(value)}")
    residual = float(np.max(np.abs(su3.build_hamiltonian(coeffs) - matrix)))
    print(f"reconstruction residual = {fmt_float(residual)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise InputError, which `main`
    reports as it reports the library's; its subparsers are of this class."""

    def error(self, message: str):
        raise InputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = _Parser(
        prog="symgates",
        description="Symmetric two-qubit gates, operator bases and entangling power.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="print or verify the operator bases")
    p_basis.add_argument("--verify", action="store_true",
                         help="check the algebra tables and Gell-Mann relations")
    p_basis.add_argument("--show", metavar="MK", help="print one basis matrix, e.g. M3")
    p_basis.add_argument("--j", type=parse_spin, default=1.0,
                         help="spin for --count / --tensor-basis (e.g. 3/2)")
    p_basis.add_argument("--count", action="store_true",
                         help="print the number of Hermitian basis matrices for --j")
    p_basis.add_argument("--tensor-basis", action="store_true",
                         help="print the orthonormal Hermitian tensor basis for --j")
    p_basis.set_defaults(func=cmd_basis)

    p_gate = sub.add_parser("gate", help="analyze one gate B_k(theta)")
    p_gate.add_argument("k", type=int, choices=range(1, 9), metavar="K",
                        help="gate index 1..8")
    p_gate.add_argument("--theta", type=parse_angle, required=True,
                        help="angle (radians or e.g. pi/2, sqrt3*pi/2)")
    p_gate.set_defaults(func=cmd_gate)

    p_sweep = sub.add_parser("sweep", help="sweep theta and write a CSV")
    p_sweep.add_argument("k", type=int, choices=range(1, 9), metavar="K")
    p_sweep.add_argument("--theta-min", type=parse_angle, default=0.0,
                         help="start angle (default 0)")
    p_sweep.add_argument("--theta-max", type=parse_angle, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_act = sub.add_parser("act", help="apply a gate to a symmetric product state")
    p_act.add_argument("k", type=int, choices=range(1, 9), metavar="K")
    p_act.add_argument("--theta", type=parse_angle, required=True)
    p_act.add_argument("--alpha", type=parse_angle, required=True)
    p_act.add_argument("--phi", type=parse_angle, default=0.0)
    p_act.set_defaults(func=cmd_act)

    p_lmg = sub.add_parser("lmg", help="collective-spin evolution gate report or series")
    p_lmg.add_argument("--g1", type=parse_finite, required=True)
    p_lmg.add_argument("--g2", type=parse_finite, required=True)
    p_lmg_time = p_lmg.add_mutually_exclusive_group(required=True)
    p_lmg_time.add_argument("--t", type=parse_angle, help="single evolution time")
    p_lmg_time.add_argument("--t-max", type=parse_angle, help="end of a time series")
    p_lmg.add_argument("--t-min", type=parse_angle, help="start of a series (default 0)")
    p_lmg.add_argument("--steps", type=int, help="points of a series, at least 2")
    p_lmg.add_argument("--out", help="output CSV path for a series")
    p_lmg.set_defaults(func=cmd_lmg)

    p_dec = sub.add_parser("decompose", help="decompose a Hermitian 3x3 matrix file")
    p_dec.add_argument("file", help="JSON matrix file with 'dim' and 'entries'")
    p_dec.set_defaults(func=cmd_decompose)

    return parser


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each '--opt -value' written '--opt=-value', which argparse
    reads as a value ('-pi/2', '-inf') rather than an option: the parser's
    only single-dash option is -h."""
    out: list[str] = []
    for arg in argv:
        if (out and _LONG_OPTION.fullmatch(out[-1]) and arg.startswith("-")
                and not arg.startswith("--") and arg != "-h"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    """Run one command; the one place that turns a failure into an exit code
    and one stderr line (see the module docstring)."""
    argv = _join_signed_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:  # -h, once its help is printed
        return EXIT_OK
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except RuntimeError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so that a reader gone early (`| head`) shows here
    except BrokenPipeError:  # the run is done; only the rest of its report is unread
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
