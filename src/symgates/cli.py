"""Command-line interface: inspect bases, analyze gates, sweep parameters.

Subcommands: basis, gate, sweep, act, lmg, decompose; `lmg` takes
exactly one of --t (a single report) and --t-max (a series), and the
series options --t-min, --steps and --out only with --t-max.  All output
is deterministic (15 significant digits, '.' decimal separator, LF line
endings).  Exit codes: 0 success/verified, 1 verification failure,
2 usage or parse error, including input the library rejects as out of
its domain (non-finite numbers, reversed time ranges), 3 a failed
internal check (a RuntimeError, such as e_p outside [0, 2/9]).  A
library error is reported as one 'error: ...' line on stderr, with no
traceback and no numpy warning before it.

`sweep` and `lmg --t-max` compute their grid in blocks of _BLOCK points,
through `entangling_power_batch` of `gates_batch` and through
`lmg_entanglement_profile`, and write each block's rows as they go, to a
file that replaces --out once the last block is written.  The module uses
only the public names of the library.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
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
# Grid points computed and written together.  Numpy's per-call cost is
# spread over the block, and a block's stacked arrays and temporaries stay
# under 0.5 MB, about what the per-point loop this path replaced held at
# its peak, so a long grid needs no more memory than a short one.
_BLOCK = 256

# Options whose value may start with '-' ('-pi/2', '-1e-3'), which argparse
# would read as an option when it is a separate argument; `main` joins such
# a pair into the '--opt=value' form, which argparse reads as a value.
_SIGNED_OPTIONS = frozenset({"--theta", "--theta-min", "--theta-max", "--alpha", "--phi",
                             "--t", "--t-min", "--t-max", "--g1", "--g2"})

_ANGLE_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d+)?(?:e[+-]?\d+)?)?\*?"
    r"(?:sqrt\(?(?P<root>\d+)\)?)?\*?(?P<pi>pi)?(?:/(?P<div>\d+(?:\.\d+)?))?$"
)


def parse_angle(text: str) -> float:
    """Parse an angle given in radians or as a multiple of pi.

    Accepts plain decimals ('0.785', '1e-3', '-1E2') and symbolic forms
    such as 'pi', 'pi/2', '2pi/3', 'sqrt3*pi/2', '-pi/4', '2.5e-1pi'.
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
        divisor = float(match.group("div"))
        if divisor == 0:
            raise argparse.ArgumentTypeError("division by zero in angle")
        value /= divisor
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not finite")
    return value


def parse_spin(text: str) -> float:
    """Parse a spin value such as '1', '0.5' or '3/2'."""
    token = text.strip()
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse spin {text!r}") from exc
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
    rows = []
    for row in np.asarray(m, dtype=np.complex128):
        rows.append(indent + "[" + ", ".join(fmt_complex(z) for z in row) + "]")
    return "\n".join(rows)


def fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(fmt_complex(z) for z in np.asarray(v, dtype=np.complex128)) + "]"


def parse_matrix_file(path: str) -> np.ndarray:
    """Read a matrix file: JSON with fields 'dim' and 'entries' of [re, im] pairs."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise ValueError("matrix file must contain 'dim' and 'entries' fields")
    dim = data["dim"]
    entries = np.asarray(data["entries"], dtype=np.float64)
    if entries.shape != (dim, dim, 2):
        raise ValueError(f"entries must be a {dim}x{dim} array of [re, im] pairs")
    matrix = entries[..., 0] + 1j * entries[..., 1]
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")
    return matrix


def _blocks(grid: np.ndarray):
    for start in range(0, len(grid), _BLOCK):
        yield grid[start:start + _BLOCK]


def sweep_blocks(k: int, thetas: np.ndarray):
    """Columns (theta, |G1|, e_p, class) of a B_k sweep, one block of angles at a time."""
    for block in _blocks(thetas):
        report = entanglement.entangling_power_batch(gates.gates_batch(k, block))
        yield block, report.g1_abs, report.ep, report.classification


def lmg_blocks(g1: float, g2: float, t_grid: np.ndarray):
    """Columns (t, e_p, concurrence of B_L |up up>) of an LMG series, block by block."""
    for block in _blocks(t_grid):
        yield entanglement.lmg_entanglement_profile(g1, g2, block)


def _write_rows(fh, header: str, blocks) -> int:
    """Write `header`, then one row per entry of each block's columns: a
    float array column as fmt_float prints it, any other column as text.
    A block is formatted by one '%' over its row format repeated, with the
    cells laid out row by row."""
    fh.write(header + "\n")
    count = 0
    for columns in blocks:
        is_float = [isinstance(c, np.ndarray) for c in columns]
        # '%.15g' of x + 0.0 is fmt_float(x), -0.0 included
        row_format = ",".join("%.15g" if f else "%s" for f in is_float) + "\n"
        n, width = len(columns[0]), len(columns)
        cells = [None] * (n * width)
        for j, (c, f) in enumerate(zip(columns, is_float)):
            cells[j::width] = (c + 0.0).tolist() if f else c
        fh.write((row_format * n) % tuple(cells))
        count += n
    return count


def write_csv(path, header: str, blocks) -> int:
    """Write `header`, then the rows of each block of columns as it arrives.

    The rows go to a temporary file beside `path`, which replaces `path`
    only once every block has been written: an error part way leaves an
    existing file as it was and no partial one.  A path that is not a
    regular file (a pipe, a device) is written directly.  Returns the
    number of rows written.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            return _write_rows(fh, header, blocks)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            count = _write_rows(fh, header, blocks)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return count


def _print_gate_report(g, report) -> None:
    print(f"gate {g.label}" + (f"  theta = {fmt_float(g.theta)}" if g.theta is not None else ""))
    print("u3 =")
    print(fmt_matrix(g.u3))
    print("u4 =")
    print(fmt_matrix(g.u4))
    print(f"G1 = {fmt_complex(report.g1)}")
    print(f"|G1| = {fmt_float(report.g1_abs)}")
    print(f"e_p = {fmt_float(report.ep)}")
    print(f"class = {report.classification}")


def cmd_basis(args) -> int:
    rc = EXIT_OK
    did_something = False
    if args.show is not None:
        token = args.show.strip().upper()
        if token.startswith("M"):
            token = token[1:]
        try:
            index = int(token)
            matrix = su3.m_matrix(index)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"M{index} =")
        print(fmt_matrix(matrix))
        did_something = True
    if args.count:
        dim = int(round(2 * args.j)) + 1
        print(dim * dim)
        did_something = True
    if args.tensor_basis:
        for op in tensors.hermitian_basis(args.j):
            print(f"T({op.component}, k={op.k}, q={op.q}) for j = {fmt_float(op.j)}:")
            print(fmt_matrix(op.matrix))
        did_something = True
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
        did_something = True
    if not did_something:
        for k in range(9):
            print(f"M{k} =")
            print(fmt_matrix(su3.m_matrix(k)))
    return rc


def cmd_gate(args) -> int:
    g = gates.gate(args.k, args.theta)
    report = entanglement.entangling_power(g)
    _print_gate_report(g, report)
    return EXIT_OK


def _write_series(args, start: float, stop: float, header: str, blocks, error=None) -> int:
    """Write the CSV of `blocks(grid)` for the --steps point grid from start to
    stop and print its row count; exit 2 on one stderr line if --steps is
    below 2, else on `error`, or if --out cannot be written."""
    if args.steps is None or args.steps < 2:
        error = "--steps must be at least 2"
    if error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    with np.errstate(over="ignore", invalid="ignore"):  # the library names an overflowing grid
        grid = np.linspace(start, stop, args.steps)
    try:
        count = write_csv(args.out, header, blocks(grid))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    return _write_series(args, args.theta_min, args.theta_max, SWEEP_HEADER,
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
            print(f"error: {', '.join(series)} not allowed with --t (a series takes --t-max)",
                  file=sys.stderr)
            return EXIT_USAGE
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
    t_min = 0.0 if args.t_min is None else args.t_min
    error = None
    if args.out is None:
        error = "--out is required for a time series"
    elif not args.t_max > t_min:
        error = (f"--t-max ({fmt_float(args.t_max)}) must be greater than --t-min "
                 f"({fmt_float(t_min)})")
    return _write_series(args, t_min, args.t_max, LMG_HEADER,
                         functools.partial(lmg_blocks, args.g1, args.g2), error)


def cmd_decompose(args) -> int:
    try:
        matrix = parse_matrix_file(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    coeffs = su3.decompose_hamiltonian(matrix)  # main maps its errors to exit codes
    for k, value in enumerate(coeffs):
        print(f"h{k} = {fmt_float(value)}")
    residual = float(np.max(np.abs(su3.build_hamiltonian(coeffs) - matrix)))
    print(f"reconstruction residual = {fmt_float(residual)}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
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
    """argv with each '--opt -value' of a _SIGNED_OPTIONS option written '--opt=-value'."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_signed_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
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
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
