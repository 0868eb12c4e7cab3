#!/usr/bin/env python3
"""Entanglement timing of the collective-spin (LMG) evolution gate.

Sweeps the evolution time, writes a CSV of (t, e_p, concurrence of the
evolved |up up> state), and prints the observed concurrence zeros and
maxima together with the first times at which the gate reaches maximal
entangling power, on either branch of e_p = 2/9: the difference branch
2 g2 t - 2 g1 t = pi/2 mod pi and the sum branch 2 g2 t + 2 g1 t = pi/2
mod pi.
"""

from __future__ import annotations

import argparse
import math
import pathlib

import numpy as np

from symgates.cli import LMG_HEADER, lmg_blocks, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g1", type=float, default=1.0)
    parser.add_argument("--g2", type=float, default=2.0)
    parser.add_argument("--t-max", type=float, default=math.pi)
    parser.add_argument("--steps", type=int, default=1441)
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out/lmg_profile.csv"))
    args = parser.parse_args()

    blocks = list(lmg_blocks(args.g1, args.g2, np.linspace(0.0, args.t_max, args.steps)))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, LMG_HEADER, blocks)
    rows = [row for block in blocks for row in zip(*block)]

    zeros = [t for t, _, conc in rows if conc < 1e-9]
    maxima = [t for t, _, conc in rows if conc > 1.0 - 1e-9]
    spe_times = [t for t, ep, _ in rows if abs(ep - 2.0 / 9.0) < 1e-9]
    print(f"profile written to {args.out}")
    print(f"concurrence zeros near t = {', '.join(f'{t:.6f}' for t in zeros[:8])}")
    print(f"  (expected multiples of pi/(4 g1) = {math.pi / (4 * args.g1):.6f})")
    print(f"concurrence maxima near t = {', '.join(f'{t:.6f}' for t in maxima[:8])}")
    # e_p = 2/9 iff cos(4 g1 t) = -cos(4 g2 t): a difference branch
    # 2(g2 - g1) t = pi/2 + n pi and a sum branch 2(g2 + g1) t = pi/2 + n pi.
    expected = []
    if args.g2 != args.g1:
        expected.append((math.pi / 2) / (2 * (args.g2 - args.g1)))
    if args.g2 != -args.g1:
        expected.append((math.pi / 2) / (2 * (args.g2 + args.g1)))
    print(f"maximal entangling power first expected at t = "
          f"{', '.join(f'{t:.6f}' for t in sorted(abs(t) for t in expected))}; "
          f"grid hits: {', '.join(f'{t:.6f}' for t in spe_times[:8]) or 'none on grid'}")


if __name__ == "__main__":
    main()
