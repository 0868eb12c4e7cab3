#!/usr/bin/env python3
"""Sweep the entangling power of all eight one-parameter gates.

Writes one CSV per gate (theta, |G1|, e_p, classification) and prints a
summary: the maximal e_p found, the angle where it occurs, and each
perfect-entangler window on the sweep grid (a maximal run of consecutive
labelled angles), or that it is non-entangling.
"""

from __future__ import annotations

import argparse
import itertools
import math
import pathlib

import numpy as np

from symgates.cli import SWEEP_HEADER, sweep_blocks, write_csv
from symgates.entanglement import (CLASSES, CLASSIFY_ATOL, NON_ENTANGLING, PERFECT_ENTANGLER,
                                   SPECIAL_PERFECT_ENTANGLER)


def sweep(k: int, theta_max: float, steps: int, out_dir: pathlib.Path) -> None:
    blocks = list(sweep_blocks(k, np.linspace(0.0, theta_max, steps)))
    write_csv(out_dir / f"b{k}_sweep.csv", SWEEP_HEADER, blocks)
    rows = [(*row[:3], CLASSES[row[3]]) for block in blocks for row in zip(*block)]
    # the angles of each maximal run of consecutive perfect-entangler rows
    runs = [[row[0] for row in run] for labelled, run in itertools.groupby(
        rows, lambda row: row[3] in (PERFECT_ENTANGLER, SPECIAL_PERFECT_ENTANGLER)) if labelled]
    best_theta, _, best_ep, best_class = max(rows, key=lambda row: row[2])
    if best_class == NON_ENTANGLING:
        # e_p this small is rounding noise: the angle of its maximum says nothing
        print(f"B{k}: non-entangling on the grid (max e_p <= {CLASSIFY_ATOL:g})")
        return
    if runs:
        windows = ", ".join(f"[{run[0]:.6f}, {run[-1]:.6f}]" for run in runs)
        summary = f"perfect entangler for theta in {windows}"
    else:
        summary = "never a perfect entangler"
    print(f"B{k}: max e_p = {best_ep:.12f} at theta = {best_theta:.12f}; {summary}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=721)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("out"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(1, 8):
        sweep(k, math.pi, args.steps, args.out_dir)
    # B8 accumulates phase a factor sqrt(3) slower, so sweep further.
    sweep(8, math.sqrt(3) * math.pi, args.steps, args.out_dir)
    print(f"CSV files written to {args.out_dir}/")


if __name__ == "__main__":
    main()
