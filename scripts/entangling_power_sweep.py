#!/usr/bin/env python3
"""Sweep the entangling power of all eight one-parameter gates.

Writes one CSV per gate (theta, |G1|, e_p, classification) and prints a
summary: the maximal e_p found, the angle where it occurs, and the
perfect-entangler window on the sweep grid.
"""

from __future__ import annotations

import argparse
import math
import pathlib

import numpy as np

from symgates.cli import SWEEP_HEADER, sweep_blocks, write_csv
from symgates.entanglement import PERFECT_ENTANGLER, SPECIAL_PERFECT_ENTANGLER


def sweep(k: int, theta_max: float, steps: int, out_dir: pathlib.Path) -> None:
    blocks = list(sweep_blocks(k, np.linspace(0.0, theta_max, steps)))
    write_csv(out_dir / f"b{k}_sweep.csv", SWEEP_HEADER, blocks)
    rows = [row for block in blocks for row in zip(*block)]
    window = [theta for theta, _, _, cls in rows
              if cls in (PERFECT_ENTANGLER, SPECIAL_PERFECT_ENTANGLER)]
    best = (0.0, 0.0)
    for theta, _, ep, _ in rows:
        if ep > best[1]:
            best = (theta, ep)
    if window:
        summary = f"perfect entangler for theta in [{window[0]:.6f}, {window[-1]:.6f}]"
    else:
        summary = "never a perfect entangler"
    print(f"B{k}: max e_p = {best[1]:.12f} at theta = {best[0]:.12f}; {summary}")


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
