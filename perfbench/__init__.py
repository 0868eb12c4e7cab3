"""End-to-end and per-module benchmark of the symgates package.

Run ``python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0``
from the repository root; see ``run.py`` for the workloads and metrics.
"""
