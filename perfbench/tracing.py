"""Traced-run mode: timing wrappers around the public functions of each module.

Spans are kept in memory as flat arrays (function id, parent span, start,
end).  A span's self time is its duration minus the durations of its direct
children; calls run in one thread, so children never overlap and their
durations add.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# The functions whose calls are timed, by module of definition.
TRACED = {
    "linalg": ("is_unitary", "expm_hermitian"),
    "tensors": ("decompose", "reconstruct", "rotate_params", "wigner_d"),
    "su3": ("to_qubit_basis", "decompose_hamiltonian"),
    "gates": ("gate", "custom_gate", "lmg_gate", "lmg_hamiltonian"),
    "entanglement": ("makhlin_g1", "entangling_power", "concurrence",
                     "lmg_entanglement_profile", "separable_state", "apply_gate"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.fn_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return a wrapper of `fn` that records a span named `name`."""
        fid = len(self.names)
        self.names.append(name)
        clock, stack = self.clock, self._stack
        fn_ids, parents, starts, ends = self.fn_ids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            idx = len(starts)
            fn_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> "TraceSummary":
        """Calls, self time and inclusive time per wrapped function."""
        n_names = len(self.names)
        fn_ids = np.frombuffer(self.fn_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_s = dur - child
        calls = np.bincount(fn_ids, minlength=n_names)
        self_by_fn = np.bincount(fn_ids, weights=self_s, minlength=n_names)
        total_by_fn = np.bincount(fn_ids, weights=dur, minlength=n_names)
        rows = {name: (int(calls[i]), float(self_by_fn[i]), float(total_by_fn[i]))
                for i, name in enumerate(self.names)}
        return TraceSummary(per_function=rows, self_s_total=float(self_s.sum()),
                            root_s_total=float(dur[~nested].sum()), spans=int(dur.size))


@dataclass(frozen=True)
class TraceSummary:
    per_function: dict[str, tuple[int, float, float]]  # name -> (calls, self_s, total_s)
    self_s_total: float
    root_s_total: float
    spans: int


@contextmanager
def installed(tracer: Tracer):
    """Rebind the TRACED functions to timing wrappers, then restore them.

    Every binding of an original function in the symgates modules is
    replaced, so names imported with ``from .x import y`` (for example
    ``gates.is_unitary``) reach the same wrapper as ``linalg.is_unitary``.
    A listed function that no longer exists is skipped and reports 0 calls.
    """
    modules = {mod: importlib.import_module(f"symgates.{mod}") for mod in TRACED}
    wrappers = {}
    for mod, fns in TRACED.items():
        for fn_name in fns:
            original = getattr(modules[mod], fn_name, None)
            if callable(original):
                wrappers[id(original)] = (original, tracer.wrap(f"{mod}.{fn_name}", original))
    saved = []
    try:
        for module in (importlib.import_module("symgates"), *modules.values()):
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, entry[1])
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
