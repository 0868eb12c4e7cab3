"""Workload inputs drawn from the seed, and the closed timed loop.

Every workload is one caller in one thread that sends its next request
only after the previous one returned.  Requests come in rounds, and a
phase ends at the end of a round.  Every round holds one heavy request per
eight light ones (fine CLI calls, operator requests), so the median
latency falls among the light requests and the 99th percentile among the
heavy ones, rather than in the tail of scheduler noise.

A shared virtual machine can change speed by up to 1.6x within seconds,
for every process alike (seen on a 2-vCPU Xeon guest).  The timed loop runs a
fixed reference unit that does not use symgates every REFERENCE_EVERY_S
and scales each request's time by REFERENCE_S over the duration of the
reference units around it: times read as they would on a host on which the
reference unit takes REFERENCE_S.  In two-second windows of an lmg run
whose request times varied by 20% (coefficient of variation), their ratio
to the reference unit varied by 4.5%.

- sweep: one coarse `symgates sweep K` call (SWEEP_STEPS rows) per gate per
  round and one fine call (SWEEP_FINE_STEPS rows) for the gates in turn, in
  a seeded order.  B1..B7 run over [0, pi] and B8 over [0, sqrt3*pi].  The
  fine call is large enough for batch arrays to show in peak_rss_mb: the
  (N, 3, 3) gates and (N, 4, 4) embeddings of its rows take 6.25 MiB, more
  than a tenth of the worker's resident memory.  It also carries most of a
  round's points, so the fixed cost of a `cli.main` call cannot hide a
  faster per-point path.  A fine call of 1e5 rows, the size batching aims
  at, would take 10 s at this commit, too long to sample in one run.
- lmg: one coarse `symgates lmg --t-max pi` call (LMG_STEPS rows) per seeded
  (g1, g2) coupling per round and one fine call (LMG_FINE_STEPS rows, the
  default of scripts/lmg_profile.py) for the couplings in turn.
- pointwise: scalar library calls in a seeded order, GATE_PER_ROUND gate
  requests and OPERATOR_PER_ROUND operator requests per round.

Library functions are looked up on their module at every call, so a traced
run reaches the timing wrappers.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

from perfbench import oracle

SWEEP_STEPS = 128  # rows of a coarse sweep
SWEEP_FINE_STEPS = 16384  # rows of a fine sweep, one per round
SWEEP_THETA_MAX = {k: ("pi", math.pi) for k in range(1, 8)}
SWEEP_THETA_MAX[8] = ("sqrt3*pi", math.sqrt(3.0) * math.pi)

LMG_STEPS = 64
LMG_FINE_STEPS = 1441
LMG_COUPLINGS = 8
LMG_COUPLING_RANGE = (0.25, 2.0)
LMG_T_MAX = ("pi", math.pi)

ORDERS = 64  # seeded rounds in one cycle of a CLI workload's calls

GATE_PER_ROUND = 32
OPERATOR_PER_ROUND = 4
POINTWISE_ROUNDS = 64  # seeded rounds in one cycle of the request stream
SPINS = (0.5, 1.0, 1.5, 2.0, 2.5)
ROTATED_SPINS = (0.5, 1.0)  # rotate_params rejects ranks above 2 for larger spins

MAX_ERRORS = 5  # failure messages kept per run


REFERENCE_S = 0.004  # duration of reference_unit() on the host times are scaled to
REFERENCE_EVERY_S = 0.1  # of timed requests between two reference units
REFERENCE_WINDOW = 5  # reference units in the running median that scales a request

_REFERENCE_MATRICES = list(np.exp(1j * np.arange(128.0)).reshape(8, 4, 4))


def reference_unit() -> float:
    """Seconds taken by a fixed piece of work that does not use symgates.

    Its mix of interpreter work, 4x4 complex numpy calls and float
    formatting is that of the workloads, so it slows down with them when
    the host does.
    """
    a = _REFERENCE_MATRICES
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(160):
        m = a[i % 8] @ a[(i + 3) % 8]
        acc += abs(np.linalg.det(m)) + abs(np.trace(m.T @ m))
        acc += len(",".join([repr(math.cos(0.1 * i + k)) for k in range(3)]))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference unit went wrong")
    return elapsed


def scale_to_reference(latencies, ref_s, ref_at) -> np.ndarray:
    """Request times scaled to REFERENCE_S.

    Reference unit k ran before request ref_at[k]; ref_at starts at 0 and
    ends at len(latencies), so every request lies between two units.  A
    unit's duration is first replaced by the median of the REFERENCE_WINDOW
    units around it, so that one disturbed unit does not scale the requests
    next to it.
    """
    padded = np.pad(np.asarray(ref_s), REFERENCE_WINDOW // 2, mode="edge")
    ref_s = np.median(np.lib.stride_tricks.sliding_window_view(padded, REFERENCE_WINDOW), axis=1)
    k = np.searchsorted(np.asarray(ref_at), np.arange(len(latencies)), side="right") - 1
    return np.asarray(latencies) * (2.0 * REFERENCE_S / (ref_s[k] + ref_s[k + 1]))


@dataclass(frozen=True)
class Phase:
    """One timed phase of a workload."""

    points: int
    wall_s: float
    latencies: np.ndarray  # seconds per request, as measured
    scaled: np.ndarray  # seconds per request, scaled to REFERENCE_S
    reference_s: float  # median duration of the reference unit

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def points_per_s(self) -> float:
        """Points per second of scaled request time."""
        return self.points / float(self.scaled.sum())


def run_phase(workload, seconds: float) -> Phase:
    """Send whole rounds of requests, one at a time, until `seconds` have passed."""
    latencies, ref_s, ref_at = array("d"), array("d"), array("l")
    first_point = workload.attempted
    start = time.perf_counter()
    ref_s.append(reference_unit())
    ref_at.append(0)
    last_ref = time.perf_counter()
    while True:
        for _ in range(workload.round_size):
            t0 = time.perf_counter()
            workload.request()
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if t1 - last_ref >= REFERENCE_EVERY_S:
                ref_s.append(reference_unit())
                ref_at.append(len(latencies))
                last_ref = time.perf_counter()
        if time.perf_counter() - start >= seconds:
            break
    if ref_at[-1] != len(latencies):
        ref_s.append(reference_unit())
        ref_at.append(len(latencies))
    wall = time.perf_counter() - start
    latencies = np.frombuffer(latencies)
    return Phase(workload.attempted - first_point, wall, latencies,
                 scale_to_reference(latencies, ref_s, ref_at), float(np.median(ref_s)))


@dataclass
class Verdict:
    failed: int
    errors: list[str]
    csv_sha256: dict[str, str]


def _note(errors: list[str], message: str) -> None:
    if len(errors) < MAX_ERRORS:
        errors.append(message)


@dataclass(frozen=True)
class CliCall:
    argv: list[str]  # without the CSV path, which comes last
    steps: int
    check: object  # CSV text -> number of failing rows


class CliWorkload:
    """Calls `cli.main` in a fixed stream of rounds; each call writes its own CSV."""

    def __init__(self, cli, calls: dict[str, CliCall], stream: list[str], round_size: int,
                 tmpdir: str):
        self.round_size = round_size
        self._cli = cli
        self._calls = calls
        self._stream = stream
        self._tmpdir = tmpdir
        self.records: list[tuple[str, str, object]] = []  # (key, csv path, exit code or error)

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def attempted(self) -> int:
        return sum(self._calls[key].steps for key, _path, _outcome in self.records)

    def request(self) -> None:
        n = len(self.records)
        key = self._stream[n % len(self._stream)]
        path = os.path.join(self._tmpdir, f"{n}.csv")
        try:
            outcome = self._cli.main(self._calls[key].argv + [path])
        except Exception as exc:  # a raising call counts its points as failed
            outcome = f"{type(exc).__name__}: {exc}"
        self.records.append((key, path, outcome))

    def output_bytes(self, first: int = 0) -> int:
        """Bytes of CSV written by requests `first` onwards."""
        return sum(os.path.getsize(path) for _key, path, outcome in self.records[first:]
                   if outcome == 0 and os.path.exists(path))

    def check(self) -> Verdict:
        """Check every CSV; identical bytes share one verdict.

        Calls with the same arguments must write the same bytes.
        """
        failed, errors, hashes, verdicts = 0, [], {}, {}
        for key, path, outcome in self.records:
            call = self._calls[key]
            if outcome != 0:
                failed += call.steps
                _note(errors, f"{key}: exit {outcome}")
                continue
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                failed += call.steps
                _note(errors, f"{key}: {exc}")
                continue
            digest = hashlib.sha256(data).hexdigest()
            if hashes.setdefault(key, digest) != digest:
                failed += call.steps
                _note(errors, f"{key}: output differs between identical calls")
                continue
            if digest not in verdicts:
                try:
                    verdicts[digest] = call.check(data.decode("utf-8"))
                except UnicodeDecodeError:
                    verdicts[digest] = call.steps
            if verdicts[digest]:
                failed += verdicts[digest]
                _note(errors, f"{key}: {verdicts[digest]} rows fail the closed form")
        return Verdict(failed, errors, hashes)


def _cli_workload(cli, calls: dict[str, CliCall], coarse: list[str], fine: list[str],
                  rng, tmpdir: str) -> CliWorkload:
    """ORDERS rounds: each coarse call once and one fine call, in a seeded order."""
    stream = []
    for r in range(ORDERS):
        order = [coarse[i] for i in rng.permutation(len(coarse))]
        order.insert(int(rng.integers(len(order) + 1)), fine[r % len(fine)])
        stream += order
    return CliWorkload(cli, calls, stream, len(coarse) + 1, tmpdir)


def sweep_workload(symgates, rng, tmpdir: str) -> CliWorkload:
    calls, coarse, fine = {}, [], []
    for k, (text, value) in SWEEP_THETA_MAX.items():
        for steps, keys in ((SWEEP_STEPS, coarse), (SWEEP_FINE_STEPS, fine)):
            key = f"B{k}/{steps}"
            argv = ["sweep", str(k), "--theta-max", text, "--steps", str(steps), "--out"]
            check = partial(oracle.check_sweep_csv, k=k, theta_max=value, steps=steps)
            calls[key] = CliCall(argv, steps, check)
            keys.append(key)
    return _cli_workload(symgates.cli, calls, coarse, fine, rng, tmpdir)


def lmg_workload(symgates, rng, tmpdir: str) -> CliWorkload:
    calls, coarse, fine = {}, [], []
    text, t_max = LMG_T_MAX
    for g1, g2 in rng.uniform(*LMG_COUPLING_RANGE, size=(LMG_COUPLINGS, 2)).tolist():
        for steps, keys in ((LMG_STEPS, coarse), (LMG_FINE_STEPS, fine)):
            key = f"g1={g1!r},g2={g2!r}/{steps}"
            argv = ["lmg", "--g1", repr(g1), "--g2", repr(g2), "--t-max", text,
                    "--steps", str(steps), "--out"]
            check = partial(oracle.check_lmg_csv, g1=g1, g2=g2, t_max=t_max, steps=steps)
            calls[key] = CliCall(argv, steps, check)
            keys.append(key)
    return _cli_workload(symgates.cli, calls, coarse, fine, rng, tmpdir)


def haar_unitary(rng, n: int) -> np.ndarray:
    """Haar-random n x n unitary (QR of a complex Ginibre matrix, phases fixed)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


GATE, OPERATOR = 0, 1


class PointwiseWorkload:
    """Independent scalar calls, like a notebook user scoring one gate at a time.

    A gate request wraps a Haar-random 3x3 unitary with `custom_gate`, scores
    it with `entangling_power` and applies it to a product state.  An
    operator request decomposes a random Hermitian 3x3 in the M basis, and
    random Hermitian matrices for every spin in SPINS into tensor operators
    and back, rotating those of ROTATED_SPINS.

    The first result for each input is kept for the oracle; a later request
    on the same input must return the same numbers.
    """

    round_size = GATE_PER_ROUND + OPERATOR_PER_ROUND

    def __init__(self, symgates, rng):
        self._lib = symgates
        n_gate = GATE_PER_ROUND * POINTWISE_ROUNDS
        n_op = OPERATOR_PER_ROUND * POINTWISE_ROUNDS
        self.unitaries = [haar_unitary(rng, 3) for _ in range(n_gate)]
        self.state_angles = np.column_stack([rng.uniform(0.0, math.pi, n_gate),
                                             rng.uniform(0.0, 2 * math.pi, n_gate)]).tolist()
        self.h3 = [random_hermitian(rng, 3) for _ in range(n_op)]
        self.hermitians = [[random_hermitian(rng, int(2 * j) + 1) for j in SPINS]
                           for _ in range(n_op)]
        self.rotation_angles = rng.uniform(-math.pi, math.pi, (n_op, 3)).tolist()
        self._stream = []
        counters = [0, 0]
        per_round = [GATE] * GATE_PER_ROUND + [OPERATOR] * OPERATOR_PER_ROUND
        for _ in range(POINTWISE_ROUNDS):
            for kind in rng.permutation(per_round).tolist():
                self._stream.append((kind, counters[kind]))
                counters[kind] += 1
        self.results = ([None] * n_gate, [None] * n_op)
        self.repeats = (np.zeros(n_gate, dtype=np.int64), np.zeros(n_op, dtype=np.int64))
        self.count = 0  # requests made, each one point
        self.failed = 0
        self.errors: list[str] = []

    def _gate(self, i: int):
        lib = self._lib
        g = lib.gates.custom_gate(self.unitaries[i])
        report = lib.entanglement.entangling_power(g)
        state = lib.entanglement.separable_state(*self.state_angles[i])
        out, conc = lib.entanglement.apply_gate(g, state)
        return (report.ep, report.g1_abs, conc, out)

    def _operator(self, i: int):
        tensors = self._lib.tensors
        coeffs = self._lib.su3.decompose_hamiltonian(self.h3[i])
        recons, rotations = [], []
        for j, h in zip(SPINS, self.hermitians[i]):
            params = tensors.decompose(h, j)
            recons.append(tensors.reconstruct(params))
            if j in ROTATED_SPINS:
                rotations.append((params, tensors.rotate_params(params, *self.rotation_angles[i])))
        return (coeffs, recons, rotations)

    @staticmethod
    def _same(kind: int, a, b) -> bool:
        if kind == GATE:
            return a[:3] == b[:3]
        return np.array_equal(a[0], b[0]) and all(
            np.array_equal(x, y) for x, y in zip(a[1], b[1]))

    def request(self) -> None:
        kind, i = self._stream[self.count % len(self._stream)]
        self.count += 1
        try:
            result = self._gate(i) if kind == GATE else self._operator(i)
        except Exception as exc:  # a raising request counts as failed
            self.failed += 1
            _note(self.errors, f"request {kind}/{i}: {type(exc).__name__}: {exc}")
            return
        first = self.results[kind][i]
        if first is None:
            self.results[kind][i] = result
        elif not self._same(kind, first, result):
            self.failed += 1
            _note(self.errors, f"request {kind}/{i}: result differs between identical requests")
            return
        self.repeats[kind][i] += 1

    @property
    def attempted(self) -> int:
        return self.count

    def output_bytes(self, first: int = 0) -> int:
        return 0

    def check(self) -> Verdict:
        failed, errors = self.failed, list(self.errors)
        m_basis = self._lib.su3.M
        for kind in (GATE, OPERATOR):
            for i, result in enumerate(self.results[kind]):
                if result is None:
                    continue
                try:
                    if kind == GATE:
                        ok = oracle.check_gate_request(self.unitaries[i], *self.state_angles[i],
                                                       *result)
                    else:
                        coeffs, recons, rotations = result
                        ok = oracle.check_operator_request(self.h3[i], m_basis, coeffs,
                                                           self.hermitians[i], recons, rotations)
                except Exception as exc:  # a malformed result fails the check
                    ok = False
                    _note(errors, f"check {kind}/{i}: {type(exc).__name__}: {exc}")
                if not ok:
                    failed += int(self.repeats[kind][i])
                    _note(errors, f"request {kind}/{i}: result fails the oracle")
        return Verdict(failed, errors, {})


def make(name: str, symgates, rng, tmpdir: str):
    if name == "sweep":
        return sweep_workload(symgates, rng, tmpdir)
    if name == "lmg":
        return lmg_workload(symgates, rng, tmpdir)
    if name == "pointwise":
        return PointwiseWorkload(symgates, rng)
    raise ValueError(f"unknown workload {name!r}")


def first_calls(symgates, name: str, tmpdir: str) -> None:
    """The first call of each entry point `name` uses, on tiny inputs.

    This fills the package's caches, so it belongs to set-up time.
    """
    out = os.path.join(tmpdir, f"setup-{os.getpid()}.csv")
    if name == "sweep":
        argv = ["sweep", "4", "--theta-max", "pi", "--steps", "2", "--out", out]
    elif name == "lmg":
        argv = ["lmg", "--g1", "1", "--g2", "2", "--t-max", "pi", "--steps", "2", "--out", out]
    else:
        argv = None
    if argv is not None:
        if symgates.cli.main(argv) != 0:
            raise RuntimeError(f"set-up call {argv} failed")
        os.remove(out)
        return
    ent, tensors = symgates.entanglement, symgates.tensors
    g = symgates.gates.custom_gate(np.eye(3))
    ent.entangling_power(g)
    ent.apply_gate(g, ent.separable_state(0.5, 0.25))
    symgates.su3.decompose_hamiltonian(np.eye(3))
    for j in SPINS:
        params = tensors.decompose(np.eye(int(2 * j) + 1), j)
        tensors.reconstruct(params)
        if j in ROTATED_SPINS:
            tensors.rotate_params(params, 0.1, 0.2, 0.3)
