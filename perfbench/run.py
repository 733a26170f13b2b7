"""Benchmark of the corotcalc library and command-line tool.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spin_stream --seed 1 --seconds 35 --trace 0

Workloads (closed loops with one caller, all in this one process):

- ``verify_all``: the work of ``verify --suite all --seed S`` at its default
  200 trials, as one ``cli.main(["verify", "--suite", name, ...])`` call per
  suite with stdout captured.
- ``spin_stream``: (B, D, W) states in wire form pushed through the calls that
  ``corotcalc spin`` makes after reading its input file, one phase per
  dimension 3, 8 and 16.
- ``simulate_shear``: ``cli.main(["simulate", "--motion", "simple_shear", ...])``
  in a dense phase (every step recorded) and a strided phase.

``--trace 0`` repeats the workload for ``--seconds``, times each unit of work
(a suite, a spin state, a simulate command) in CPU and wall seconds, and
prints the end-to-end metrics, built from each unit's median CPU time scaled
by the reference blocks timed around it (see ``SpeedProbe``).
``--trace 1`` repeats that untraced loop, then runs one input generation and
one repetition with every public corotcalc function wrapped in a span, and
prints the per-layer metrics.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS runs single-threaded; set before numpy is imported.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Spin acceptance bounds (tests/test_acceptance.py criteria 1 and 9).
SEPARATED_REL_BOUND = 1e-10  # times (1 + ||D||_F)
COALESCING_BOUND = 1e-6
# Simulate acceptance bounds (criterion 2 and the spin cross-check).
RES_EQ5_BOUND = 1e-8
SPIN_MISMATCH_BOUND = 1e-10

SPIN_KINDS = ("generic", "wide", "near")


@dataclass(frozen=True)
class Sizes:
    """Work done by one run; ``FULL`` is the benchmark, ``SMOKE`` its self-test."""

    setup_reps: int
    verify_trials: int
    warmup_trials: int
    spin_states: tuple  # (dim, states per pass); counts are multiples of 3
    spin_warmup: int  # states per dimension pushed through at set-up
    dense: tuple  # simulate flags (dt, t_end, record_every)
    stride: tuple
    warmup_sim: tuple


FULL = Sizes(
    setup_reps=7,
    verify_trials=200,
    warmup_trials=2,
    spin_states=((3, 480), (8, 120), (16, 24)),
    spin_warmup=3,
    dense=("1e-3", "1", "1"),
    stride=("1e-4", "1", "100"),
    warmup_sim=("1e-3", "0.02", "1"),
)
SMOKE = Sizes(
    setup_reps=2,
    verify_trials=3,
    warmup_trials=1,
    spin_states=((3, 6), (8, 3), (16, 3)),
    spin_warmup=1,
    dense=("1e-2", "0.1", "1"),
    stride=("1e-3", "0.1", "10"),
    warmup_sim=("1e-2", "0.02", "1"),
)
SIZES = {"full": FULL, "smoke": SMOKE}

# End-to-end metrics every workload reports (trace 0), with units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "scaled_cpu_s": "s"}


VERIFY_SUITES = (
    "lemma1", "lemma2", "lemma3", "lemma4", "lemma5", "lemma6", "theorem1", "appendix",
    "monotonicity",
)

# Per-layer metrics every workload reports (trace 1), with units; layers a
# workload does not reach read 0.
PER_LAYER = {
    "matcore.eig.calls": "count",
    "matcore.eig.self_s": "s",
    **{f"matcore.eig.d{d}_us": "us" for d in spans.EIG_DIMS},
    "matcore.validate.calls": "count",
    "matcore.validate.self_s": "s",
    "scalarfun.kernel.calls": "count",
    "scalarfun.kernel.taylor_frac": "ratio",
    "scalarfun.kernel.self_s": "s",
    "calculus.series.calls": "count",
    "calculus.series.terms": "count",
    "calculus.series.tol_stop_frac": "ratio",
    "calculus.series.self_s": "s",
    "calculus.spectral.calls": "count",
    "calculus.spectral.self_s": "s",
    "kinematics.spin.calls": "count",
    "kinematics.spin_spectral.self_s": "s",
    "kinematics.spin_commutator.self_s": "s",
    "kinematics.hencky.self_s": "s",
    "kinematics.step.self_s": "s",
    "kinematics.samples": "count",
    "monotonicity.calls": "count",
    "monotonicity.self_s": "s",
    "sampling.calls": "count",
    "sampling.self_s": "s",
    **{f"verify.{name}_s": "s" for name in VERIFY_SUITES},
    "cli.self_s": "s",
    **{f"spin.d{d}.p{q}_us": "us" for d, _ in FULL.spin_states for q in (50, 99)},
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# the library under test


def import_corotcalc() -> dict:
    """Import corotcalc afresh from this checkout's ``src``; {short name: module}."""
    if not (SRC / "corotcalc" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {SRC / 'corotcalc'} not found; run from the root of a corotcalc checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "corotcalc" or m.startswith("corotcalc.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"corotcalc.{name}") for name in spans.MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "corotcalc":
        raise SystemExit(f"error: imported corotcalc from {mods['cli'].__file__}, not {SRC}")
    return mods


class Tally:
    """Operations attempted and failed; a failure never aborts the run."""

    def __init__(self, base: str):
        self.base = base
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# Machine-speed probe.  On a shared host the CPU time of the same work drifts
# by a third over tens of seconds: other tenants' load slows the core itself,
# not only this process's share of it, so CPU time drifts with wall time.  A
# fixed block of reference work, timed between units of work, measures that
# drift, and each unit's CPU time is scaled by it.
REF_S = 6e-3  # nominal CPU seconds of one reference block
PROBE_EVERY_S = 0.05  # CPU seconds of units between two reference blocks
_REF_MATRICES = tuple(
    a + a.T for a in (np.random.default_rng(dim).standard_normal((dim, dim)) for dim in (3, 3, 3, 8, 16))
)


def _ref_spin_inputs(dims=(3, 3, 3, 3, 8, 8, 16)) -> tuple:
    """Fixed (B, D) pairs in wire form: B SPD with eigenvalues in [0.1, 10]."""
    rng = np.random.default_rng(9)
    pairs = []
    for d in dims:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        b = (q * 10.0 ** rng.uniform(-1.0, 1.0, d)) @ q.T
        a = rng.standard_normal((d, d))
        pairs.append(((0.5 * (b + b.T)).tolist(), (a + a.T).tolist()))
    return tuple(pairs)


_REF_SPIN_INPUTS = _ref_spin_inputs()


def _ref_symmetric(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.all(np.isfinite(a)):
        raise ValueError("reference input is not a finite square matrix")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("reference input is not symmetric")
    return a


def reference_block() -> float:
    """Fixed work like the library's, calling numpy only.

    Small eigensolves, products and Python float loops, then a log-rate spin
    of the same shape as the library's: validation, eigensolve, kernel table
    and Hadamard apply ``Q (T * (Q^T D Q)) Q^T``.
    """
    acc = 0.0
    for _ in range(10):
        for m in _REF_MATRICES:
            w, v = np.linalg.eigh(m)
            acc += float(((v * w) @ v.T)[0, 0])
            for x in w.tolist():
                acc += math.log1p(abs(x))
        bins: dict = {}
        for i in range(300):
            bins[i % 17] = bins.get(i % 17, 0.0) + i * 1.5
    for _ in range(2):
        for b_rows, d_rows in _REF_SPIN_INPUTS:
            b, d = _ref_symmetric(b_rows), _ref_symmetric(d_rows)
            w, q = np.linalg.eigh(b)
            dw = w[:, None] - w[None, :]
            close = np.abs(dw) <= 1e-8 * np.abs(w[:, None])
            log_w = np.log(w)
            kernel = np.where(close, 1.0 / w[:, None], (log_w[:, None] - log_w[None, :]) / np.where(close, 1.0, dw))
            x = q @ (kernel * (q.T @ d @ q)) @ q.T
            spin = 0.5 * (x - x.T)
            acc += float(np.linalg.norm(spin)) + sum(map(abs, spin[0].tolist()))
    return acc


class SpeedProbe:
    """CPU seconds of each reference block run in this process, in order."""

    def __init__(self):
        reference_block()  # untimed, so lazy set-up in numpy is not measured
        self.cpu = array("d")
        self._due = -math.inf  # process time at which the next block is due

    def probe(self, force: bool = False) -> int:
        """Run a reference block if one is due (or ``force``); index of the latest block."""
        now = time.process_time()
        if force or now >= self._due:
            reference_block()
            done = time.process_time()
            self.cpu.append(done - now)
            self._due = done + PROBE_EVERY_S
        return len(self.cpu) - 1


class Units:
    """Wall and CPU seconds of each unit of work in one repetition.

    CPU time is this process's user plus system time.  The kernel counts only
    the time the process really ran, so neither other processes nor the host
    taking the virtual CPU away (steal time) adds to it; the benchmark runs in
    one thread with BLAS pinned to one, so it is the work the unit did.  With
    a ``SpeedProbe``, each unit also notes the last reference block before it;
    the owner forces one more block after the repetition, so every unit has a
    block after it too, and ``times("scaled")`` divides each unit's CPU time
    by the mean of the two.
    """

    __slots__ = ("speed", "wall", "cpu", "block")

    def __init__(self, speed: SpeedProbe | None = None):
        self.speed = speed
        self.wall = array("d")
        self.cpu = array("d")
        self.block = array("q")  # index of the reference block before each unit

    def __len__(self) -> int:
        return len(self.cpu)

    def start(self) -> tuple:
        if self.speed is not None:
            self.block.append(self.speed.probe())
        return time.perf_counter(), time.process_time()

    def stop(self, started: tuple) -> None:
        cpu, wall = time.process_time(), time.perf_counter()
        self.wall.append(wall - started[0])
        self.cpu.append(cpu - started[1])

    def times(self, clock: str) -> np.ndarray:
        """Seconds per unit: "wall", "cpu", or "scaled" (CPU time at reference speed)."""
        if clock != "scaled":
            return np.asarray(getattr(self, clock))
        ref = np.asarray(self.speed.cpu)
        k = np.asarray(self.block)
        return np.asarray(self.cpu) * (2.0 * REF_S) / (ref[k] + ref[k + 1])


def call_cli(cli, argv: list, units: Units | None = None) -> tuple:
    """(exit code or None if it raised, captured stdout); timed into ``units``."""
    buf = io.StringIO()
    started = units.start() if units is not None else None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse and config errors exit this way
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = None
    if units is not None:
        units.stop(started)
    return rc, buf.getvalue()


def _key(seed: int, dim: int) -> int:
    return (seed * 1000 + dim) % 2**64


# ---------------------------------------------------------------------------
# checks (each returns True when the output is correct)


def check_verify(rc, stdout: str, reference: str | None) -> bool:
    if rc != 0 or not stdout.endswith("all identities verified\n"):
        return False
    return reference is None or stdout == reference


def check_spin(kind: str, d: np.ndarray, omega_sp: np.ndarray, omega: np.ndarray) -> bool:
    """Both spins exactly skew and within the acceptance discrepancy bound."""
    for om in (omega_sp, omega):
        if not (np.all(np.isfinite(om)) and np.array_equal(om, -om.T)):
            return False
    disc = float(np.linalg.norm(omega_sp - omega))
    if kind == "near":
        return disc <= COALESCING_BOUND
    return disc <= SEPARATED_REL_BOUND * (1.0 + float(np.linalg.norm(d)))


def check_simulate(rc, csv: bytes, reference: bytes | None, samples: int) -> bool:
    """Exit 0, one row per sample, residual bounds, and the same bytes every time."""
    if rc != 0:
        return False
    if reference is not None and csv != reference:
        return False
    lines = csv.decode().splitlines()
    if lines[:1] != ["t,res_eq5,res_eq40,spin_agreement,det_F"] or len(lines) != samples + 1:
        return False
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return (
        bool(np.all(np.isfinite(table)))
        and float(table[:, 1].max()) <= RES_EQ5_BOUND
        and float(table[:, 3].max()) <= SPIN_MISMATCH_BOUND
    )


# ---------------------------------------------------------------------------
# workloads
#
# Each workload has generate (inputs from the seed), warm_up, and rep: one
# repetition that times each of its units of work into ``units`` and checks
# their outputs.  Every repetition times the same units in the same order;
# given a deadline, it stops between units once it has passed.


class VerifyAll:
    """``verify --suite all --trials 200``, timed one suite per command."""

    name = "verify_all"
    base = "verify suite runs"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.reference: dict = {}

    def generate(self, mods, seed: int) -> list:
        trials = str(self.sizes.verify_trials)
        return [
            (suite, ["verify", "--suite", suite, "--trials", trials, "--seed", str(seed)])
            for suite in mods["verify"].SUITE_NAMES
        ]

    def warm_up(self, mods, suites) -> None:
        _, argv = suites[0]
        call_cli(mods["cli"], ["verify", "--suite", "all", "--trials",
                               str(self.sizes.warmup_trials), "--seed", argv[-1]])

    def rep(self, mods, suites, tally: Tally, units: Units, deadline: float | None = None) -> None:
        for suite, argv in suites:
            if past(deadline):
                break
            rc, out = call_cli(mods["cli"], argv, units)
            tally.record(check_verify(rc, out, self.reference.get(suite)), f"verify {suite} exit {rc}")
            if rc == 0:
                self.reference.setdefault(suite, out)

    def figures(self, per_unit: np.ndarray, reps: list) -> dict:
        return {"verify_s": (float(per_unit.sum()), "s")}


def make_b(sa, rng, dim: int, kind: str) -> np.ndarray:
    """One SPD B: generic (ratio <= 1e3), wide (<= 1e10) or near-coalescing."""
    if kind == "generic":
        return sa.random_spd_ratio(rng, dim, max_log10_ratio=3.0)
    if kind == "wide":
        return sa.random_spd_ratio(rng, dim, max_log10_ratio=10.0)
    lam = 10.0 ** rng.uniform(-1.5, 1.5, dim)
    lam[1] = lam[0] * (1.0 + 10.0 ** rng.uniform(-9.0, -3.0))
    q = sa.random_orthogonal(rng, dim)
    b = (q * lam) @ q.T
    return 0.5 * (b + b.T)


def spin_state(mods, payload: dict) -> tuple:
    """The calls ``cmd_spin`` makes after reading its file; (D, spectral, commutator)."""
    mc, ki = mods["matcore"], mods["kinematics"]
    tol = mods["cli"].DEFAULT_TOL
    b_raw = mc.Matrix.from_json_dict(payload["B"])
    d_raw = mc.Matrix.from_json_dict(payload["D"])
    w_raw = mc.Matrix.from_json_dict(payload["W"])
    b = mc.SpdMatrix(b_raw.array, sym_tol=tol)
    d = mc.SymMatrix(d_raw.array, sym_tol=tol)
    w = mc.SkewMatrix(w_raw.array, sym_tol=tol)
    dec = b.decomposition
    omega_sp = ki.log_spin_spectral(b.array, d.array, w.array, decomposition=dec)
    omega = ki.log_spin_commutator(b.array, d.array, w.array, decomposition=dec)
    mc.frobenius_norm(omega_sp - omega)
    return d.array, omega_sp, omega


class SpinStream:
    """Wire-form (B, D, W) states, one phase per dimension, each state a unit."""

    name = "spin_stream"
    base = "spin states"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def generate(self, mods, seed: int) -> list:
        """[(dim, [(kind, payload), ...]), ...] in wire form, thirds of each kind."""
        sa, Matrix = mods["sampling"], mods["matcore"].Matrix
        phases = []
        for dim, count in self.sizes.spin_states:
            rng = sa.make_rng(_key(seed, dim))
            states = []
            for k in range(count):
                kind = SPIN_KINDS[k % 3]
                b = make_b(sa, rng, dim, kind)
                d = sa.random_symmetric(rng, dim)
                w = sa.random_skew(rng, dim)
                payload = {key: Matrix(m).to_json_dict() for key, m in zip("BDW", (b, d, w))}
                states.append((kind, payload))
            phases.append((dim, states))
        return phases

    def warm_up(self, mods, phases) -> None:
        for _, states in phases:
            for _, payload in states[: self.sizes.spin_warmup]:
                spin_state(mods, payload)

    def rep(self, mods, phases, tally: Tally, units: Units, deadline: float | None = None) -> None:
        for dim, states in phases:
            outputs = []
            for kind, payload in states:
                if past(deadline):
                    break
                started = units.start()
                try:
                    out = spin_state(mods, payload)
                except Exception:
                    traceback.print_exc()
                    out = None
                units.stop(started)
                outputs.append((kind, out))
            for kind, out in outputs:
                tally.record(out is not None and check_spin(kind, *out), f"spin d={dim} {kind}")

    def _slices(self):
        start = 0
        for dim, count in self.sizes.spin_states:
            yield dim, slice(start, start + count)
            start += count

    def figures(self, per_unit: np.ndarray, reps: list) -> dict:
        out = {}
        for dim, sl in self._slices():
            out[f"spin_d{dim}_per_s"] = (len(per_unit[sl]) / float(per_unit[sl].sum()), "states/s")
        for name, (value, n) in self.latencies(reps).items():
            out[name] = (value, f"us (n={n})")
        return out

    def latencies(self, reps: list) -> dict:
        """spin.dN.p50_us / p99_us of wall time over every state timed: name -> (value, samples)."""
        out = {}
        for dim, sl in self._slices():
            lat = np.concatenate([np.asarray(r.wall)[sl] for r in reps])
            for q in (50, 99):
                out[f"spin.d{dim}.p{q}_us"] = (float(np.percentile(lat, q)) * 1e6, len(lat))
        return out


class SimulateShear:
    """Simple shear at kappa = 1: a dense and a strided ``simulate`` command."""

    name = "simulate_shear"
    base = "simulate runs"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.reference: dict = {}

    @staticmethod
    def _argv(flags: tuple, out: Path) -> list:
        dt, t_end, every = flags
        return [
            "simulate", "--motion", "simple_shear", "--kappa", "1", "--dt", dt,
            "--t-end", t_end, "--record-every", every, "--out", str(out),
        ]

    @staticmethod
    def _samples(flags: tuple) -> int:
        dt, t_end, every = flags
        return round(float(t_end) / float(dt)) // int(every) + 1

    def generate(self, mods, seed: int) -> list:
        # Simple shear at kappa = 1 has no random input: the seed changes nothing.
        OUT.mkdir(exist_ok=True)
        return [
            (phase, self._argv(flags, OUT / f"simulate-{phase}.csv"), self._samples(flags))
            for phase, flags in (("dense", self.sizes.dense), ("stride", self.sizes.stride))
        ]

    def warm_up(self, mods, phases) -> None:
        call_cli(mods["cli"], self._argv(self.sizes.warmup_sim, OUT / "simulate-warmup.csv"))

    def rep(self, mods, phases, tally: Tally, units: Units, deadline: float | None = None) -> None:
        for phase, argv, samples in phases:
            if past(deadline):
                break
            rc, _ = call_cli(mods["cli"], argv, units)
            csv = Path(argv[-1]).read_bytes() if rc == 0 else b""
            ok = check_simulate(rc, csv, self.reference.get(phase), samples)
            tally.record(ok, f"simulate {phase} exit {rc}")
            if ok:
                self.reference.setdefault(phase, csv)

    def figures(self, per_unit: np.ndarray, reps: list) -> dict:
        return {
            "simulate_dense_s": (float(per_unit[0]), "s"),
            "simulate_stride_s": (float(per_unit[1]), "s"),
        }


WORKLOADS = {w.name: w for w in (VerifyAll, SpinStream, SimulateShear)}


# ---------------------------------------------------------------------------
# running a workload


def median(xs) -> float:
    return float(statistics.median(xs))


def past(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() >= deadline


def per_unit(reps: list, clock: str) -> np.ndarray:
    """Each unit's median ``clock`` time (see ``Units.times``) over the repetitions that reached it."""
    table = np.full((len(reps), len(reps[0])), np.nan)
    for row, r in zip(table, reps):
        times = r.times(clock)
        row[: len(times)] = times
    return np.nanmedian(table, axis=0)


def median_rep(reps: list) -> float:
    """Median wall time of the complete repetitions."""
    return median(sum(r.wall) for r in reps if len(r) == len(reps[0]))


def set_up(wl, sizes: Sizes, seed: int, speed: SpeedProbe) -> tuple:
    """Import, generate inputs and warm up, ``setup_reps`` times.

    Returns (modules, inputs, set-up times as ``Units``, generation wall
    seconds per repetition); the modules and inputs are the last repetition's.
    """
    setup, gen_s = Units(speed), []
    for _ in range(sizes.setup_reps):
        started = setup.start()
        mods = import_corotcalc()
        t1 = time.perf_counter()
        inputs = wl.generate(mods, seed)
        gen_s.append(time.perf_counter() - t1)
        wl.warm_up(mods, inputs)
        setup.stop(started)
        speed.probe(force=True)
    return mods, inputs, setup, gen_s


def timed_loop(wl, mods, inputs, seconds: float, tally: Tally, speed: SpeedProbe) -> list:
    """Repeat for ``seconds``; the first repetition always runs to the end.

    Returns the ``Units`` of each repetition.
    """
    deadline = time.perf_counter() + seconds
    reps = []
    while not reps or not past(deadline):
        units = Units(speed)
        wl.rep(mods, inputs, tally, units, deadline if reps else None)
        speed.probe(force=True)
        reps.append(units)
    return reps


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def traced_metrics(wl, mods, seed: int, gen_s: list, reps: list, tally: Tally) -> dict:
    """Trace one input generation plus one repetition; per-layer (value, unit)."""
    untraced = median(gen_s) + median_rep(reps)
    t0 = time.perf_counter()
    with spans.Tracer(mods) as tracer:
        wl.rep(mods, wl.generate(mods, seed), tally, Units())
    traced = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{wl.name}-seed{seed}.npz")
    values = tracer.layer_metrics()
    if isinstance(wl, SpinStream):
        values.update({k: v for k, (v, _) in wl.latencies(reps).items()})
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {k: (values.get(k, 0.0), u) for k, u in PER_LAYER.items()} | {
        "trace.spans": (tracer.span_count, "count")
    }


def run(args) -> dict:
    sizes = SIZES[args.size]
    wl = WORKLOADS[args.workload](sizes)
    tally = Tally(wl.base)
    speed = SpeedProbe()
    mods, inputs, setup, gen_s = set_up(wl, sizes, args.seed, speed)
    reps = timed_loop(wl, mods, inputs, args.seconds, tally, speed)
    scaled = per_unit(reps, "scaled")
    if args.trace:
        metrics = traced_metrics(wl, mods, args.seed, gen_s, reps, tally)
    else:
        metrics = {
            "setup_s": (median(setup.times("scaled")), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "scaled_cpu_s": (float(scaled.sum()), "s"),
        }
    report = wl.figures(scaled, reps)
    report["setup_s.cpu"] = (median(setup.cpu), "s")
    report["setup_s.wall"] = (median(setup.wall), "s")
    report["cpu_s"] = (float(per_unit(reps, "cpu").sum()), "s")
    report["wall_s"] = (float(per_unit(reps, "wall").sum()), "s")
    report["wall_s.median_rep"] = (median_rep(reps), "s")
    report["reference_block_ms"] = (median(speed.cpu) * 1e3, f"ms (n={len(speed.cpu)})")
    report["repetitions"] = (len(reps), "count")
    report["fail_frac"] = (
        tally.fail_frac, f"ratio ({tally.failed} of {tally.attempted} {tally.base})"
    )

    print("env " + json.dumps(environment(args), sort_keys=True))
    for name, (value, unit) in {**report, **metrics}.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    expected = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in expected},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="'smoke' shrinks every input for the benchmark's self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
