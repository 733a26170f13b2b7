"""Command-line surface: spin computation, verification and simulation.

Exit codes: 0 success; 1 a verification row failed; 2 malformed input (bad
JSON or payload, non-symmetric D, non-skew W, a malformed flag, config
value or COROTCALC_TOL, a ``simulate --dim`` above ``kinematics.MAX_DIM``
or more ``--rates`` than that, a spin that leaves the float range, a
classical spin weight that fails at a quotient b_i/b_j beyond it, a motion
that needs more dimensions, a trajectory over ``kinematics.MAX_STEPS`` or
``MAX_RECORD_BYTES``, a trajectory whose B leaves the float range, or an
unwritable ``--out``); 3 B is not positive definite; 4 integrator abort.

All output is deterministic for a fixed seed and configuration: floats are
printed with 17 significant digits and randomness flows through the seeded
counter-based generator documented in ``corotcalc.sampling``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from . import kinematics as ki
from .matcore import (
    Matrix,
    MatrixValidationError,
    NotSkewError,
    NotSpdError,
    NotSymmetricError,
    SkewMatrix,
    SpdMatrix,
    SymMatrix,
    frobenius_norm,
)
from .scalarfun import KernelDomainError
from .verify import KEY_OFFSET, MAX_TRIALS, SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_SPD = 3
EXIT_INTEGRATOR_ABORT = 4

DEFAULT_TOL = 1e-10


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _config_items(text: str) -> dict:
    """{key: value} of key=value lines, quotes stripped; blank and # lines skipped."""
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip().strip("'\"")
    return values


@dataclass
class RunConfig:
    """The keys of a ``--config`` file, at the command-line defaults."""

    seed: int = 42
    dim: int = 3
    tol: float = DEFAULT_TOL
    dt: float = 1e-3
    t_end: float = 1.0
    motion: str = "simple_shear"
    method: str = "both"
    output_path: str = "traj.csv"


# ---------------------------------------------------------------------------
# argument types: each converts one flag or config value, or rejects it


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text, then require ``ok`` of the value."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return parse


_positive = _checked(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_finite = _checked(float, math.isfinite, "a finite number")
_rates = _checked(lambda text: tuple(map(float, text.split(","))),
                  lambda xs: len(xs) <= ki.MAX_DIM and all(map(math.isfinite, xs)),
                  f"at most {ki.MAX_DIM} finite numbers a,b,...")
_count = _checked(int, lambda n: n >= 1, "a positive integer")
_trials = _checked(int, lambda n: 1 <= n <= MAX_TRIALS, f"a trial count in [1, {MAX_TRIALS}]")
_dim = _checked(int, lambda n: 1 <= n <= ki.MAX_DIM, f"a dimension in [1, {ki.MAX_DIM}]")


def _seed(scale: int, offset: int):
    """A seed whose largest Philox key, ``scale * seed + offset``, fits in 64 bits."""
    top = (2**64 - 1 - offset) // scale
    return _checked(int, lambda s: 0 <= s <= top, f"a seed in [0, {top}]")


def _config(parser: argparse.ArgumentParser):
    """The type of ``--config FILE``: the file's settings as flags of ``parser``.
    Empty values and RunConfig keys the command does not take are skipped."""
    flag = {"output_path": "--out"}

    def read(path: str) -> list:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                items = _config_items(fh.read())
        except (OSError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"cannot read config {path}: {exc}") from None
        unknown = sorted(items.keys() - {f.name for f in fields(RunConfig)})
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown config key {unknown[0]!r} in {path}")
        return [
            f"{flag.get(key, '--' + key.replace('_', '-'))}={value}"
            for key, value in items.items()
            if value and parser.get_default(key) is not None
        ]

    return read


# ---------------------------------------------------------------------------
# spin


def _parse_matrix_field(payload: dict, key: str) -> Matrix:
    if not isinstance(payload, dict):
        raise MatrixValidationError("payload must be a JSON object with fields B, D, W")
    if key not in payload:
        raise MatrixValidationError(f"missing field {key!r}")
    return Matrix.from_json_dict(payload[key])


def cmd_spin(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        b_raw, d_raw, w_raw = (_parse_matrix_field(payload, key) for key in "BDW")
    except MatrixValidationError as exc:
        print(f"error: bad matrix payload: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        b = SpdMatrix(b_raw, sym_tol=args.tol)
    except NotSpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SPD
    except NotSymmetricError as exc:
        print(f"error: B is not symmetric: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MatrixValidationError as exc:  # an eigenvalue of B beyond the float range
        print(f"error: bad matrix B: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        d = SymMatrix(d_raw, sym_tol=args.tol)
        w = SkewMatrix(w_raw, sym_tol=args.tol)
    except (NotSymmetricError, NotSkewError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not (b.dim == d.dim == w.dim):
        print("error: B, D, W must share one dimension", file=sys.stderr)
        return EXIT_BAD_INPUT

    dec = b.decomposition
    out: dict = {}
    # A large enough D makes a spin overflow.  Each computed spin is checked
    # once: by Matrix, and with "both" by the norm of the two spins'
    # difference.  The overflow is reported by one error line, not by numpy.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.method == "spectral":
                omega = ki.log_spin_spectral(b, d, w, decomposition=dec)
            elif args.method == "commutator":
                omega = ki.log_spin_commutator(b, d, w, decomposition=dec)
            else:
                omega_sp = ki.log_spin_spectral(b, d, w, decomposition=dec)
                omega = ki.log_spin_commutator(b, d, w, decomposition=dec)
                out["method_discrepancy"] = frobenius_norm(omega_sp - omega)
        out["omega_log"] = Matrix(omega).to_json_dict()
    except MatrixValidationError as exc:
        print(f"error: the spin leaves the float range: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except KernelDomainError as exc:  # b_i/b_j underflows to 0 or overflows
        print(f"error: the classical spin weight c(b_i, b_j) fails: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, seed=args.seed, trials=args.trials)
    failed = []
    width = max(len(r.label) for rows in results.values() for r in rows) + 2
    for name, rows in results.items():
        print(f"suite {name}  (seed={args.seed}, trials={args.trials})")
        for r in rows:
            status = "ok" if r.passed else "FAIL"
            print(f"  {r.label:<{width}} max residual {_fmt(r.residual):>24}  "
                  f"threshold {r.threshold:.1e}  {status}")
            if not r.passed:
                failed.append((name, r))
    if failed:
        for name, r in failed:
            print(f"FAILED: [{name}] {r.label}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("all identities verified")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _build_field(args):
    if args.motion == "simple_shear":
        return ki.simple_shear(args.kappa, dim=args.dim)
    if args.motion == "pure_stretch":
        return ki.pure_stretch(args.rates)
    if args.motion == "rigid_rotation":
        return ki.rigid_rotation(args.rate, dim=args.dim)
    return ki.polynomial_motion(args.seed, dim=args.dim)


def write_trajectory_csv(rows, path: str) -> None:
    """Trajectory table: one line per row, a tuple (t, res_eq5, res_eq40, spin_agreement, det_F)."""
    lines = ["t,res_eq5,res_eq40,spin_agreement,det_F"]
    lines.extend("%.17g,%.17g,%.17g,%.17g,%.17g" % row for row in rows)  # _fmt's bytes
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    try:
        field = _build_field(args)
        traj = ki.integrate_motion(field, np.eye(field.dim), args.t_end, args.dt, args.record_every)
    except ki.IntegrationAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR_ABORT
    except NotSpdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SPD
    except (ValueError, RuntimeWarning) as exc:  # the step's overflow warning, raised as an error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        write_trajectory_csv(zip(traj.t, traj.rate_residual, traj.evolution_residual,
                                 traj.spin_agreement, traj.det_f), args.output_path)
    except OSError as exc:
        print(f"error: cannot write {args.output_path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"motion {field.descriptor}: {len(traj)} samples -> {args.output_path}")
    print(f"max res_eq5       = {_fmt(max(traj.rate_residual))}")
    print(f"max res_eq40      = {_fmt(max(traj.evolution_residual))}")
    print(f"max spin mismatch = {_fmt(max(traj.spin_agreement))}")
    print(f"min det F         = {_fmt(min(traj.det_f))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """Every setting's one default and check; the precedence is flag > --config
    file > COROTCALC_TOL > default."""
    parser = argparse.ArgumentParser(
        prog="corotcalc",
        description="Spin tensors and commutator-kernel identities for symmetric matrices",
    )
    parser.add_argument("--version", action="version", version=f"corotcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    cfg = RunConfig

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=_config(p), help="key=value config file")
        p.set_defaults(func=func)
        return p

    p_spin = command("spin", cmd_spin, "compute the log-rate spin from B, D, W")
    p_spin.add_argument("--input", required=True, help="JSON file with B, D, W matrix objects")
    p_spin.add_argument("--method", choices=("spectral", "commutator", "both"),
                        default=cfg.method)
    p_spin.add_argument(
        "--tol", type=_positive, default=os.environ.get("COROTCALC_TOL", repr(cfg.tol)),
        help="validation tolerance (default %(default)s, from COROTCALC_TOL if set)",
    )

    p_verify = command("verify", cmd_verify, "run identity-verification suites")
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p_verify.add_argument("--seed", type=_seed(1000, KEY_OFFSET), default=cfg.seed)
    p_verify.add_argument("--trials", type=_trials, default=200)

    p_sim = command("simulate", cmd_simulate, "integrate a motion and write the residual table")
    motions = ("simple_shear", "pure_stretch", "rigid_rotation", "polynomial")
    p_sim.add_argument("--motion", choices=motions, default=cfg.motion)
    p_sim.add_argument("--kappa", type=_finite, default=1.0, help="shear rate")
    p_sim.add_argument("--rates", type=_rates, default="0.3,-0.3,0",
                       help="stretch rates, comma separated")
    p_sim.add_argument("--rate", type=_finite, default=1.0, help="rotation rate")
    p_sim.add_argument("--dt", type=_positive, default=cfg.dt)
    p_sim.add_argument("--t-end", dest="t_end", type=_positive, default=cfg.t_end)
    p_sim.add_argument("--record-every", type=_count, default=1)
    p_sim.add_argument("--seed", type=_seed(1, 0), default=cfg.seed,
                       help="seed for polynomial motion")
    p_sim.add_argument("--dim", type=_dim, default=cfg.dim)
    p_sim.add_argument("--out", dest="output_path", default=cfg.output_path,
                       help="output CSV path")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the file's settings as flags between the command and the user's own
        args = parser.parse_args([argv[0], *args.config, *argv[1:]])
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
