"""Golden outputs: the bytes that ``verify``, ``simulate`` and ``spin`` write,
recorded under ``tests/golden/`` together with the build they were taken on.

The set is the one CI compares run against run with ``cmp``: ``verify`` at nine
(trials, seed) pairs, the stdout of seven ``simulate`` runs and the SHA-256 of
each one's CSV, and ``spin`` with each method on a 3×3, an 8×8 and a 16×16
payload.  Outputs depend on numpy's SIMD dispatch and on the BLAS core, so
``fingerprint.json`` records numpy's version, its enabled CPU features and the
two environment variables that change them; ``test_golden.py`` compares only on
a build with the same fingerprint.

Rewrite the files from the current tree, from the root of a checkout::

    PYTHONPATH=src python tests/golden.py

The spin payloads are written once and kept: the 8×8 and 16×16 ones come from
numpy's QR, whose bits are the BLAS's own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from corotcalc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

VERIFY = [(500, 42), (200, 1), (200, 2), (200, 3), (3, 5), (7, 1), (17, 3), (1, 2), (2, 4)]
SIMULATE = {
    "traj": [],
    "strided": ["--dt", "1e-4", "--record-every", "100"],
    "short": ["--t-end", "0.01"],
    "poly": ["--motion", "polynomial", "--seed", "3"],
    "stretch": ["--motion", "pure_stretch"],
    "rot5": ["--motion", "rigid_rotation", "--dim", "5"],
    "stretch1": ["--motion", "pure_stretch", "--rates", "0.5"],
}
SPIN_DIMS = (3, 8, 16)
METHODS = ("both", "spectral", "commutator")


def fingerprint() -> dict:
    """What decides the last bits of the outputs, besides the source."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE", ""),
    }


def spin_payload(n: int) -> dict:
    """CI's spin state of dimension n."""
    m = lambda rows: {"dim": n, "rows": rows}  # noqa: E731
    if n == 3:
        return {"B": m([[2.0, 0.5, 0.0], [0.5, 1.5, 0.2], [0.0, 0.2, 1.0]]),
                "D": m([[0.1, 0.2, 0.0], [0.2, -0.3, 0.1], [0.0, 0.1, 0.2]]),
                "W": m([[0.0, 0.4, -0.1], [-0.4, 0.0, 0.3], [0.1, -0.3, 0.0]])}
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b, (d, w) = (q * 10.0 ** rng.uniform(-3, 3, n)) @ q.T, rng.standard_normal((2, n, n))
    return {"B": m((0.5 * (b + b.T)).tolist()), "D": m((d + d.T).tolist()),
            "W": m((w - w.T).tolist())}


def _stdout(argv: list) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"corotcalc {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def outputs(golden: Path = GOLDEN) -> dict:
    """{file name: bytes} of every golden output of the current tree; the spin
    payloads are read from ``golden``."""
    files = {}
    for trials, seed in VERIFY:
        files[f"verify-{trials}-{seed}.txt"] = _stdout(
            ["verify", "--suite", "all", "--trials", str(trials), "--seed", str(seed)])
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, flags in SIMULATE.items():
            csv = Path(tmp, f"{name}.csv")
            # stdout names the CSV by its file name alone, not by the temporary directory
            out = _stdout(["simulate", *flags, "--out", str(csv)])
            files[f"simulate-{name}.txt"] = out.replace(str(csv).encode(), csv.name.encode())
            digests.append(f"{hashlib.sha256(csv.read_bytes()).hexdigest()}  {csv.name}\n")
    files["simulate-csv.sha256"] = "".join(digests).encode()
    for n in SPIN_DIMS:
        for method in METHODS:
            files[f"spin{n}-{method}.json"] = _stdout(
                ["spin", "--input", str(golden / f"state{n}.json"), "--method", method])
    return files


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for n in SPIN_DIMS:
        path = GOLDEN / f"state{n}.json"
        if not path.exists():
            path.write_text(json.dumps(spin_payload(n)) + "\n")
    (GOLDEN / "fingerprint.json").write_text(json.dumps(fingerprint(), indent=1) + "\n")
    for name, data in outputs().items():
        (GOLDEN / name).write_bytes(data)
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
