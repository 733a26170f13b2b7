"""The stacked eigensolver against the scalar one, bit for bit, on many matrices.

Run from the root of a checkout (CI runs it with the default count):

    PYTHONPATH=src:tests python tests/stack_solver_check.py [--matrices 20000] [--seed 0]

Each factor and eigenvalue of ``matcore._eigendecompose_stack`` must equal
the one ``eigendecompose_symmetric`` gives for its matrix alone, compared as
bytes, so that -0.0 and 0.0 differ.  The stacks mix every ``_SPECTRA`` kind
of ``test_matcore`` (signed zeros included) at d = 2 to 8, 12, 16, 20 and 24;
their sizes sit at the ``_STACK_MIN`` boundary and above it (200 matrices, 40
at d = 12 and 16; at d = 20 and 24 only the two that reach the stacked
solver, as a smaller stack would compare the scalar solver with itself), and
one in four holds a member whose squared norm overflows.
Tier-1's property test samples a few hundred matrices.  Prints the first
mismatch and exits 1, else exits 0.
"""

import argparse
import sys

import numpy as np

from corotcalc import matcore
from test_matcore import _SPECTRA, _test_matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--matrices", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    edge = (matcore._STACK_MIN - 1, matcore._STACK_MIN, matcore._STACK_MIN + 1)
    sizes = {**{d: (*edge, 200) for d in range(2, 9)}, 12: (*edge, 40), 16: (*edge, 40),
             20: edge[1:], 24: edge[1:]}
    checked = 0
    while checked < args.matrices:
        for d, ns in sizes.items():
            for n in ns:
                stack = np.array([_test_matrix(rng, d, k) for k in rng.choice(_SPECTRA, n)])
                if rng.random() < 0.25:  # eigenvalues up to about 2e300
                    stack[rng.integers(n)] = 1e300 * _test_matrix(rng, d, "generic")
                dec = matcore._eigendecompose_stack(stack)
                for i, s in enumerate(stack):
                    ref = matcore.eigendecompose_symmetric(s)
                    if (dec.q[i].tobytes() != ref.q.tobytes()
                            or dec.eigenvalues[i].tobytes() != ref.eigenvalues.tobytes()):
                        print(f"mismatch: d={d}, stack of {n}, member {i}:\n{s!r}")
                        return 1
                checked += n
    print(f"{checked} matrices in stacks of {sizes[2]} at d = 2 to 8, of {sizes[12]} at "
          f"d = 12 and 16 and of {sizes[20]} at d = 20 and 24: the stacked solver equals the "
          "scalar solver bit for bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
