"""Each kernel table of _ARRAY_MIN entries or more evaluates its direct branch
over arrays, in one call, not entry by entry.

A profile hook records every call of a built-in kernel's direct branch, and of
the log strain's ``_half_log``, with whether its argument is an array.  The
tables below all have _ARRAY_MIN entries or more, so none of them may call a
direct branch at a single number.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from corotcalc import kinematics as ki
from corotcalc import scalarfun as sf
from corotcalc import verify

KERNELS = (sf.SIGMA, sf.GAMMA, sf.ETA, sf.ETA_NEG, sf.ETA_NEG_RECIP, sf.COTH_HALF_X,
           sf.make_r_kernel(1.0), sf.make_sinh_ratio_kernel(1.0), sf.make_sandwich_kernel(1.0),
           sf.make_sqrt_r_kernel(1.0))
# a factory's kernels share the code object of its direct branch
DIRECTS = {k.direct.__code__: k.name for k in KERNELS} | {ki._half_log.__code__: "half_log"}


def _direct_calls(run) -> Counter:
    """{(name, argument is an array): calls} of the direct branches that ``run()`` makes."""
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in DIRECTS:
            x = next(iter(frame.f_locals.values()))  # the first parameter
            calls[DIRECTS[frame.f_code], isinstance(x, np.ndarray)] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


RUNS = {
    # the default simulate: 1001 samples, so 3003 eigenvalues and pairs per table
    "shear": lambda: ki.integrate_motion(ki.simple_shear(1.0), np.eye(3), 1.0, 1e-3),
    # 200 trials: every table of these suites has 100 entries or more
    "lemma4": lambda: verify.run_suite("lemma4", 1, 200),
    "monotonicity": lambda: verify.run_suite("monotonicity", 1, 200),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_large_tables_call_no_direct_branch_per_entry(name):
    calls = _direct_calls(RUNS[name])
    assert {k: n for k, n in calls.items() if not k[1]} == {}
    assert sum(calls.values()) > 0  # the direct branches were reached, over arrays
