"""Commutator-based functional calculus for symmetric matrices.

Modules:

- ``matcore``: matrix value types, the input checks, Jacobi eigensolver
- ``scalarfun``: scalar kernels, with exact series near zero where they cancel
- ``calculus``: matrix functions, the commutator operator, kernel operators,
  and derivative identities of the matrix exponential/logarithm
- ``kinematics``: deformation trajectories, log strain, spin tensors
- ``monotonicity``: isotropic tensor functions and quadratic-form bridges
- ``sampling``: seeded random matrices and stacks of trial inputs
- ``verify``: the named identity suites behind ``corotcalc verify``
- ``cli``: the ``corotcalc`` command-line tool
"""

__version__ = "0.1.0"
