"""The package's error contract: one base class and three leaves.

Each leaf names the one thing a caller can do about it:

- :class:`InputError` -- fix the input. A malformed or inconsistent file, a
  parameter out of range (an exponent, a size, a density), or a graph or
  matrix that is not an irreducible finite chain. The message names the case
  (and, for files, the path and line). It is also a ``ValueError``.
- :class:`TooLarge` -- the chain is above the exact-enumeration cap
  (``cuts.EXACT_MAX_N``; use the sweep) or ``chains.MAX_STATES`` states.
- :class:`NumericalFailure` -- a solver or a certificate failed on a valid
  input: the stationary solve, the eigensolve, an eigenpair residual, a
  degenerate eigenvector, a sweep guarantee, or a non-finite value to print.

The CLI maps every :class:`IsoperimError` to exit code 2.
"""


class IsoperimError(Exception):
    """Base class for all errors raised by this package."""


class InputError(IsoperimError, ValueError):
    """The input or a parameter is invalid; the message names the case."""


class TooLarge(IsoperimError):
    """State count exceeds the exact-enumeration cap or MAX_STATES."""


class NumericalFailure(IsoperimError):
    """A solver or certificate failed its accuracy or validity check."""
