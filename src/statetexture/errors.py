"""Exception types shared across the package, and the one way it warns."""

import sys
import warnings

_PACKAGE = __name__.partition(".")[0]


class StateTextureError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStateError(StateTextureError):
    """A matrix or vector violates the quantum-state invariants
    (normalization, Hermiticity, positivity) beyond tolerance."""


class UsageError(StateTextureError):
    """The caller supplied inconsistent or unsupported arguments."""


class ConvergenceError(StateTextureError):
    """An iterative solver failed to converge; the message carries the
    residual diagnostics."""


class ResourceLimitError(StateTextureError):
    """The request exceeds a hard size limit (e.g. too many subsystems
    for exhaustive bipartition enumeration)."""


def warn_caller(message: str) -> None:
    """Issue a ``RuntimeWarning`` attributed to the first stack frame outside
    this package, so it names the caller's line through any chain of public
    functions (``warnings.warn(skip_file_prefixes=...)`` needs Python 3.12)."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)
