"""Domain exception types.

Every error carries a short machine-readable ``code``; the CLI turns a raised
error into a ``{"error": code, "detail": ...}`` record on stderr and exit
status 1.  A subclass's code is its class name in snake_case unless its body
sets ``code`` itself.
"""

import re


class GreenfanError(Exception):
    code = "error"

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "code" not in cls.__dict__:
            cls.code = re.sub(r"(?<=[a-z])(?=[A-Z])", "_", cls.__name__).lower()


class NotSkewSymmetrizable(GreenfanError):
    """No positive integer diagonal D makes D*B skew-symmetric."""


class BadDecomposition(GreenfanError):
    """The rescaled matrix diag(delta)^-1 * B is not skew-symmetric."""


class SignIncoherent(GreenfanError):
    """A coefficient column mixes strict signs (or vanishes).

    Sign-coherence always holds for valid mutation data, so seeing this means
    the mutation engine itself is broken, not the input.
    """


class CycleFound(GreenfanError):
    """A directed cycle in an oriented exchange graph."""

    def __init__(self, cycle):
        super().__init__("directed cycle found (length %d)" % len(cycle))
        self.cycle = tuple(cycle)


class IncompleteGraph(GreenfanError):
    """An operation that needs a fully enumerated graph got a truncated one."""


class LevelMismatch(GreenfanError):
    """Two truncated elements live at incompatible levels."""


class NotLieElement(GreenfanError):
    """exp() was fed something that is not a combination of generators."""


class NotGrouplike(GreenfanError):
    """log() of the element is not a combination of single generators."""


class InvalidWalk(GreenfanError):
    """Consecutive steps of a mutation walk do not chain."""


class NotAllGreen(GreenfanError):
    """An all-green crossing sequence was required."""


class InconsistencyFound(GreenfanError):
    """A loop's path-ordered product is not the identity.

    ``loop`` holds the keys of the failing cycle (empty for a rank-2 sweep),
    and ``lowest`` maps each generator index of the lowest-degree part of the
    product's log to its coefficient: the defect that witnesses the failure.
    """

    def __init__(self, loop, lowest, message="loop product is not the identity"):
        super().__init__(message)
        self.loop = tuple(loop)
        self.lowest = dict(lowest)


class NotRankTwo(GreenfanError):
    """A rank-2-only operation got an input of another rank."""


class NonLaurent(GreenfanError):
    """An exchange-relation division failed to be exact."""


class Inhomogeneous(GreenfanError):
    """A Laurent polynomial is not homogeneous for the principal grading."""


class InternalError(GreenfanError, RuntimeError):
    """An invariant the engine itself guarantees failed: a bug, not the input."""


class OutOfMemory(GreenfanError):
    """The run exhausted memory; the CLI reports a ``MemoryError`` as this."""


class BadInput(GreenfanError):
    """Malformed JSON document or field."""
