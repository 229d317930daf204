"""Domain exception types.

Every error carries a short machine-readable ``code``; the CLI turns a raised
error into a ``{"error": code, "detail": ...}`` record on stderr and exit
status 1.
"""


class GreenfanError(Exception):
    code = "error"


class NotSkewSymmetrizable(GreenfanError):
    """No positive integer diagonal D makes D*B skew-symmetric."""

    code = "not_skew_symmetrizable"


class BadDecomposition(GreenfanError):
    """The rescaled matrix diag(delta)^-1 * B is not skew-symmetric."""

    code = "bad_decomposition"


class SignIncoherent(GreenfanError):
    """A coefficient column mixes strict signs (or vanishes).

    Sign-coherence always holds for valid mutation data, so seeing this means
    the mutation engine itself is broken, not the input.
    """

    code = "sign_incoherent"


class CycleFound(GreenfanError):
    """A directed cycle in an oriented exchange graph."""

    code = "cycle_found"

    def __init__(self, cycle, message="directed cycle found"):
        super().__init__("%s (length %d)" % (message, len(cycle)))
        self.cycle = tuple(cycle)


class IncompleteGraph(GreenfanError):
    """An operation that needs a fully enumerated graph got a truncated one."""

    code = "incomplete_graph"


class LevelMismatch(GreenfanError):
    """Two truncated elements live at incompatible levels."""

    code = "level_mismatch"


class NotLieElement(GreenfanError):
    """exp() was fed something that is not a combination of generators."""

    code = "not_lie_element"


class NotGrouplike(GreenfanError):
    """log() of the element is not a combination of single generators."""

    code = "not_grouplike"


class InvalidWalk(GreenfanError):
    """Consecutive steps of a mutation walk do not chain."""

    code = "invalid_walk"


class NotAllGreen(GreenfanError):
    """An all-green crossing sequence was required."""

    code = "not_all_green"


class InconsistencyFound(GreenfanError):
    """A loop's path-ordered product is not the identity.

    ``loop`` holds the keys of the failing cycle (empty for a rank-2 sweep),
    and ``lowest`` maps each generator index of the lowest-degree part of the
    product's log to its coefficient: the defect that witnesses the failure.
    """

    code = "inconsistency_found"

    def __init__(self, loop, lowest, message="loop product is not the identity"):
        super().__init__(message)
        self.loop = tuple(loop)
        self.lowest = dict(lowest)


class NotRankTwo(GreenfanError):
    code = "not_rank_two"


class DefectNotParallel(GreenfanError):
    """A completion defect allows no outgoing-ray choice."""

    code = "defect_not_parallel"


class NonLaurent(GreenfanError):
    """An exchange-relation division failed to be exact."""

    code = "non_laurent"


class Inhomogeneous(GreenfanError):
    """A Laurent polynomial is not homogeneous for the principal grading."""

    code = "inhomogeneous"


class InternalError(GreenfanError, RuntimeError):
    """An invariant the engine itself guarantees failed: a bug, not the input."""

    code = "internal_error"


class OutOfMemory(GreenfanError):
    """The run exhausted memory; the CLI reports a ``MemoryError`` as this."""

    code = "out_of_memory"


class BadInput(GreenfanError):
    """Malformed JSON document or field."""

    code = "bad_input"
