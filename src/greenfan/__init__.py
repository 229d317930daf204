"""Exact mutation data for cluster patterns.

Tropical seeds (B/C/G matrix triples), oriented exchange graphs with
acyclicity certificates, the degree-truncated structure group of a
scattering diagram over exact rationals, loop-product consistency checks,
minimal-degree obstructions for all-green crossing sequences, and rank-2
scattering-diagram completion.  A symbolic Laurent engine doubles as an
independent oracle for the tropical mutation data.

Every exported name is resolved on first access (PEP 562), so importing the
package, or one of its layers, loads no other layer: the CLI imports only
what its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "crossings": (
        "Crossing",
        "CrossingSequence",
        "Obstruction",
        "crossing_sequence_from_normals",
        "minimal_degree_obstruction",
    ),
    "errors": (
        "BadDecomposition",
        "BadInput",
        "CycleFound",
        "GreenfanError",
        "IncompleteGraph",
        "InconsistencyFound",
        "Inhomogeneous",
        "InternalError",
        "InvalidWalk",
        "LevelMismatch",
        "NonLaurent",
        "NotAllGreen",
        "NotGrouplike",
        "NotLieElement",
        "NotRankTwo",
        "NotSkewSymmetrizable",
        "SignIncoherent",
    ),
    "exchange": (
        "FixedData",
        "OrientedExchangeGraph",
        "SeedKey",
        "TropicalSeed",
        "canonical_key",
        "certify_acyclic",
        "enumerate_graph",
        "fan_to_svg",
        "graph_from_json",
        "graph_to_dot",
        "graph_to_json",
        "key_to_str",
        "mutate_seed",
        "root_seed",
        "validate_fixed_data",
    ),
    "linalg": ("delta_exponent",),
    "liegroup": (
        "AlgebraElement",
        "GroupElement",
        "PbwAlgebra",
        "element_from_json",
        "element_to_json",
        "group_from_json",
    ),
    "scattering": (
        "ConsistencyReport",
        "ScatteringDiagram",
        "Wall",
        "complete_rank2",
        "crossing_sequence",
        "diagram_from_json",
        "diagram_to_json",
        "diagram_to_svg",
        "factor_dilog_power",
        "path_ordered_product",
        "validate_wall",
        "verify_loop_consistency",
        "verify_rank2_consistency",
        "walk",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "laurent"}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module("." + _SOURCE[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys() | _SUBMODULES)
