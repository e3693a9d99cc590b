"""Exact classification of Ulrich and special cycles on resolution dual
graphs of two-dimensional rational surface singularities."""

from .builders import GraphFormatError, build_ade, build_cyclic, hj_expansion, parse_graph
from .classify import (
    BoxLimitError,
    ClassificationEntry,
    RdpVerification,
    brute_force_anti_nef,
    enumerate_special,
    enumerate_ulrich,
    expected_ulrich_count,
    golden_table,
    oracle_classify,
    verify_rdp,
)
from .invariants import (
    CycleError,
    Filtration,
    InvalidGraphError,
    ValidationReport,
    colength,
    filtration,
    fundamental_cycle,
    is_anti_nef,
    is_special_cycle,
    is_ulrich_cycle,
    min_gens,
    multiplicity,
    special_module_indices,
    u_invariant,
    validate,
    virtual_genus,
)
from .lattice import Cycle, DimensionError, DualGraph

__version__ = "0.3.0"

__all__ = [
    "BoxLimitError",
    "ClassificationEntry",
    "Cycle",
    "CycleError",
    "DimensionError",
    "DualGraph",
    "Filtration",
    "GraphFormatError",
    "InvalidGraphError",
    "RdpVerification",
    "ValidationReport",
    "brute_force_anti_nef",
    "build_ade",
    "build_cyclic",
    "colength",
    "enumerate_special",
    "enumerate_ulrich",
    "expected_ulrich_count",
    "filtration",
    "fundamental_cycle",
    "golden_table",
    "hj_expansion",
    "is_anti_nef",
    "is_special_cycle",
    "is_ulrich_cycle",
    "min_gens",
    "multiplicity",
    "oracle_classify",
    "parse_graph",
    "special_module_indices",
    "u_invariant",
    "validate",
    "verify_rdp",
    "virtual_genus",
]
