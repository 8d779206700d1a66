"""Executable reduction from thresholded 3-CNF satisfiability to decision polycules."""

from __future__ import annotations

from ..core import OpsInstance, dps_to_ops
from .build import CompileError, ReductionArtifact, compile_formula
from .cnf import (CnfFormula, demo_formula, emit_dimacs, emit_sidecar, max3sat_oracle,
                  parse_dimacs, parse_sidecar)
from .gadgetcheck import GADGET_KINDS, GadgetVerdict, check_all_gadgets, gadget_local_check
from .synth import (
    DeferredArtifact,
    ExtractionError,
    SynthesisError,
    SynthesisRefused,
    extract_assignment,
    synthesize_schedule,
)


def gap_instance(formula: CnfFormula) -> OpsInstance:
    """Optimisation polycule with heat <= 1 iff >= k clauses are satisfiable.

    The compiled polycule has top frequency 12, so the infeasible side has
    optimal heat at least 13/12: the inapproximability gap.
    """
    return dps_to_ops(compile_formula(formula).dps)


__all__ = [
    "CnfFormula",
    "CompileError",
    "DeferredArtifact",
    "ExtractionError",
    "GADGET_KINDS",
    "GadgetVerdict",
    "ReductionArtifact",
    "SynthesisError",
    "SynthesisRefused",
    "check_all_gadgets",
    "compile_formula",
    "emit_dimacs",
    "emit_sidecar",
    "extract_assignment",
    "demo_formula",
    "gadget_local_check",
    "gap_instance",
    "max3sat_oracle",
    "parse_dimacs",
    "parse_sidecar",
    "synthesize_schedule",
]
