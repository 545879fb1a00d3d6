"""Property S for finite bihypergraphs <V, E, F>: deciders with checkable
certificates, resolution closures, fast criteria, and problem encodings."""

from .conditions import (ConditionReport, all_large_subsets_check, analyze,
                         upset_bound_check, weight_check)
from .core import (Bihypergraph, Certificate, SPartition, Verdict, VertexSet,
                   build, check_s_partition, family_intersection,
                   is_transversal, validate)
from .encodings import (CnfEncoding, CnfFormula, CnfRepresentation,
                        ColoringEncoding, ColoringInstance, SdrEncoding,
                        SdrInstance, from_cnf, from_graph_coloring,
                        from_list_coloring, from_sdr, to_cnf)
from .oracle import UniverseTooLargeError, brute_force_decide, count_s_partitions
from .resolution import (CheckResult, ClosureResult, ClosureStats, Limits,
                         Refutation, ResolutionStep, ResourceLimitError,
                         all_resolvents, alternating_closure, check_refutation,
                         closure, decide_by_resolution, resolve)
from .search import SetTooLargeError, decide, decide_2sat

__version__ = "0.1.0"

__all__ = [
    "Bihypergraph", "Certificate", "CheckResult", "ClosureResult",
    "ClosureStats", "CnfEncoding", "CnfFormula", "CnfRepresentation",
    "ColoringEncoding", "ColoringInstance", "ConditionReport", "Limits",
    "Refutation", "ResolutionStep", "ResourceLimitError", "SPartition",
    "SdrEncoding", "SdrInstance", "SetTooLargeError", "UniverseTooLargeError",
    "Verdict", "VertexSet", "all_large_subsets_check",
    "all_resolvents", "alternating_closure", "analyze", "brute_force_decide",
    "build", "check_refutation", "check_s_partition", "closure",
    "count_s_partitions", "decide", "decide_2sat", "decide_by_resolution",
    "family_intersection", "from_cnf", "from_graph_coloring",
    "from_list_coloring", "from_sdr", "is_transversal", "resolve", "to_cnf",
    "upset_bound_check", "validate", "weight_check",
]
