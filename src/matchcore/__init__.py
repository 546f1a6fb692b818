"""Approximate-core profit sharing for weighted matching games.

Agents sit on the vertices of a weighted graph; an edge is a possible
pairwise trade worth its weight, and a coalition is worth its best
matching. On bipartite graphs the optimal cover of the matching LP is
an exact core allocation; on general graphs the core may be empty, and
this package computes the next best thing: a payout within a factor
2/3 (and usually better, per vertex) of every coalition's worth, never
exceeding the grand coalition's worth.

All arithmetic is exact: edge weights, the doubled bipartite graph's
duals, the half-integral matching and cover and every payout check are
integers on one half-unit scale, and `fractions.Fraction` appears only
in results (payouts, factors, totals). The package is pure Python; its
one matching kernel works on Python integers, so no weight is too large
for it. Every run is certified by complementary slackness, and the
`verify` module cross-checks results against brute-force enumeration
at desk scale.
"""

from .bipartite import (
    DoubledGraph,
    PrimalDualCertificate,
    check_certificate,
    double_graph,
    solve_bipartite,
)
from .errors import BoundExceeded, InstanceFormatError, InvariantViolation, MatchcoreError
from .halfint import (
    FractionalComponents,
    HalfIntegralSolution,
    OddCycle,
    decompose_components,
    fold_solution,
)
from .instances import (
    GameInstance,
    gen_gap_family,
    gen_odd_cycle,
    gen_random,
    load_instance,
    parse_instance,
    serialize_instance,
)
from .mechanism import (
    CycleMatching,
    ImputationResult,
    PipelineTrace,
    analyze_cycle,
    audit_pipeline,
    run_mechanism,
    run_pipeline,
)
from .rationals import parse_fraction
from .verify import (
    CoalitionReport,
    CoalitionViolation,
    GapReport,
    check_core,
    coalition_worth_table,
    guaranteed_alpha,
    integrality_gap,
    odd_girth,
    worth_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded",
    "CoalitionReport",
    "CoalitionViolation",
    "CycleMatching",
    "DoubledGraph",
    "FractionalComponents",
    "GameInstance",
    "GapReport",
    "HalfIntegralSolution",
    "ImputationResult",
    "InstanceFormatError",
    "InvariantViolation",
    "MatchcoreError",
    "OddCycle",
    "PipelineTrace",
    "PrimalDualCertificate",
    "analyze_cycle",
    "audit_pipeline",
    "check_certificate",
    "check_core",
    "coalition_worth_table",
    "decompose_components",
    "double_graph",
    "fold_solution",
    "gen_gap_family",
    "gen_odd_cycle",
    "gen_random",
    "guaranteed_alpha",
    "integrality_gap",
    "load_instance",
    "odd_girth",
    "parse_fraction",
    "parse_instance",
    "run_mechanism",
    "run_pipeline",
    "serialize_instance",
    "solve_bipartite",
    "worth_bruteforce",
    "__version__",
]
