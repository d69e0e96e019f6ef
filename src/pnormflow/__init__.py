"""Incremental thresholded smoothed p-norm flow.

Decide, after every edge insertion, whether the optimum of a smoothed
p-norm flow objective sits above a threshold F or admits a feasible flow
of energy at most F + eps. The solver combines iterative refinement with
a multiplicative-weights inner loop over a monotone min-ratio-cycle
oracle; drivers reduce incremental (1-eps)-approximate undirected maxflow
and effective-resistance thresholding to the same primitive.

Layer internals (the inner loop, the cycle oracles, spanning forests,
residual problems) are importable from their own modules.
"""

from .drivers import (
    AboveThreshold,
    Below,
    EffResDriver,
    MaxflowDriver,
    incremental_effres,
    incremental_maxflow,
)
from .errors import GraphError, InvariantViolation, OracleError, StreamError
from .graph import IncrementalGraph, PNormInstance, net_demand
from .refine import (
    CertifiedAbove,
    Flow,
    IncrementalPNormSolver,
    Verdict,
    incremental_pnorm,
)
from .streams import (
    EdgeSpec,
    UpdateStream,
    build_pnorm_instance,
    generate_stream,
    parse_stream,
    print_stream,
)
from .verify import (
    OracleReport,
    effective_resistance,
    exact_maxflow,
    static_pnorm_opt,
)

__version__ = "0.1.0"

__all__ = [
    "AboveThreshold",
    "Below",
    "CertifiedAbove",
    "EdgeSpec",
    "EffResDriver",
    "Flow",
    "GraphError",
    "IncrementalGraph",
    "IncrementalPNormSolver",
    "InvariantViolation",
    "MaxflowDriver",
    "OracleError",
    "OracleReport",
    "PNormInstance",
    "StreamError",
    "UpdateStream",
    "Verdict",
    "build_pnorm_instance",
    "effective_resistance",
    "exact_maxflow",
    "generate_stream",
    "incremental_effres",
    "incremental_maxflow",
    "incremental_pnorm",
    "net_demand",
    "parse_stream",
    "print_stream",
    "static_pnorm_opt",
]
