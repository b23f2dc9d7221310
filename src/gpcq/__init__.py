"""Capacities of classical-quantum channels with sender-known states.

Solvers for the causal (strategy-based) and non-causal (binned-codebook)
message capacities, method-of-types and Schur-Weyl machinery for the
decoders, and desk-scale simulators for both random-coding schemes.
"""

__version__ = "0.1.0"

from .causal import CausalSolution, causal_capacity, inner_maximize
from .channel import (
    StateChannel,
    build_channel,
    derived_states,
    load_channel,
    parse_channel,
    product_extension,
    serialize_channel,
)
from .coding import sequential_decoder, simulate_rate_error_curve, square_root_decoder
from .errors import GpcqError
from .noncausal import GPUpperBound, GPWitness, gp_objective, noncausal_lower_bound, noncausal_upper_bound
from .quantum import (
    holevo_quantity,
    kl_divergence,
    relative_entropy,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .schur_weyl import young_frames

__all__ = [
    "__version__",
    "CausalSolution",
    "GPUpperBound",
    "GPWitness",
    "GpcqError",
    "StateChannel",
    "build_channel",
    "causal_capacity",
    "derived_states",
    "gp_objective",
    "holevo_quantity",
    "inner_maximize",
    "kl_divergence",
    "load_channel",
    "noncausal_lower_bound",
    "noncausal_upper_bound",
    "parse_channel",
    "product_extension",
    "relative_entropy",
    "sequential_decoder",
    "serialize_channel",
    "shannon_entropy",
    "simulate_rate_error_curve",
    "square_root_decoder",
    "trace_distance",
    "von_neumann_entropy",
    "young_frames",
]
