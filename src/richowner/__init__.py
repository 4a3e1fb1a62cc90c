"""Desk-scale simulator for distributed compression over rich-owner graphs.

Three senders each hold one correlated bit string; each compresses alone by
naming a random neighbor of the string in a congestion-controlled bipartite
graph plus a residue fingerprint, and a single receiver reconstructs all
three by staged candidate enumeration.  The package provides the graph
construction and verification toolkit, the fingerprinting scheme, two
computable complexity oracles, the protocol, input scenarios, and a
reproducible experiment harness.
"""

__version__ = "0.1.0"

from .bits import BitString
from .graphs import (
    LabeledBipartiteGraph,
    SeededGraph,
    SplitGraph,
    TableGraph,
)
from .construction import (
    ConstructionError,
    ConstructionReport,
    build_random_graph,
    construct_rich_owner_graph,
    split_edges,
)
from .crt import HashScheme, HashTag, crt_hash, draw_hash_tag, isolation_probability
from .oracles import (
    ComplexityProfile,
    CorrelationSet,
    CountingOracle,
    ToyMachineConfig,
    ToyOracle,
)
from .protocol import (
    Codeword,
    DecodeResult,
    InfeasibleRatesError,
    RateVector,
    check_rate_feasibility,
    conditional_profile,
    decode_full,
    decode_known_profile,
    decode_membership,
    encode,
    rates_from_profile,
    rates_violating_total,
)
from .scenarios import (
    SourceDistribution,
    collinear_members,
    entropy_profile,
    named_correlation_set,
)
from .verification import (
    BFamily,
    VerificationReport,
    check_prefix_extractor,
    rich_owner_fraction,
)
