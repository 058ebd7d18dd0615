"""Tied or untied: do all cycles through two given edges share a sign?

The package decides the question with verifiable certificates, via a
2-separation reduction to 3-connected leaves, and ships a brute-force
enumeration oracle, instance generators, and a command line front end.
"""

from .balance import (
    BalanceResult,
    PathSearchResult,
    SignedPath,
    edge_in_both_signs,
    find_signed_path,
    is_balanced,
    signatures_equivalent,
)
from .certificate import (
    KIND_TIED,
    KIND_UNTIED,
    KIND_VACUOUS,
    Verdict,
    verdict_from_doc,
    verdict_to_doc,
)
from .connectivity import (
    BlockTree,
    Separation,
    blocks,
    components,
    find_proper_2_separation,
    is_2_connected,
    is_3_connected,
    side_vertices,
)
from .core import (
    NEGATIVE,
    POSITIVE,
    Cycle,
    Edge,
    EdgeId,
    GadgetInstance,
    Sign,
    SignedGraph,
    Slice,
    VertexId,
    add_edge,
    build_hat,
    build_hedgehog,
    build_target,
    contract_edge,
    cycle_sign,
    delete_edge,
    delete_edges,
    delete_vertex,
    new_graph,
    parallel_class,
    switch,
)
from .decide import (
    SMALL_LEAF,
    LeafVerdict,
    LovaszResult,
    ReductionLeaf,
    ReductionSplit,
    ReductionTree,
    check_leaf,
    decide_tied,
    lovasz_three_edges,
    reduce,
)
from .errors import (
    BadEdge,
    BadParams,
    BadRecipe,
    BadVertex,
    BudgetExhausted,
    DomainMismatch,
    LoopRejected,
    NotACycle,
    NotTwoConnected,
    ParseError,
    PreconditionViolated,
    SameEdge,
    SgError,
)
from .gen import (
    GenSpec,
    Join,
    Leaf,
    Recipe,
    Splice,
    compose_tied_instance,
    enumerate_small,
    generate,
    ladder,
    random_3_connected,
    random_recipe,
    random_signed_graph,
)
from .oracle import (
    CommonCycleReport,
    cycle_through_three,
    enumerate_common_cycles,
    find_common_cycle,
    oracle_tied,
    verify_certificate,
)
from .search import DEFAULT_BUDGET, SearchBudget

__version__ = "0.1.0"
