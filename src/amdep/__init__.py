"""amdep: decompose rooted labeled semantic graphs into apply/modify
dependency trees, represent consistent source namings as per-graph tree
automata, and learn reusable names by inside-outside training."""

from .algebra import (
    AMDepTree,
    AMType,
    DepEdge,
    EMPTY_TYPE,
    SGraph,
    apply,
    check_well_typed,
    evaluate,
    modify,
    term_type,
    type_unify,
)
from .decompose import (
    Decomposition,
    NonDecomposable,
    Theorem1Report,
    canonical_tree,
    check_resolvable,
    decompose,
    default_plan,
    modify_swap,
    resolve,
    unroll,
)
from .graph import (
    BlobHeuristics,
    BlobPartition,
    Edge,
    NormalizedGraph,
    SemanticGraph,
    is_isomorphic,
    is_isomorphic_mod_of,
    normalize_edges,
    partition_blobs,
    read_corpus,
    write_corpus,
)

__version__ = "0.1.0"
