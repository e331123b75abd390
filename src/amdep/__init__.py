"""amdep: decompose rooted labeled semantic graphs into apply/modify
dependency trees, represent consistent source namings as per-graph tree
automata, and learn reusable names by inside-outside training.

The names below load their submodule on first use (PEP 562), so a command
that needs only some submodules does not import the others."""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(["AMType", "EMPTY_TYPE", "Edge", "SGraph", "SemanticGraph", "type_unify"],
                    "values"),
    **dict.fromkeys(["AMDepTree", "DepEdge", "apply", "check_well_typed", "evaluate", "modify",
                     "term_type"], "algebra"),
    **dict.fromkeys(["Decomposition", "NonDecomposable", "Theorem1Report", "canonical_tree",
                     "check_resolvable", "decompose", "default_plan", "modify_swap", "resolve",
                     "unroll"], "decompose"),
    **dict.fromkeys(["BlobHeuristics", "BlobPartition", "NormalizedGraph", "is_isomorphic",
                     "is_isomorphic_mod_of", "normalize_edges", "partition_blobs",
                     "read_corpus", "write_corpus"], "graph"),
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Keeps amdep.decompose the function. Importing the submodule of the
    same name binds the submodule here, after it has run; this setter drops
    that binding, so the order of imports does not matter."""

    @property
    def decompose(self):
        return __getattr__("decompose")

    @decompose.setter
    def decompose(self, _submodule):
        pass


sys.modules[__name__].__class__ = _Package
