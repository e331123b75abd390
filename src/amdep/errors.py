"""Exception taxonomy shared across the package."""

from __future__ import annotations


class AmdepError(Exception):
    """Base class for all errors raised by this package."""


def first_ids(ids):
    """The first five ids, for a message that names what it is about."""
    ids = list(ids)
    shown = ", ".join(ids[:5])
    return shown if len(ids) <= 5 else f"{shown} and {len(ids) - 5} more"


class MissingInput(AmdepError):
    """A required input file does not exist."""


class UnwritableOutput(AmdepError):
    """An output file cannot be written."""


class MalformedInput(AmdepError):
    """An input file, or an item in it, is not in its format."""


class CorpusError(MalformedInput):
    """A corpus file, or a graph in it, is malformed."""


class UnsupportedName(AmdepError, ValueError):
    """A node id or source name uses a character that automaton files
    reserve."""


class TypeDepthExceeded(AmdepError):
    pass


class RequestClash(AmdepError):
    def __init__(self, name, a, b):
        super().__init__(f"source {name!r} carries conflicting requests: {a} vs {b}")


class MissingSource(AmdepError):
    def __init__(self, name):
        super().__init__(f"no source named {name!r} at top level")


class RequestMismatch(AmdepError):
    def __init__(self, name, expected, actual):
        super().__init__(f"request at {name!r} expects {expected}, argument has type {actual}")


class NonEmptyModRequest(AmdepError):
    def __init__(self, name):
        super().__init__(f"modifier slot {name!r} must carry the empty request")


class ModAddsSources(AmdepError):
    def __init__(self, names):
        super().__init__(f"modifier would add sources {sorted(names)} to the head type")


class LabelClash(AmdepError):
    def __init__(self, a, b):
        super().__init__(f"cannot merge nodes labeled {a!r} and {b!r}")


class NotWellTyped(AmdepError):
    def __init__(self, node, cause):
        super().__init__(f"at node {node!r}: {cause}")
        self.node = node


class NonEmptyRootType(NotWellTyped):
    def __init__(self, typ):
        AmdepError.__init__(self, f"evaluation leaves open sources {typ}")
        self.node = None
        self.typ = typ


class GenerationExhausted(AmdepError):
    pass


class ResolutionFailed(AmdepError):
    def __init__(self, node, cause):
        super().__init__(f"resolving {node!r}: {cause}")


class InvalidSwapPair(AmdepError):
    pass


class EmptyAutomaton(AmdepError):
    """Raised by queries that need at least one accepted tree."""


class NonFiniteGradient(AmdepError):
    pass
