"""Exception taxonomy and the logger shared across the package."""

from __future__ import annotations

import sys

# the set-up of logging that defer_log_set_up left to the first message
_set_up = None


def defer_log_set_up(set_up):
    """Run set_up() before the next message a Logger writes, or, with None,
    drop the set-up deferred before."""
    global _set_up
    _set_up = set_up


def loaded_logging():
    """The logging module, imported, after any deferred set-up has run."""
    global _set_up
    import logging

    if _set_up is not None:
        set_up, _set_up = _set_up, None
        set_up()
    return logging


class Logger:
    """The logger named name, with logging imported only for a message that
    could be written: a command that writes none does not load logging,
    traceback and what they import. Until logging is loaded, info is
    dropped, as the root logger's default level WARNING drops it."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def info(self, msg, *args):
        if "logging" in sys.modules:
            loaded_logging().getLogger(self.name).info(msg, *args)

    def warning(self, msg, *args):
        loaded_logging().getLogger(self.name).warning(msg, *args)


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


class MergedEdges(AmdepError):
    """Two edges of a graph, an edge and its -of twin, normalize to one
    edge, so the normalized graph would keep only one of them."""


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
