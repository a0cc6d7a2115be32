"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TracegenError(Exception):
    """Base class for all tool-specific failures."""


class RootNotFound(TracegenError):
    """The repository root directory does not exist."""


class InvalidJson(TracegenError):
    """A fenced JSON block exists but does not parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class MalformedTtim(TracegenError):
    """The TTIM file has an unknown or missing key or a bad value."""


class DanglingTypeName(MalformedTtim):
    """A link type references a node type that was never declared."""


class MissingSpecialType(MalformedTtim):
    """The scenario, optimizer-input or schema type is absent from node_types."""


class SchemaError(TracegenError):
    """A schema document violates the supported keyword subset."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '<root>'})")
        self.pointer = pointer


class UnknownKeyword(SchemaError):
    pass


class InvalidKeywordValue(SchemaError):
    pass


class RequiredNamesUnknownProperty(SchemaError):
    pass


class PointerSyntaxError(TracegenError):
    """A JSON Pointer string is not well-formed."""


class PointerUnresolvable(TracegenError):
    """A JSON Pointer does not resolve within the given document."""

    def __init__(self, segment: str, pointer: str):
        super().__init__(f"pointer {pointer!r} unresolvable at segment {segment!r}")
        self.segment = segment
        self.pointer = pointer


class NotAScenario(TracegenError):
    """Traversal was asked to start from an element that is not a runtime scenario."""


class PathLimitExceeded(TracegenError):
    """A scenario produced more trace paths than the configured cap."""

