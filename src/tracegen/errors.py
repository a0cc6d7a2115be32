"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TracegenError(Exception):
    """Base class for all tool-specific failures."""


class InvalidJson(TracegenError):
    """A fenced JSON block exists but does not parse."""


class SchemaError(TracegenError):
    """A schema document violates the supported keyword subset."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at {pointer or '<root>'})")


class PointerUnresolvable(TracegenError):
    """A JSON Pointer does not resolve within the given document."""

    def __init__(self, segment: str, pointer: str):
        super().__init__(f"pointer {pointer!r} unresolvable at segment {segment!r}")
