"""Exception hierarchy and the diagnostic record shared across the package."""

from __future__ import annotations

from typing import NamedTuple


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


class Diagnostic(NamedTuple):
    """One finding for stderr or the check report: a parse, graph or traversal
    problem, or a check violation (which carries its check id and subject)."""

    severity: str  # "error" | "warning"
    message: str
    file: str | None = None
    line: int | None = None
    check_id: str | None = None
    subject_uid: str | None = None

    def __str__(self) -> str:
        location = f"{self.file}:{self.line}" if self.file else "-"
        check = f"{self.check_id}: " if self.check_id else ""
        return f"{self.severity}: {check}{location}: {self.message}"
