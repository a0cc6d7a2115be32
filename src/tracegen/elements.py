"""Extraction of tagged requirement elements from repository text files.

Elements are XML-like blocks embedded anywhere in a text file:

    <treqs-element id="RS1" type="runtime-scenario" label="Night driving">
    free-text body, optionally with a fenced ```json block
    <treqs-link type="scopes" target="AL1" />
    </treqs-element>

Tag and attribute names are case-sensitive, attribute values are
double-quoted, attribute order is free. Blocks may nest; nesting records
independent elements and never creates a trace link.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from tracegen.errors import Diagnostic, InvalidJson, TracegenError
from tracegen.schema import is_valid_pointer

DEFAULT_GLOBS = ("**/*.md", "**/*.txt")

# The first two branches read the documented forms, <treqs-link type="..."
# target="..." /> and <treqs-element id="..." type="..."> with an optional
# label="..." and then placement="...", straight into their values. Every other
# tag takes the third or the last branch and is read attribute by attribute; on
# a tag that a documented branch matches, the other branch would end at the same
# offset with the same attributes. (\s is str.isspace, so an id that holds
# whitespace takes the other branch and its id check.)
_TAG_RE = re.compile(
    r'<treqs-link\s+type="([^"<>]+)"\s+target="([^"<>]+)"\s*/>'
    r'|<treqs-element\s+id="([^"\s<>]+)"\s+type="([^"<>]+)"'
    r'(?:\s+label="([^"<>]*)")?(?:\s+placement="([^"<>]*)")?\s*>'
    r"|<treqs-element\b([^<>]*)>|</treqs-element>|<treqs-link\b([^<>]*?)/>"
)
_BAD_PLACEMENT = "placement is not a valid JSON Pointer: {!r}"
_ATTR_RE = re.compile(r'\s*([A-Za-z_][\w.-]*)="([^"]*)"')
_FENCE_RE = re.compile(
    r"^```(?:json)?[ \t]*\r?\n(.*?)^```[ \t]*$", re.MULTILINE | re.DOTALL
)


@dataclass(frozen=True)
class SourceFile:
    path: str  # repository-relative, forward slashes
    content: str


class RawLink(NamedTuple):
    link_type: str
    target_uid: str
    line: int  # the enclosing element carries the file


class RawElement(NamedTuple):
    uid: str
    element_type: str
    label: str | None
    placement: str | None
    body: str
    links: tuple[RawLink, ...]
    file: str
    line: int


class _Frame(NamedTuple):
    head: tuple | None  # RawElement's first four fields; None when the tag was malformed
    line: int
    body_parts: list[str]
    links: list[RawLink]


def scan_repository(
    root: str | Path, include_globs: tuple[str, ...] = DEFAULT_GLOBS
) -> tuple[list[SourceFile], list[Diagnostic]]:
    """Collect matching text files under ``root``, sorted by normalized path.

    Unreadable files and non-text files become diagnostics, never failures.
    """
    root = Path(root)
    if not root.is_dir():
        raise TracegenError(f"repository root not found: {root}")
    diagnostics: list[Diagnostic] = []
    paths: set[Path] = set()
    for pattern in include_globs:
        as_path = Path(pattern)
        # Path.glob treats these differently on each Python version (3.13 reads '**' in a
        # component as '*', 3.10-3.12 fail on '.', 3.10 drops a trailing '/'): each is
        # refused, in 3.10-3.12's words where they have any
        if ".." in as_path.parts:
            problem = "'..' leaves the repository root"
        elif not as_path.parts:
            problem = f"Unacceptable pattern: {pattern!r}"
        elif not as_path.anchor and any("**" in p and p != "**" for p in as_path.parts):
            problem = "Invalid pattern: '**' can only be an entire path component"
        elif pattern.endswith("/"):
            problem = "a trailing '/' selects directories only"
        else:
            problem = None
        if problem:
            raise TracegenError(f"unsupported glob pattern {pattern!r}: {problem}")
        # a trailing '**' selects every file below on 3.13 and none on 3.10-3.12
        selected = pattern + "/*" if pattern.endswith("**") else pattern
        try:
            paths.update(p for p in root.glob(selected) if p.is_file())
        except (NotImplementedError, ValueError) as exc:  # absolute, or a NUL on 3.13
            raise TracegenError(f"unsupported glob pattern {pattern!r}: {exc}") from exc
    files: list[SourceFile] = []
    for path in sorted(paths, key=lambda p: p.relative_to(root).as_posix()):
        rel = path.relative_to(root).as_posix()
        try:
            content = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            content = None
        except OSError as exc:
            diagnostics.append(Diagnostic("error", f"cannot read file: {exc}", rel, 1))
            continue
        if content is None or "\x00" in content:
            diagnostics.append(Diagnostic("warning", "skipped non-text file", rel, 1))
            continue
        files.append(SourceFile(path=rel, content=content))
    return files, diagnostics


def _parse_attrs(raw: str) -> tuple[dict[str, str] | None, str | None]:
    """Parse an attribute region into ``(attrs, None)`` or ``(None, problem)``."""
    attrs: dict[str, str] = {}
    pos = 0
    while match := _ATTR_RE.match(raw, pos):
        name, value = match.groups()
        if name in attrs:
            return None, f"duplicate attribute {name!r}"
        attrs[name] = value
        pos = match.end()
    if rest := raw[pos:].strip():
        return None, f"malformed attribute syntax near {rest[:30]!r}"
    return attrs, None


def _validate_open(raw: str) -> tuple[dict[str, str] | None, str | None]:
    """An opening tag's attributes as ``(attrs, None)`` or ``(None, problem)``."""
    attrs, problem = _parse_attrs(raw)
    if problem:
        return None, problem
    problems = []
    if "id" not in attrs:
        problems.append("missing id attribute")
    elif not attrs["id"] or any(c.isspace() for c in attrs["id"]):
        problems.append("id must be non-empty and contain no whitespace")
    if "type" not in attrs or not attrs["type"]:
        problems.append("missing type attribute")
    if "placement" in attrs and not is_valid_pointer(attrs["placement"]):
        problems.append(_BAD_PLACEMENT.format(attrs["placement"]))
    return (None, "; ".join(problems)) if problems else (attrs, None)


def parse_file(file: SourceFile) -> tuple[list[RawElement], list[Diagnostic]]:
    """Extract all element blocks from one file.

    Total for any input: malformed blocks become error diagnostics and are
    skipped, everything outside element blocks is ignored. A tag's line is
    the line its ``<`` is on.
    """
    content, path = file.content, file.path
    elements: list[RawElement] = []
    diagnostics: list[Diagnostic] = []
    stack: list[_Frame] = []
    line, counted, body_from = 1, 0, 0  # the line of offset `counted`
    for match in _TAG_RE.finditer(content):
        start = match.start()
        line += content.count("\n", counted, start)
        if stack:
            stack[-1].body_parts.append(content[body_from:start])
        counted, body_from = start, match.end()
        link_type, target, uid, element_type, label, placement, open_attrs, link_attrs = (
            match.groups())
        severity, problem = "error", None
        if uid is not None or open_attrs is not None:
            if uid is None:  # not the documented form
                attrs, problem = _validate_open(open_attrs)
                if problem is None:
                    uid, element_type = attrs["id"], attrs["type"]
                    label, placement = attrs.get("label"), attrs.get("placement")
            elif placement is not None and not is_valid_pointer(placement):
                problem = _BAD_PLACEMENT.format(placement)
            head = None if problem else (uid, element_type, label, placement)
            stack.append(_Frame(head, line, [], []))
        elif link_type is not None or link_attrs is not None:
            if link_type is None:  # not the documented form
                attrs, problem = _parse_attrs(link_attrs)
                if problem is None:
                    link_type, target = attrs.get("type"), attrs.get("target")
                    if not link_type or not target:
                        problem = "link tag requires type and target attributes"
            if problem is None:
                if not stack:
                    severity, problem = "warning", "link outside any element block ignored"
                else:  # a malformed block drops its links when it closes
                    stack[-1].links.append(RawLink(link_type, target, line))
        elif not stack:
            problem = "closing tag without matching opening tag"
        elif (frame := stack.pop()).head is not None:
            elements.append(RawElement(*frame.head, "".join(frame.body_parts),
                                       tuple(frame.links), path, frame.line))
        if problem:
            diagnostics.append(Diagnostic(severity, problem, path, line))
    for frame in stack:
        diagnostics.append(Diagnostic("error", "unclosed element block", path, frame.line))
    elements.sort(key=lambda e: e.line)
    return elements, diagnostics


def first_json_fence(element: RawElement) -> tuple[str | None, bool]:
    """The text of the first fenced JSON block in the element body (None when
    there is none) and whether a second block follows, from one scan. A fence
    starts at a "```", so the pattern is tried only there (``^`` still holds)."""
    body, first, pos = element.body, None, 0
    while (pos := body.find("```", pos)) != -1:
        if (match := _FENCE_RE.match(body, pos)) is None:
            pos += 1
        elif first is not None:
            return first, True
        else:
            first, pos = match.group(1), match.end()
    return first, False


MAX_NESTING = 512  # RFC 8259 section 9 allows a bound; every walk of a value takes this
_TOO_DEEP = f"arrays and objects nested more than {MAX_NESTING} deep"


def parse_json(text: str):
    """Parse RFC 8259 JSON, for fenced blocks and the config schema alike. Any
    other text raises InvalidJson: NaN, +/-Infinity, a number past a float's
    range, an integer past int()'s digit limit, arrays and objects nested more
    than MAX_NESTING deep."""
    try:
        if text.startswith("\ufeff"):  # json.loads makes this check, JSONDecoder.decode does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        value = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise InvalidJson(exc.msg) from exc  # the cause keeps the line and column
    except (ValueError, RecursionError) as exc:  # recursion fails only past the bound
        raise InvalidJson(_TOO_DEEP if type(exc) is RecursionError else str(exc)) from exc
    # a text nests no deeper than half its length, nor than its count of [ and {
    if len(text) > 2 * MAX_NESTING and text.count("[") + text.count("{") > MAX_NESTING:
        # the arrays and objects inside as many others, one depth at a time
        level = [value] if type(value) in (list, dict) else []
        for _ in range(MAX_NESTING):
            level = [inner for outer in level
                     for inner in (outer.values() if type(outer) is dict else outer)
                     if type(inner) is dict or type(inner) is list]
        if level:
            raise InvalidJson(_TOO_DEEP)
    return value


def _shared_strings(pairs: list[tuple[str, object]]) -> dict:
    # The schema and value of every optimizer input stay in memory from the
    # checks to emission, and their keys and short strings ("type", "number",
    # units) repeat across elements: interning keeps one copy of each.
    return {sys.intern(k): sys.intern(v) if type(v) is str else v for k, v in pairs}


def _finite_float(literal: str) -> float:
    if math.isinf(value := float(literal)):
        raise InvalidJson(f"number {literal} is out of range")
    return value


def _reject_constant(name: str):
    # json.loads accepts NaN and +/-Infinity; RFC 8259 JSON does not
    raise InvalidJson(f"{name} is not a JSON value")


# json.loads(text, <these hooks>) would build a new decoder on every call
_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant,
                            object_pairs_hook=_shared_strings)
