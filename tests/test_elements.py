import functools
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

import pytest

import oracles
from conftest import repo_files
from tracegen.elements import (
    _TAG_RE,
    RawElement,
    SourceFile,
    first_json_fence,
    parse_file,
    parse_json,
    scan_repository,
)
from tracegen.errors import InvalidJson, TracegenError


def src(content, path="doc.md"):
    return SourceFile(path=path, content=content)


def diagnostics_of(content):
    return [(d.severity, d.message, d.file, d.line) for d in parse_file(src(content))[1]]


SINGLE = """prose before
<treqs-element id="RS1" type="runtime-scenario" label="Night driving">
</treqs-element>
prose after
"""


class TestParseFile:
    def test_single_element(self):
        elements, diagnostics = parse_file(src(SINGLE))
        assert diagnostics == []
        (e,) = elements
        assert e.uid == "RS1"
        assert e.element_type == "runtime-scenario"
        assert e.label == "Night driving"
        assert e.links == ()
        assert e.line == 2

    def test_link_inside_body(self):
        content = """<treqs-element id="R1" type="requirement">
<treqs-link type="satisfiedBy" target="REQ7" />
</treqs-element>
"""
        elements, diagnostics = parse_file(src(content))
        assert diagnostics == []
        (e,) = elements
        assert [(l.link_type, l.target_uid) for l in e.links] == [("satisfiedBy", "REQ7")]

    @pytest.mark.parametrize("placement", ["no-slash", "\n", "\r\n"])
    def test_bad_placement_rejected(self, placement):
        content = f'<treqs-element id="A" type="t" placement="{placement}">\n</treqs-element>\n'
        elements, _ = parse_file(src(content))
        assert elements == []
        assert diagnostics_of(content) == [
            ("error", f"placement is not a valid JSON Pointer: {placement!r}", "doc.md", 1)]

    def test_nested_elements_are_independent(self):
        content = """<treqs-element id="OUTER" type="t">
outer body
<treqs-element id="INNER" type="t">
inner body
<treqs-link type="l" target="X" />
</treqs-element>
more outer
</treqs-element>
"""
        elements, diagnostics = parse_file(src(content))
        assert diagnostics == []
        assert [e.uid for e in elements] == ["OUTER", "INNER"]
        outer = elements[0]
        inner = elements[1]
        # containment creates no link, and the inner link stays inner
        assert outer.links == ()
        assert len(inner.links) == 1
        assert "inner body" not in outer.body
        assert "more outer" in outer.body

    def test_provenance_round_trip(self):
        content = "x\n\n" + SINGLE
        elements, _ = parse_file(src(content))
        (e,) = elements
        line_text = content.splitlines()[e.line - 1]
        assert line_text.startswith("<treqs-element")

    def test_determinism(self):
        a = parse_file(src(SINGLE))
        b = parse_file(src(SINGLE))
        assert a == b

    def test_no_cross_file_state(self):
        one = parse_file(src(SINGLE, "a.md"))
        two = parse_file(src('<treqs-element id="Z" type="t">\n</treqs-element>\n', "b.md"))
        again_one = parse_file(src(SINGLE, "a.md"))
        assert one == again_one
        assert {e.uid for e in one[0]} | {e.uid for e in two[0]} == {"RS1", "Z"}

    def test_totality_on_junk(self):
        for junk in ["", "<treqs-element", "< /treqs-element>", "a<b>c", "<treqs-element >"]:
            elements, diagnostics = parse_file(src(junk))
            assert isinstance(elements, list) and isinstance(diagnostics, list)


class TestParseDiagnostics:
    """The exact message, severity and line of every parse diagnostic."""

    @pytest.mark.parametrize(
        "tag, message",
        [
            ('<treqs-element id="A" type=t>', "malformed attribute syntax near 'type=t'"),
            ('<treqs-element id="A" type="t" x>', "malformed attribute syntax near 'x'"),
            ('<treqs-element id="A" id="B" type="t">', "duplicate attribute 'id'"),
            ('<treqs-element type="t">', "missing id attribute"),
            ('<treqs-element id="A">', "missing type attribute"),
            ('<treqs-element id="A" type="">', "missing type attribute"),
            ('<treqs-element id="" placement="x">',
             "id must be non-empty and contain no whitespace; missing type attribute; "
             "placement is not a valid JSON Pointer: 'x'"),
            ('<treqs-element id="A B" type="t" placement="/a~2">',
             "id must be non-empty and contain no whitespace; "
             "placement is not a valid JSON Pointer: '/a~2'"),
            ("<treqs-element>", "missing id attribute; missing type attribute"),
        ],
        ids=["malformed", "malformed-tail", "duplicate", "no-id", "no-type", "empty-type",
             "three-problems", "id-and-placement", "no-attributes"],
    )
    def test_opening_tag_problem(self, tag, message):
        content = f"text\n{tag}\nbody\n</treqs-element>\n"
        elements, _ = parse_file(src(content))
        assert elements == []
        assert diagnostics_of(content) == [("error", message, "doc.md", 2)]

    @pytest.mark.parametrize(
        "tag, message",
        [
            ('<treqs-link type="l" />', "link tag requires type and target attributes"),
            ('<treqs-link target="X" />', "link tag requires type and target attributes"),
            ('<treqs-link type="" target="X" />', "link tag requires type and target attributes"),
            ('<treqs-link type="l" type="m" target="X" />', "duplicate attribute 'type'"),
            ('<treqs-link type="l" target=X />', "malformed attribute syntax near 'target=X'"),
        ],
        ids=["no-target", "no-type", "empty-type", "duplicate", "malformed"],
    )
    def test_link_tag_problem(self, tag, message):
        content = f'<treqs-element id="A" type="t">\n\n{tag}\n</treqs-element>\n'
        elements, _ = parse_file(src(content))
        assert [e.links for e in elements] == [()]
        assert diagnostics_of(content) == [("error", message, "doc.md", 3)]

    def test_link_problem_reported_outside_a_block_too(self):
        content = '\n<treqs-link type="l" />\n'
        assert diagnostics_of(content) == [
            ("error", "link tag requires type and target attributes", "doc.md", 2)]

    def test_link_outside_block_is_a_warning(self):
        content = 'a\n\n<treqs-link type="l" target="X" />\n'
        assert diagnostics_of(content) == [
            ("warning", "link outside any element block ignored", "doc.md", 3)]

    def test_stray_closing_tag(self):
        content = '<treqs-element id="A" type="t">\n</treqs-element>\n</treqs-element>\n'
        assert diagnostics_of(content) == [
            ("error", "closing tag without matching opening tag", "doc.md", 3)]

    def test_unclosed_blocks_reported_outermost_first_after_the_rest(self):
        content = (
            '<treqs-element id="A" type="t">\n'
            '<treqs-element id="B" type="t">\n'
            "</treqs-element>\n"
            '<treqs-element id="C" type="t">\n'
            '<treqs-link type="l" />\n'
        )
        elements, _ = parse_file(src(content))
        assert [(e.uid, e.line) for e in elements] == [("B", 2)]
        assert diagnostics_of(content) == [
            ("error", "link tag requires type and target attributes", "doc.md", 5),
            ("error", "unclosed element block", "doc.md", 1),
            ("error", "unclosed element block", "doc.md", 4),
        ]

    def test_link_inside_malformed_block_dropped_silently(self):
        content = (
            '<treqs-element id="A">\n'
            '<treqs-link type="l" target="X" />\n'
            '<treqs-element id="B" type="t">\n'
            '<treqs-link type="m" target="Y" />\n'
            "</treqs-element>\n"
            '<treqs-link type="n" target="Z" />\n'
            "</treqs-element>\n"
        )
        elements, _ = parse_file(src(content))
        assert [(e.uid, [(l.link_type, l.target_uid) for l in e.links]) for e in elements] == [
            ("B", [("m", "Y")])]
        assert diagnostics_of(content) == [("error", "missing type attribute", "doc.md", 1)]

    def test_tag_spanning_lines_reports_its_first_line(self):
        content = (
            "prose\n"
            '<treqs-element id="A" type="t"\n'
            '    label="two\r\nlines">\n'
            '<treqs-link\n type="l"\n target="X" />\n'
            "</treqs-element>\n"
            '<treqs-element\n type="t" label="\n">\n'
            "</treqs-element>\n"
            '<treqs-link type="l"\n target="X" />\n'
        )
        elements, _ = parse_file(src(content))
        ((a, a_line, links),) = [(e.label, e.line, e.links) for e in elements]
        assert (a, a_line) == ("two\r\nlines", 2)
        assert [(l.link_type, l.line) for l in links] == [("l", 5)]
        assert diagnostics_of(content) == [
            ("error", "missing id attribute", "doc.md", 9),
            ("warning", "link outside any element block ignored", "doc.md", 13),
        ]


class TestJsonBody:
    def element_with_body(self, body):
        content = f'<treqs-element id="A" type="t">\n{body}\n</treqs-element>\n'
        elements, diagnostics = parse_file(src(content))
        assert diagnostics == []
        return elements[0]

    def read(self, body):
        """The first fenced block parsed, and whether a second one follows."""
        text, more = first_json_fence(self.element_with_body(body))
        return (None if text is None else parse_json(text)), more

    def test_fenced_block_parsed(self):
        assert self.read('```json\n{"value": 5}\n```') == ({"value": 5}, False)

    def test_untagged_fence_parsed(self):
        assert self.read("```\n42\n```") == (42, False)

    def test_prose_only_is_absent(self):
        assert first_json_fence(self.element_with_body("just words")) == (None, False)

    def test_invalid_json_raises(self):
        with pytest.raises(InvalidJson) as caught:
            self.read('```json\n{"value": }\n```')
        position = caught.value.__cause__.lineno, caught.value.__cause__.colno
        assert (str(caught.value), *position) == ("Expecting value", 1, 11)

    def test_first_of_many_blocks_wins(self):
        assert self.read("```json\n1\n```\ntext\n```json\n2\n```") == (1, True)

    def test_second_block_found_after_an_invalid_first(self):
        text, more = first_json_fence(self.element_with_body("```\n{\n```\n```\n2\n```"))
        assert (text, more) == ("{\n", True)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("NaN", "NaN is not a JSON value"),
            ("[-Infinity]", "-Infinity is not a JSON value"),
            ("1e400", "number 1e400 is out of range"),
            ('{"a": [-1.5E309]}', "number -1.5E309 is out of range"),
            ("1" * 400 + ".0", "number " + "1" * 400 + ".0 is out of range"),
            ("1" * 5000, "Exceeds the limit"),
            # past the bound, whether json.loads reads that deep (3.12 and
            # later at 1,200 levels) or not (3.10 and 3.11; any at 100,000)
            ("[" * 513 + "]" * 513, "arrays and objects nested more than 512 deep"),
            ("[" * 1200 + "]" * 1200, "arrays and objects nested more than 512 deep"),
            ("[" * 100000, "arrays and objects nested more than 512 deep"),
        ],
        ids=["nan", "minus-infinity", "1e400", "nested-overflow", "400-digit-float",
             "5000-digit-int", "513-levels", "1200-levels", "deep"],
    )
    def test_beyond_rfc_8259_is_invalid(self, text, message):
        with pytest.raises(InvalidJson) as caught:
            parse_json(text)
        assert str(caught.value).startswith(message)

    def test_finite_extremes_parse(self):
        assert parse_json("[1e-400, 1.7976931348623157e308, " + "1" * 400 + "]") == [
            0.0, 1.7976931348623157e308, int("1" * 400)]

    @pytest.mark.parametrize(
        "text",
        ["\ufeff{}", "", "[1,", "{} x", "NaN", "-Infinity", "1e400", "[" * 600 + "]" * 600,
         "1" * 5000, '{"a": [1, 2.5e3, "x", null], "b": {}}'],
        ids=["bom", "empty", "unfinished", "trailing", "nan", "minus-infinity", "1e400",
             "600-levels", "5000-digit-int", "valid"],
    )
    @pytest.mark.parametrize("shared", [True, False], ids=["fenced", "config"])
    def test_parse_json_matches_json_loads(self, text, shared):
        parse = functools.partial(parse_json, shared=shared)
        assert json_outcome(parse, text) == json_outcome(oracles.parse_json, text)

    @pytest.mark.parametrize("shared", [True, False], ids=["fenced", "config"])
    def test_bom_keeps_the_json_loads_message(self, shared):
        assert json_outcome(functools.partial(parse_json, shared=shared), "\ufeff{}") == (
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", json.JSONDecodeError, 1, 1)

    def test_only_fenced_values_share_strings_across_texts(self):
        # the config schema is read once, so its decode skips the interning hook
        text = '{"type": "number", "unit": "ms"}'
        first, again, config = parse_json(text), parse_json(text), parse_json(text, shared=False)
        assert first == again == config
        assert all(a is b for a, b in zip([*first, *first.values()], [*again, *again.values()]))
        assert config["unit"] is not first["unit"]


def json_outcome(parse, text):
    """The parsed value, or the InvalidJson message and its cause's type and position."""
    try:
        return parse(text)
    except InvalidJson as exc:
        cause = exc.__cause__
        return str(exc), type(cause), getattr(cause, "lineno", None), getattr(cause, "colno", None)


def fence_of(body):
    return first_json_fence(RawElement("A", "t", None, None, body, (), "doc.md", 1))


def reference_fence_of(body):
    return oracles.first_json_fence(RawElement("A", "t", None, None, body, (), "doc.md", 1))


def generated_bodies(root, workload):
    """Every element body of a small perfbench/gen_repo.py repository."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen_repo.py"
    spec = importlib.util.spec_from_file_location("gen_repo", path)
    gen_repo = sys.modules.setdefault("gen_repo", importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen_repo)  # its dataclasses look their module up by name
    gen_repo.generate(workload, 3, root, scale=0.02)
    files, _ = scan_repository(root / "repo")
    return [element.body for file in files for element in parse_file(file)[0]]


class TestFenceParity:
    """first_json_fence tries an opener at each "```" and finds its closing
    line with one search; the reference is one lazy pattern tried at every offset."""

    @pytest.mark.parametrize(
        "body",
        [
            "text ```json\n1\n```\n",
            "```json\n1\nsee ``` here\n```",
            "````json\n1\n````\n```json\n2\n```",
            "````\n1\n```",
            "```json  \t\n1\n``` \t\n",
            "```json \t\r\n1\r\n```\t",
            "```json\n1\n",
            "```json\n{\nmore\n```json\n2\n```",
            "```json\n1\n```\n```\n2\n```",
            "```\n1\n```",
            "```\n```",
            "```",
            "",
            "```json\n{\n" * 200,
            "```json\n1\n```\n" + "```json\n{\n" * 200,
            "```json\n{\n```x\n" * 200 + "```\n",
            "x```\n" * 200 + "```\n1\n```",
        ],
        ids=["mid-line", "mid-line-close", "four-backticks", "four-open-three-close",
             "trailing-blanks", "trailing-blanks-crlf", "unclosed", "unclosed-then-fence",
             "two-fences", "offset-0", "empty-fence", "lone-backticks", "empty",
             "openers-only", "fence-then-openers", "near-closers", "mid-line-openers"],
    )
    def test_matches_the_reference(self, body):
        assert fence_of(body) == reference_fence_of(body)

    def test_openers_without_a_closing_line_take_linear_time(self):
        # each opener once looked for its closing line to the end of the body
        body = "```json\n{\n" * 20000
        start = time.perf_counter()
        assert fence_of(body) == (None, False)
        assert time.perf_counter() - start < 0.5

    def test_matches_the_reference_on_random_bodies(self):
        rng = random.Random(16)
        pieces = ["```", "`", "json", " ", "\t", "\n", "\r\n", "1", "x"]
        for _ in range(3000):
            body = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 24)))
            assert fence_of(body) == reference_fence_of(body), body

    def test_matches_the_reference_on_the_fixture(self):
        bodies = [element.body for path, content in repo_files().items()
                  for element in parse_file(src(content, path))[0]]
        assert sum(fence_of(body)[0] is not None for body in bodies) == 4
        assert [fence_of(b) for b in bodies] == [reference_fence_of(b) for b in bodies]

    @pytest.mark.parametrize("workload", ["corpus-check", "fanout-yaml", "fanout-plantuml"])
    def test_matches_the_reference_on_a_generated_repository(self, tmp_path, workload):
        bodies = generated_bodies(tmp_path, workload)
        assert any(fence_of(body)[0] is not None for body in bodies)
        assert [fence_of(b) for b in bodies] == [reference_fence_of(b) for b in bodies]


class TestScanRepository:
    def test_sorted_output(self, tmp_path):
        (tmp_path / "b.md").write_text("b")
        (tmp_path / "a.md").write_text("a")
        files, diagnostics = scan_repository(tmp_path, ("*.md",))
        assert [f.path for f in files] == ["a.md", "b.md"]
        assert diagnostics == []

    def test_empty_directory(self, tmp_path):
        files, _ = scan_repository(tmp_path, ("*.md",))
        assert files == []

    def test_recursive_glob(self, tmp_path):
        (tmp_path / "a.md").write_text("a")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "c.md").write_text("c")
        files, _ = scan_repository(tmp_path, ("**/*.md",))
        assert [f.path for f in files] == ["a.md", "sub/c.md"]

    @pytest.mark.parametrize("pattern, read_as", [("**", "**/*"), ("sub/**", "sub/**/*"),
                                                   ("*/**", "*/**/*"), ("**/**", "**/**/*")])
    def test_trailing_double_star_selects_every_file_below(self, tmp_path, pattern, read_as):
        # as Python 3.13's Path.glob reads it; 3.10-3.12's selects no file
        for name in ("a.md", "sub/b.md", "sub/deep/c.md", "other/d.md"):
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(name)
        files, _ = scan_repository(tmp_path, (pattern,))
        expected, _ = scan_repository(tmp_path, (read_as,))
        assert [f.path for f in files] == [f.path for f in expected]
        assert "sub/deep/c.md" in [f.path for f in files]

    def test_missing_root(self, tmp_path):
        with pytest.raises(TracegenError, match="repository root not found"):
            scan_repository(tmp_path / "nope", ("*.md",))

    def test_binary_file_skipped_with_warning(self, tmp_path):
        (tmp_path / "bin.md").write_bytes(b"\x00\xff\x00binary")
        (tmp_path / "ok.md").write_text("ok")
        files, diagnostics = scan_repository(tmp_path, ("*.md",))
        assert [f.path for f in files] == ["ok.md"]
        assert diagnostics[0].severity == "warning"

    # Python 3.13's Path.glob accepts the first two and names '.' for the
    # others, and 3.10-3.12's fails on '.' and './' in two ways; every
    # supported version refuses them all with 3.10-3.12's message for ''
    @pytest.mark.parametrize(
        "pattern, message",
        [
            ("a/**.md", "Invalid pattern: '**' can only be an entire path component"),
            ("**x/*.md", "Invalid pattern: '**' can only be an entire path component"),
            ("", "Unacceptable pattern: ''"),
            (".", "Unacceptable pattern: '.'"),
            ("./", "Unacceptable pattern: './'"),
            (".//.", "Unacceptable pattern: './/.'"),
        ],
    )
    def test_pattern_refused_before_globbing(self, tmp_path, pattern, message):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "x.md").write_text("x")
        with pytest.raises(TracegenError) as caught:
            scan_repository(tmp_path, ("**/*.md", pattern))
        assert str(caught.value) == f"unsupported glob pattern {pattern!r}: {message}"

    # Python 3.10's Path.glob drops a trailing '/' and selects files;
    # 3.11-3.13's selects only directories, so no file
    @pytest.mark.parametrize(
        "pattern", ["*.md/", "*/*.md/", "sub/*.md/", "**/", "*.md//", "*.md/./"])
    def test_trailing_separator_refused_on_every_python(self, tmp_path, pattern):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.md").write_text("b")
        (tmp_path / "a.md").write_text("a")
        with pytest.raises(TracegenError) as caught:
            scan_repository(tmp_path, ("**/*.md", pattern))
        assert str(caught.value) == (
            f"unsupported glob pattern {pattern!r}: a trailing '/' selects directories only")
        files, _ = scan_repository(tmp_path, (pattern.rstrip("/."),))
        assert files  # the same pattern without the separator selects files

    def test_absolute_pattern_with_double_star_is_refused_as_absolute(self, tmp_path):
        with pytest.raises(TracegenError, match="Non-relative patterns are unsupported"):
            scan_repository(tmp_path, ("/a/**.md",))


_LINE_TAGS = (
    '<treqs-element id="A" type="t">',
    '<treqs-link type="l" target="X" />',
    "</treqs-element>",
    "</treqs-element>",
    '<treqs-link type="l" />',
    '<treqs-element id="B" type="t">',
)


@pytest.mark.parametrize(
    "content",
    ["a\r\nb\r\n\r\nc\r\n", "one\ntwo\nno final newline", "", "\n", "\n\nx"],
)
def test_line_is_one_plus_newlines_before_the_tag(content):
    text = content + content.join(_LINE_TAGS) + content
    offsets, at = [], 0
    for tag in _LINE_TAGS:
        at = text.index(tag, at)
        offsets.append(at)
        at += len(tag)
    a, link, _, stray, bad_link, b = [1 + text.count("\n", 0, at) for at in offsets]
    elements, diagnostics = parse_file(src(text))
    assert [(e.uid, e.line, [l.line for l in e.links]) for e in elements] == [("A", a, [link])]
    assert [(d.message, d.line) for d in diagnostics] == [
        ("closing tag without matching opening tag", stray),
        ("link tag requires type and target attributes", bad_link),
        ("unclosed element block", b),
    ]


# Values and attribute texts for the tag-soup test: a link or an opening tag
# in the documented form takes the tag scan's own branch, every other form is
# read attribute by attribute; both must give what the reference parser gives.
_VALUES = ("R1", "a/b", "/", "a<b", "a>b", "a\nb", "", " ", "x y", "é", "a'b", "/>")
_SPACES = (" ", "  ", "\n", "\t", " \r\n ")
# mostly well-formed ids, and ones holding whitespace beyond " \t\n\r\f\v":
# the id check rejects them, so the documented branch must not read them
_IDS = ("E1", "E2", "E3", "é", "a/b", "a'b") * 3 + (
    "E\x1c", "E\x85F", "\xa0E", "E\u2003", "E\u3000", "", "x y", "a\nb", "a<b", "/>")
_PLACEMENTS = _VALUES + ("/p", "a", "/a~2", "/a~0b~1", "/a\n")


def _link_tag(rng):
    sp = lambda: rng.choice(_SPACES)  # noqa: E731
    value = lambda: rng.choice(_VALUES)  # noqa: E731
    kind = rng.randrange(12)
    if kind < 4:  # the documented form, with any whitespace
        return (f'<treqs-link{sp()}type="{value()}"{sp()}target="{value()}"'
                f'{rng.choice(("", sp()))}/>')
    return rng.choice((
        f'<treqs-link{sp()}target="{value()}"{sp()}type="{value()}" />',
        f'<treqs-link type="{value()}" target="{value()}" note="{value()}" />',
        f'<treqs-link id="L" type="{value()}" target="{value()}"/>',
        f'<treqs-link type="{value()}"target="{value()}" />',
        f'<treqs-link type="{value()}" type="{value()}" target="{value()}" />',
        f'<treqs-link type="{value()}" />',
        f'<treqs-link target="{value()}" type=x />',
        f'<treqs-link type="{value()}" target="{value()}">',
        f'<treqs-linkx type="{value()}" target="{value()}" />',
        f'<treqs-linktype="{value()}" target="{value()}" />',
        f"<treqs-link type='{value()}' target='{value()}' />",
        f'<treqs-link\ntype="{value()}"\ntarget="{value()}"\n/>',
    ))


def _open_tag(rng):
    sp = lambda: rng.choice(_SPACES)  # noqa: E731
    value = lambda: rng.choice(_VALUES)  # noqa: E731
    uid = lambda: rng.choice(_IDS)  # noqa: E731
    label = f'label="{rng.choice(_VALUES)}"'
    placement = f'placement="{rng.choice(_PLACEMENTS)}"'
    if rng.randrange(4):  # the documented order, with any whitespace
        return (f'<treqs-element{sp()}id="{uid()}"{sp()}type="{value()}"'
                f'{rng.choice(("", sp() + label))}{rng.choice(("", sp() + placement))}'
                f'{rng.choice(("", sp()))}>')
    return rng.choice((
        f'<treqs-element{sp()}type="{value()}"{sp()}id="{uid()}">',
        f'<treqs-element id="{uid()}" type="{value()}" {placement} {label}>',
        f'<treqs-element {label} id="{uid()}" type="{value()}">',
        f'<treqs-element id="{uid()}" type="{value()}" note="{value()}">',
        f'<treqs-element id="{uid()}" id="{uid()}" type="{value()}">',
        f'<treqs-element id="{uid()}"type="{value()}">',
        f'<treqs-element id="{uid()}" type="{value()}" {label} {label}>',
        f'<treqs-element id="{uid()}" type=t>',  # malformed: its links are dropped
        f'<treqs-element type="{value()}">',
        f'<treqs-element id="{uid()}">',
        f'<treqs-elementx id="{uid()}" type="t">',
        f"<treqs-element id='{uid()}' type='t'>",
        "<treqs-element>",
    ))


def _tag_soup(rng):
    parts = []
    for _ in range(rng.randint(0, 40)):
        kind = rng.randrange(10)
        if kind < 4:
            parts.append(_link_tag(rng))
        elif kind < 7:
            parts.append(_open_tag(rng))
        elif kind < 9:
            parts.append("</treqs-element>")
        else:
            parts.append(rng.choice(("prose", "\n", "a < b > c", '"q"', "/", "/>", "<", ">")))
        parts.append(rng.choice(("", "\n", " ", "\r\n")))
    return "".join(parts)


def test_tag_soup_matches_the_reference_parser():
    rng = random.Random(20240611)
    branches = dict.fromkeys(("documented link", "other link", "documented open", "other open"), 0)
    for _ in range(600):
        file = src(_tag_soup(rng))
        elements, diagnostics = parse_file(file)
        assert (elements, diagnostics) == oracles.parse_file(file), file.content
        for match in _TAG_RE.finditer(file.content):
            link_type, target, uid, element_type, label, placement, open_attrs, link_attrs = (
                match.groups())
            if open_attrs is not None or link_attrs is not None:
                branches["other open" if open_attrs is not None else "other link"] += 1
                continue
            if link_type is not None:
                branches["documented link"] += 1
                expected = {"type": link_type, "target": target}
            elif uid is not None:
                branches["documented open"] += 1
                expected = {"id": uid, "type": element_type, "label": label,
                            "placement": placement}
            else:  # a closing tag
                continue
            # the reference's attribute-by-attribute branch reads the same tag alike
            other = oracles._TAG_RE.match(file.content, match.start())
            assert other.end() == match.end()
            attrs, _ = oracles._parse_attrs(other.group(1) if uid else other.group(2))
            assert attrs == {k: v for k, v in expected.items() if v is not None}
    assert min(branches.values()) > 500, branches
