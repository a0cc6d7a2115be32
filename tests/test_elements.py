import pytest

from tracegen.elements import (
    SourceFile,
    _line_starts,
    first_json_fence,
    parse_file,
    parse_json,
    scan_repository,
)
from tracegen.errors import InvalidJson, TracegenError


def src(content, path="doc.md"):
    return SourceFile(path=path, content=content)


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

    def test_missing_id_is_error(self):
        content = '<treqs-element type="requirement">\n</treqs-element>\n'
        elements, diagnostics = parse_file(src(content))
        assert elements == []
        (d,) = diagnostics
        assert d.severity == "error"
        assert d.line == 1

    def test_missing_type_is_error(self):
        elements, diagnostics = parse_file(src('<treqs-element id="A">\n</treqs-element>\n'))
        assert elements == []
        assert diagnostics[0].severity == "error"

    def test_duplicate_attribute_is_error(self):
        content = '<treqs-element id="A" id="B" type="requirement">\n</treqs-element>\n'
        elements, diagnostics = parse_file(src(content))
        assert elements == []
        assert "duplicate attribute" in diagnostics[0].message

    def test_unclosed_block_is_error(self):
        elements, diagnostics = parse_file(src('<treqs-element id="A" type="t">\nbody\n'))
        assert elements == []
        assert "unclosed" in diagnostics[0].message

    def test_whitespace_uid_rejected(self):
        elements, diagnostics = parse_file(
            src('<treqs-element id="A B" type="t">\n</treqs-element>\n')
        )
        assert elements == []
        assert diagnostics[0].severity == "error"

    def test_bad_placement_rejected(self):
        content = '<treqs-element id="A" type="t" placement="no-slash">\n</treqs-element>\n'
        elements, diagnostics = parse_file(src(content))
        assert elements == []
        assert "JSON Pointer" in diagnostics[0].message

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

    def test_link_outside_block_warns(self):
        elements, diagnostics = parse_file(src('<treqs-link type="l" target="X" />\n'))
        assert elements == []
        assert diagnostics[0].severity == "warning"

    def test_stray_closing_tag_is_error(self):
        _, diagnostics = parse_file(src("</treqs-element>\n"))
        assert diagnostics[0].severity == "error"

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
            ("[" * 100000, "maximum recursion depth exceeded"),
        ],
        ids=["nan", "minus-infinity", "1e400", "nested-overflow", "400-digit-float",
             "5000-digit-int", "deep"],
    )
    def test_beyond_rfc_8259_is_invalid(self, text, message):
        with pytest.raises(InvalidJson) as caught:
            parse_json(text)
        assert str(caught.value).startswith(message)

    def test_finite_extremes_parse(self):
        assert parse_json("[1e-400, 1.7976931348623157e308, " + "1" * 400 + "]") == [
            0.0, 1.7976931348623157e308, int("1" * 400)]


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

    def test_missing_root(self, tmp_path):
        with pytest.raises(TracegenError, match="repository root not found"):
            scan_repository(tmp_path / "nope", ("*.md",))

    def test_binary_file_skipped_with_warning(self, tmp_path):
        (tmp_path / "bin.md").write_bytes(b"\x00\xff\x00binary")
        (tmp_path / "ok.md").write_text("ok")
        files, diagnostics = scan_repository(tmp_path, ("*.md",))
        assert [f.path for f in files] == ["ok.md"]
        assert diagnostics[0].severity == "warning"


def _line_starts_loop(content):
    """Reference: the per-character loop _line_starts replaced."""
    starts = [0]
    for i, ch in enumerate(content):
        if ch == "\n":
            starts.append(i + 1)
    return starts


@pytest.mark.parametrize(
    "content",
    ["a\r\nb\r\n\r\nc\r\n", "one\ntwo\nno final newline", "", "\n", "\n\nx"],
)
def test_line_starts_matches_loop(content):
    assert _line_starts(content) == _line_starts_loop(content)
