import pytest

from tracegen.errors import TracegenError
from tracegen.ttim import default_extended_framework, parse_ttim

MINIMAL = """
node_types:
  - name: runtime-scenario
  - name: OptimizerInput
  - name: schema-type
link_types:
  - name: traces
    source: OptimizerInput
    target: schema-type
    required: true
special:
  scenario: runtime-scenario
  optimizer_input: OptimizerInput
  schema_type: schema-type
  schema_link: traces
"""


class TestLoad:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "ttim.yaml"
        path.write_text(MINIMAL)
        defn = parse_ttim(path.read_text())
        assert defn.schema_link == "traces"
        assert [(lt.name, lt.required) for lt in defn.link_types] == [("traces", True)]
        assert defn.node_types == ("runtime-scenario", "OptimizerInput", "schema-type")

    def test_dangling_source_type(self):
        text = MINIMAL.replace("source: OptimizerInput", "source: nonexistent")
        with pytest.raises(TracegenError, match="references undeclared node type 'nonexistent'"):
            parse_ttim(text)

    def test_missing_scenario_type(self):
        text = MINIMAL.replace("  - name: runtime-scenario\n", "")
        with pytest.raises(TracegenError, match="special node type 'runtime-scenario'"):
            parse_ttim(text)

    def test_unknown_top_level_key(self):
        with pytest.raises(TracegenError, match=r"unknown top-level key\(s\): \['extra_key'\]"):
            parse_ttim(MINIMAL + "\nextra_key: 1\n")

    def test_unknown_link_key(self):
        text = MINIMAL.replace("required: true", "required: true\n    color: red")
        with pytest.raises(TracegenError, match=r"unknown link type key\(s\): \['color'\]"):
            parse_ttim(text)

    def test_missing_special_key(self):
        text = MINIMAL.replace("  schema_link: traces\n", "")
        with pytest.raises(TracegenError, match="special map missing 'schema_link'"):
            parse_ttim(text)

    def test_schema_link_direction_enforced(self):
        text = MINIMAL.replace("source: OptimizerInput", "source: schema-type").replace(
            "target: schema-type", "target: OptimizerInput"
        )
        with pytest.raises(TracegenError, match="must accept 'OptimizerInput' sources"):
            parse_ttim(text)


class TestDefaultFramework:
    def test_node_type_count(self):
        assert len(default_extended_framework().node_types) == 6

    def test_schema_link_name(self):
        assert default_extended_framework().schema_link == "describedBy"

    def test_identical_across_calls(self):
        assert default_extended_framework() == default_extended_framework()

    def test_only_schema_link_required(self):
        defn = default_extended_framework()
        required = [lt.name for lt in defn.link_types if lt.required]
        assert required == ["describedBy"]

