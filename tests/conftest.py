import json
from pathlib import Path

import pytest

from tracegen.elements import RawElement, RawLink

ETH_SCHEMA = {"type": "number", "minimum": 0, "unit": "milliseconds"}
MODEL_SCHEMA = {"type": "number", "minimum": 0, "unit": "milliseconds"}

CONFIG_SCHEMA = {
    "type": "object",
    "description": "Target system runtime configuration",
    "properties": {
        "ethernet_latency": ETH_SCHEMA,
        "model_latency": MODEL_SCHEMA,
    },
    "required": ["ethernet_latency", "model_latency"],
}


# the built-in meta-model in the --ttim layout; a node type's description is
# accepted and ignored
DEFAULT_TTIM = """
node_types:
  - name: runtime-scenario
    description: the root of every trace path
  - name: abstraction-level
  - name: requirement
  - name: design-decision
  - name: OptimizerInput
  - name: schema-type
link_types:
  - {name: refines, source: requirement, target: requirement}
  - {name: addresses, source: requirement, target: abstraction-level}
  - {name: scopes, source: runtime-scenario, target: abstraction-level}
  - {name: contains, source: abstraction-level, target: requirement}
  - {name: realizes, source: requirement, target: OptimizerInput}
  - {name: describedBy, source: OptimizerInput, target: schema-type, required: true}
special:
  scenario: runtime-scenario
  optimizer_input: OptimizerInput
  schema_type: schema-type
  schema_link: describedBy
"""


def repo_files(oi_eth_value="20", extra_requirements=""):
    """File contents for the canonical fixture repository: one scenario with
    two branches ending in ethernet-latency and model-latency inputs."""
    return {
        "scenarios.md": f"""# Runtime scenarios

<treqs-element id="RS1" type="runtime-scenario" label="Night driving">
Matches the compact detector model to night-time highway deployment.
<treqs-link type="scopes" target="AL1" />
</treqs-element>
""",
        "architecture.md": """# Deployment view

<treqs-element id="AL1" type="abstraction-level" label="Deployment view">
Latency-critical components of the perception pipeline.
<treqs-link type="contains" target="REQ_ETH" />
<treqs-link type="contains" target="REQ_MODEL" />
</treqs-element>
""",
        "requirements.md": f"""# Requirements

<treqs-element id="REQ_ETH" type="requirement" label="Network latency bound">
Camera frames shall reach the inference node within the ethernet budget.
<treqs-link type="realizes" target="OI_ETH" />
</treqs-element>

<treqs-element id="REQ_MODEL" type="requirement" label="Model latency bound">
The detector shall produce a result within the model latency budget.
<treqs-link type="realizes" target="OI_MODEL" />
</treqs-element>
{extra_requirements}
""",
        "optimizer.md": f"""# Optimizer inputs

<treqs-element id="OI_ETH" type="OptimizerInput" label="Ethernet latency" placement="/properties/ethernet_latency">
```json
{oi_eth_value}
```
<treqs-link type="describedBy" target="ST_ETH" />
</treqs-element>

<treqs-element id="OI_MODEL" type="OptimizerInput" label="Model latency" placement="/properties/model_latency">
```json
50
```
<treqs-link type="describedBy" target="ST_MODEL" />
</treqs-element>

<treqs-element id="ST_ETH" type="schema-type" label="Ethernet latency schema">
```json
{json.dumps(ETH_SCHEMA)}
```
</treqs-element>

<treqs-element id="ST_MODEL" type="schema-type" label="Model latency schema">
```json
{json.dumps(MODEL_SCHEMA)}
```
</treqs-element>
""",
    }


def write_repo(root: Path, files: dict, config_schema=CONFIG_SCHEMA):
    """Materialize a fixture repository plus its config schema file."""
    repo = root / "repo"
    repo.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (repo / name).write_text(content, encoding="utf-8")
    schema_path = root / "config_schema.json"
    schema_path.write_text(json.dumps(config_schema, indent=2), encoding="utf-8")
    return repo, schema_path


@pytest.fixture
def fig_repo(tmp_path):
    """Canonical scenario-with-two-branches repository on disk."""
    return write_repo(tmp_path, repo_files())


def mk_element(uid, element_type, links=(), body="", placement=None, label=None,
               file="mem.md", line=1):
    """In-memory RawElement builder for graph-level tests."""
    return RawElement(
        uid=uid,
        element_type=element_type,
        label=label,
        placement=placement,
        body=body,
        links=tuple(
            RawLink(link_type=lt, target_uid=target, line=line)
            for lt, target in links
        ),
        file=file,
        line=line,
    )


def nested(depth, leaf=1):
    """A JSON value ``depth`` containers deep, objects and arrays in turn."""
    value = leaf
    for level in range(depth):
        value = {"a": value} if level % 2 else [value]
    return value
