"""Judge a tracegen artifact against the generator's answer file.

The artifacts are read with a plain YAML safe loader or a line parser, never
with tracegen's own loaders, so a defect shared by the emitter and its
reader cannot hide. Each function returns a list of problems; an empty list
means the artifact is correct.
"""

from __future__ import annotations

import json
import re

import yaml

# Same semantics as yaml.safe_load; the libyaml build only loads faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_UNTARGETED = re.compile(r"configuration property (\S+) not derived from requirements")
_COMPONENT = re.compile(r'component "(.*)" as (\S+)')
_ARROW = re.compile(r"(\S+) --> (\S+) : (\S+)")
_LEGEND = re.compile(r"  (\S+): (.*) \((.*)\)")


def _same(a, b) -> bool:
    """JSON equality that tells true from 1 and 1.0 from 1."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def check_report(text: str, answer: dict) -> list[str]:
    expected = answer["check"]
    report = yaml.load(text, Loader=_LOADER)
    problems = []
    if report.get("passed") != expected["passed"]:
        problems.append(f"verdict {report.get('passed')} != {expected['passed']}")
    if report.get("counts") != expected["counts"]:
        problems.append(f"counts {report.get('counts')} != {expected['counts']}")
    got = sorted(([v["check_id"], v["severity"], v["subject_uid"]] for v in report["violations"]),
                 key=lambda v: (v[0], v[1], v[2] or ""))
    if got != expected["violations"]:
        problems.append("violation subjects differ from the planted defects")
    untargeted = sorted(m.group(1) for v in report["violations"]
                        if (m := _UNTARGETED.fullmatch(v["message"])))
    if untargeted != expected["untargeted"]:
        problems.append("untargeted config properties differ")
    return problems


def check_yaml(text: str, answer: dict) -> list[str]:
    doc = yaml.load(text, Loader=_LOADER)
    problems = []
    if set(doc) != {"config_schema", "optimizer_inputs"}:
        return [f"top-level keys {sorted(doc)}"]
    if not _same(doc["config_schema"], answer["config_schema"]):
        problems.append("config_schema is not the input config schema")
    records = doc["optimizer_inputs"]
    got = [[r["trace"][-1]["uid"], r["uid"], [t["uid"] for t in r["trace"]]] for r in records]
    if got != answer["records"]:
        return problems + [f"{len(got)} records differ from the {len(answer['records'])} expected"]
    links = {(s, t): lt for s, lt, t in answer["edges"]}
    for record in records:
        want = answer["inputs"][record["uid"]]
        trace = record["trace"]
        fields = (record["file_name"], record["label"], record["placement"], record["treqs_type"])
        if fields != (want["file"], want["label"], want["placement"], "OptimizerInput"):
            problems.append(f"{record['uid']}: fields {fields}")
        if not (_same(record["value"], want["value"]) and _same(record["schema"], want["schema"])):
            problems.append(f"{record['uid']}: value or schema differs")
        for i, step in enumerate(trace):
            if step["type"] != answer["nodes"][step["uid"]][0]:
                problems.append(f"{step['uid']}: type {step['type']}")
            link = links.get((trace[i + 1]["uid"], step["uid"])) if i + 1 < len(trace) else None
            if step.get("link_to_next") != link:
                problems.append(f"{step['uid']}: link_to_next {step.get('link_to_next')}")
        if len(problems) > 20:
            break
    return problems


def check_plantuml(text: str, answer: dict) -> list[str]:
    lines = text.split("\n")
    if lines[0] != "@startuml" or lines[-2:] != ["@enduml", ""]:
        return ["missing @startuml/@enduml frame"]
    uid_of, nodes, edges, legend = {}, [], [], []
    in_legend = False
    for line in lines[1:-2]:
        if line == "legend" or line == "endlegend":
            in_legend = line == "legend"
        elif in_legend and (m := _LEGEND.fullmatch(line)):
            legend.append([m.group(1), m.group(2), m.group(3)])
        elif m := _COMPONENT.fullmatch(line):
            parts = m.group(1).split("\\n")
            uid_of[m.group(2)] = parts[0]
            nodes.append(parts)
        elif m := _ARROW.fullmatch(line):
            source, target = (uid_of.get(m.group(i), m.group(i)) for i in (1, 2))
            edges.append([source, m.group(3), target])
        else:
            return [f"unparsed line {line!r}"]
    want_nodes = sorted([uid, *rest] for uid, rest in answer["nodes"].items())
    problems = []
    if sorted(nodes) != want_nodes:
        problems.append(f"{len(nodes)} nodes differ from the {len(want_nodes)} expected")
    if sorted(edges) != answer["edges"]:
        problems.append(f"{len(edges)} edges differ from the {len(answer['edges'])} expected")
    if legend != answer["legend"]:
        problems.append("legend differs")
    return problems
