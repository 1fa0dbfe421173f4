"""SARIF 2.1.0 output: schema validity and content fidelity.

The full OASIS schema is not vendored (no network in CI), so
``SARIF_2_1_0_SUBSET`` below is a hand-transcribed subset of
`sarif-schema-2.1.0.json` covering every construct the renderer emits —
required log/run/result properties, the rule-descriptor shape, and the
physical-location region.  It is deliberately strict
(``additionalProperties: false`` on the objects we emit) so a renderer
regression fails validation rather than sliding past a looser check.
"""

import json

import pytest

jsonschema = pytest.importorskip("jsonschema")

from repro.lint import lint_project, render_sarif
from repro.lint.engine import SARIF_SCHEMA_URI

SARIF_2_1_0_SUBSET = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "additionalProperties": False,
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "additionalProperties": False,
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"}
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": "string"
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


@pytest.fixture
def document(fixtures):
    findings = lint_project(
        [str(fixtures / "bad_floats.py")], select=["RL005"]
    ).findings
    assert findings, "fixture must produce findings"
    return json.loads(render_sarif(findings))


class TestSarifValidity:
    def test_validates_against_the_2_1_0_schema(self, document):
        jsonschema.validate(document, SARIF_2_1_0_SUBSET)

    def test_empty_report_is_also_valid(self):
        empty = json.loads(render_sarif([]))
        jsonschema.validate(empty, SARIF_2_1_0_SUBSET)
        assert empty["runs"][0]["results"] == []

    def test_schema_pointer_is_pinned(self, document):
        assert document["$schema"] == SARIF_SCHEMA_URI


class TestSarifContent:
    def test_every_rule_is_described_even_unfired_ones(self, document):
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        ids = [rule["id"] for rule in rules]
        # Every rule's descriptor ships so viewers can label any run.
        assert ids == sorted(ids)
        assert ids == [
            "RL000", "RL001", "RL003", "RL004", "RL005", "RL006", "RL008", "RL011"
        ]

    def test_rule_index_points_at_the_matching_descriptor(self, document):
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_locations_are_one_based_posix(self, document):
        for result in document["runs"][0]["results"]:
            location = result["locations"][0]["physicalLocation"]
            assert "\\" not in location["artifactLocation"]["uri"]
            region = location["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1
