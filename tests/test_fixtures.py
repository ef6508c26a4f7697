"""The committed fixtures and exported rule files stay loadable and current."""

from __future__ import annotations

import json

import pytest

from sdm.diagram import load_story_diagram
from sdm.graph import parse_graph
from sdm.syntax import export_rules, syntax_rules

from .builders import FIXTURES, RULES_DIR

DIAGRAMS = [
    "minimal.diagram.json",
    "two_node_seq.diagram.json",
    "delete_next_object.diagram.json",
    "while_star.diagram.json",
    "join_policy.diagram.json",
    "nested_loop_join.diagram.json",
]

MODELS = [
    "single.model.json",
    "pair.model.json",
    "list1.model.json",
    "list2.model.json",
    "list3.model.json",
    "list4.model.json",
    "list5.model.json",
    "star5.model.json",
]


@pytest.mark.parametrize("name", DIAGRAMS)
def test_diagram_fixture_loads_and_validates(name):
    d = load_story_diagram(FIXTURES / name)
    assert d.validation.ok
    assert d.params == [("this", "Object")]


@pytest.mark.parametrize("name", MODELS)
def test_model_fixture_parses_over_the_diagram_type_graph(name):
    d = load_story_diagram(FIXTURES / "minimal.diagram.json")
    g = parse_graph((FIXTURES / name).read_text(encoding="utf-8"), d.tg)
    assert g.nodes


def test_committed_rule_files_match_a_fresh_export(tmp_path):
    export_rules(tmp_path)
    fresh = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()}
    committed = {
        p.name: p.read_text(encoding="utf-8") for p in RULES_DIR.iterdir()
    }
    assert sorted(fresh) == sorted(committed)
    for name in fresh:
        assert fresh[name] == committed[name], name


def test_rule_files_cover_the_grammar():
    names = {r.name for r in syntax_rules()}
    files = {p.stem for p in RULES_DIR.glob("*.json")}
    assert files == names == {
        json.loads(p.read_text(encoding="utf-8"))["name"]
        for p in RULES_DIR.glob("*.json")
    }
    assert len(names) == 16
