"""Story diagrams: pattern validation, scope analysis, binding marks."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import signal

import pytest

from sdm.diagram import (
    ROOT_SCOPE,
    DiagramError,
    StoryPattern,
    analyze_scopes,
    diagram_from_dict,
    load_story_diagram,
    validate_binding_marks,
)
from sdm.graph import FormatError, PartialMorphism

from .builders import (
    FIXTURES,
    graph_of,
    joining_cfg,
    ll_noop,
    pattern_of,
    rule_of,
    seq_cfg,
    story_diagram,
    while_cfg,
)
from .conftest import linked_list_tg, zoo_tg


# -- StoryPattern invariants -------------------------------------------------


def _two_node_rule(tg):
    return rule_of(
        tg,
        "keep-pair",
        {"t": "Object", "q": "Object"},
        [("e1", "next", "t", "q")],
        {"t": "Object", "q": "Object"},
        [("e1", "next", "t", "q")],
    )


def test_pattern_requires_a_name_for_every_node(list_tg):
    rule = _two_node_rule(list_tg)
    with pytest.raises(DiagramError, match="variable name"):
        StoryPattern(rule, {"t": "this"}, {"t": "this", "q": "q"}, frozenset())


def test_pattern_rejects_renaming_a_preserved_node(list_tg):
    rule = _two_node_rule(list_tg)
    with pytest.raises(DiagramError, match="renamed"):
        StoryPattern(
            rule,
            {"t": "this", "q": "before"},
            {"t": "this", "q": "after"},
            frozenset(),
        )


def test_pattern_rejects_duplicate_variable_names(list_tg):
    rule = _two_node_rule(list_tg)
    with pytest.raises(DiagramError, match="duplicate"):
        StoryPattern(
            rule, {"t": "x", "q": "x"}, {"t": "x", "q": "x"}, frozenset()
        )


def test_pattern_rejects_created_name_shadowing_lhs(list_tg):
    rule = rule_of(
        list_tg,
        "grow",
        {"t": "Object"},
        [],
        {"t": "Object", "w": "Object"},
        [("e1", "next", "t", "w")],
    )
    with pytest.raises(DiagramError, match="shadows"):
        StoryPattern(rule, {"t": "x"}, {"t": "x", "w": "x"}, frozenset())


def test_pattern_rejects_bound_mark_on_created_variable(list_tg):
    rule = _two_node_rule(list_tg)
    with pytest.raises(DiagramError, match="bound"):
        StoryPattern(
            rule,
            {"t": "this", "q": "q"},
            {"t": "this", "q": "q"},
            frozenset({"ghost"}),
        )


def test_pattern_name_queries(list_tg):
    rule = rule_of(
        list_tg,
        "swap-follower",
        {"t": "Object", "n": "Object"},
        [("e1", "next", "t", "n")],
        {"t": "Object", "w": "Object"},
        [("e2", "next", "t", "w")],
    )
    pat = StoryPattern(
        rule,
        {"t": "this", "n": "old"},
        {"t": "this", "w": "fresh"},
        frozenset({"this"}),
    )
    assert pat.deleted_names() == ["old"]
    assert pat.created_names() == ["fresh"]
    assert [n for n, name in pat.lhs_names.items() if name == "old"] == ["n"]
    assert pat.var_types() == {"this": "Object", "old": "Object", "fresh": "Object"}


# -- scope analysis ----------------------------------------------------------


def test_single_story_node_has_one_root_template(list_tg):
    d = story_diagram(list_tg, seq_cfg("story"), {"story": ll_noop(list_tg)})
    tree = analyze_scopes(d)
    assert set(tree.templates) == {ROOT_SCOPE}
    assert tree.root.members == ["story"]
    assert tree.node_template["story"] == ROOT_SCOPE
    assert "this" in tree.root.declared


def test_joining_conditional_gets_two_child_templates(list_tg):
    noop = ll_noop(list_tg)
    d = story_diagram(
        list_tg,
        joining_cfg(),
        {"cond": noop, "branch": noop, "join": noop},
    )
    tree = analyze_scopes(d)
    assert set(tree.templates) == {ROOT_SCOPE, "cond:success", "cond:failure"}
    assert tree.node_template["join"] == ROOT_SCOPE
    assert tree.templates["cond:success"].members == ["branch"]
    assert tree.templates["cond:failure"].members == []
    assert tree.templates["cond:success"].parent == ROOT_SCOPE


def test_loop_head_gets_an_empty_exit_template(list_tg):
    noop = ll_noop(list_tg)
    d = story_diagram(
        list_tg,
        while_cfg(),
        {"head": noop, "body": noop, "tail": noop},
    )
    tree = analyze_scopes(d)
    assert tree.templates["head:success"].members == ["body"]
    assert tree.templates["head:failure"].members == []
    assert tree.node_template["tail"] == ROOT_SCOPE


def test_delete_next_object_scope_tree_shape():
    d = load_story_diagram(str(FIXTURES / "delete_next_object.diagram.json"))
    tree = analyze_scopes(d)
    assert set(tree.templates) == {
        ROOT_SCOPE,
        "hasTwo:success",
        "hasTwo:failure",
        "hasOne:success",
        "hasOne:failure",
    }
    assert tree.templates["hasOne:success"].parent == "hasTwo:failure"
    assert tree.node_template["addNext"] == "hasTwo:failure"
    assert tree.node_template["unlink"] == "hasTwo:success"
    # nesting levels: root, outer branches, inner branches
    assert max(len(tree.chain(t)) for t in tree.templates) == 3


@contextlib.contextmanager
def _deadline(seconds: float):
    """Turn a hang into a failure: raise TimeoutError after the given time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _with_branches(d, members):
    cls = dataclasses.replace(d.classification, branch_members=members)
    return dataclasses.replace(d, classification=cls)


def test_a_conditional_in_its_own_branch_is_rejected(list_tg):
    # scope templates hang off the branch holding their conditional, so
    # a conditional inside its own branch would be its own ancestor
    noop = ll_noop(list_tg)
    d = story_diagram(
        list_tg, joining_cfg(), {"cond": noop, "branch": noop, "join": noop}
    )
    looped = {"cond": {"success": {"cond", "branch"}, "failure": set()}}
    with _deadline(2), pytest.raises(DiagramError, match="in its own branch"):
        _with_branches(d, looped)


def test_conditionals_in_each_others_branches_are_rejected():
    d = load_story_diagram(str(FIXTURES / "delete_next_object.diagram.json"))
    crossed = {
        "hasOne": {"success": {"hasTwo"}, "failure": set()},
        "hasTwo": {"success": set(), "failure": {"hasOne"}},
    }
    with _deadline(2), pytest.raises(DiagramError, match="cycle"):
        _with_branches(d, crossed)


def test_variables_declared_at_first_occurrence():
    d = load_story_diagram(str(FIXTURES / "delete_next_object.diagram.json"))
    tree = analyze_scopes(d)
    # next and nextNext first occur at hasTwo, which sits in the root
    assert set(tree.root.declared) == {"this", "next", "nextNext"}
    assert set(tree.templates["hasTwo:failure"].declared) == {"newNext"}
    assert tree.resolve("hasOne:success", "next").scope == ROOT_SCOPE
    assert tree.resolve(ROOT_SCOPE, "newNext") is None


def test_same_name_same_type_resolves_to_the_ancestor(list_tg):
    noop = ll_noop(list_tg)
    bind = pattern_of(
        rule_of(
            list_tg,
            "find-q",
            {"t": "Object", "q": "Object"},
            [("e1", "next", "t", "q")],
            {"t": "Object", "q": "Object"},
            [("e1", "next", "t", "q")],
        ),
        {"t": "this", "q": "q"},
        {"this"},
    )
    d = story_diagram(
        list_tg,
        joining_cfg(),
        {"cond": bind, "branch": bind, "join": noop},
    )
    tree = analyze_scopes(d)
    assert set(tree.templates["cond:success"].declared) == set()
    assert tree.resolve("cond:success", "q").scope == ROOT_SCOPE


def test_shadowing_with_a_different_type_is_rejected():
    tg = zoo_tg()
    cond = pattern_of(
        rule_of(tg, "see-cat", {"c": "Cat"}, [], {"c": "Cat"}, []),
        {"c": "pet"},
    )
    branch = pattern_of(
        rule_of(tg, "see-dog", {"d": "Dog"}, [], {"d": "Dog"}, []),
        {"d": "pet"},
    )
    join = pattern_of(
        rule_of(tg, "any", {"a": "Animal"}, [], {"a": "Animal"}, []),
        {"a": "somebody"},
    )
    with pytest.raises(DiagramError, match="shadows"):
        story_diagram(
            tg,
            joining_cfg(),
            {"cond": cond, "branch": branch, "join": join},
            params=[("this", "Animal")],
        )


def test_scope_tree_is_stable_under_node_renaming(list_tg):
    noop = ll_noop(list_tg)

    def shape(tree, renaming):
        return {
            (
                renaming.get(t.conditional, t.conditional),
                t.polarity,
                tuple(sorted(renaming.get(m, m) for m in t.members)),
                tuple(sorted(t.declared)),
            )
            for t in tree.templates.values()
        }

    d1 = story_diagram(
        list_tg, joining_cfg(), {"cond": noop, "branch": noop, "join": noop}
    )
    renaming = {"cond": "zc", "branch": "zb", "join": "zj"}
    cfg_renamed = graph_of(
        d1.cfg.tg,
        {renaming.get(n, n): t for n, t in d1.cfg.nodes.items()},
        [
            (eid, e.type, renaming.get(e.src, e.src), renaming.get(e.trg, e.trg))
            for eid, e in sorted(d1.cfg.edges.items())
        ],
    )
    d2 = story_diagram(
        list_tg, cfg_renamed, {"zc": noop, "zb": noop, "zj": noop}
    )
    back = {v: k for k, v in renaming.items()}
    assert shape(analyze_scopes(d1), {}) == shape(analyze_scopes(d2), back)


# -- binding marks -----------------------------------------------------------


def test_this_bound_in_the_first_node_is_ok(list_tg):
    d = story_diagram(list_tg, seq_cfg("story"), {"story": ll_noop(list_tg)})
    assert validate_binding_marks(d).ok


def _bind_q(tg, bound=("this",)):
    return pattern_of(
        rule_of(
            tg,
            "find-q",
            {"t": "Object", "q": "Object"},
            [("e1", "next", "t", "q")],
            {"t": "Object", "q": "Object"},
            [("e1", "next", "t", "q")],
        ),
        {"t": "this", "q": "q"},
        set(bound),
    )


def _use_q_bound(tg):
    return pattern_of(
        rule_of(tg, "use-q", {"q": "Object"}, [], {"q": "Object"}, []),
        {"q": "q"},
        {"q"},
    )


def test_branch_only_binding_is_not_bound_after_the_join(list_tg):
    from sdm.syntax import classify_nodes, validate_control_flow
    from sdm.diagram import StoryDiagram

    cfg = joining_cfg()
    patterns = {
        "cond": ll_noop(list_tg),
        "branch": _bind_q(list_tg),
        "join": _use_q_bound(list_tg),
    }
    verdict = validate_control_flow(cfg)
    d = StoryDiagram(
        list_tg,
        cfg,
        patterns,
        [("this", "Object")],
        verdict,
        classify_nodes(cfg, verdict),
    )
    report = validate_binding_marks(d)
    assert not report.ok
    assert any("'q'" in v and "'join'" in v for v in report.violations)


def test_conditional_match_counts_only_along_success(list_tg):
    from sdm.syntax import classify_nodes, validate_control_flow
    from sdm.diagram import StoryDiagram

    cfg = joining_cfg()
    # cond itself binds q, so q is bound in the success branch but the
    # join is also reachable along failure where q never matched
    patterns = {
        "cond": _bind_q(list_tg),
        "branch": _use_q_bound(list_tg),
        "join": _use_q_bound(list_tg),
    }
    verdict = validate_control_flow(cfg)
    d = StoryDiagram(
        list_tg,
        cfg,
        patterns,
        [("this", "Object")],
        verdict,
        classify_nodes(cfg, verdict),
    )
    report = validate_binding_marks(d)
    assert not report.ok
    violations = "\n".join(report.violations)
    assert "'join'" in violations and "'branch'" not in violations


def test_deleted_variable_is_unbound_downstream(list_tg):
    from sdm.syntax import classify_nodes, validate_control_flow
    from sdm.diagram import StoryDiagram

    delete_q = pattern_of(
        rule_of(
            list_tg,
            "drop-q",
            {"t": "Object", "q": "Object"},
            [],
            {"t": "Object"},
            [],
        ),
        {"t": "this", "q": "q"},
        {"this", "q"},
    )
    cfg = seq_cfg("a", "b", "c")
    patterns = {
        "a": _bind_q(list_tg),
        "b": delete_q,
        "c": _use_q_bound(list_tg),
    }
    verdict = validate_control_flow(cfg)
    d = StoryDiagram(
        list_tg,
        cfg,
        patterns,
        [("this", "Object")],
        verdict,
        classify_nodes(cfg, verdict),
    )
    report = validate_binding_marks(d)
    assert not report.ok


def test_inner_conditional_rematching_unbound_is_ok():
    d = load_story_diagram(str(FIXTURES / "delete_next_object.diagram.json"))
    # hasOne re-matches `next` unbound even though hasTwo also names it
    assert "next" not in d.pattern_at("hasOne").bound
    assert validate_binding_marks(d).ok


# -- loading and file-level validation ---------------------------------------


def test_minimal_fixture_loads():
    d = load_story_diagram(str(FIXTURES / "minimal.diagram.json"))
    assert set(d.patterns) == {"story"}
    assert d.params == [("this", "Object")]


def test_invalid_cfg_fixture_is_rejected():
    with pytest.raises(DiagramError, match="invalid"):
        load_story_diagram(str(FIXTURES / "invalid_cfg.diagram.json"))


def test_malformed_file_is_a_format_error():
    with pytest.raises(FormatError):
        load_story_diagram(str(FIXTURES / "malformed.json"))


def _minimal_dict():
    with open(FIXTURES / "minimal.diagram.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_missing_top_level_key_is_a_format_error():
    data = _minimal_dict()
    del data["params"]
    with pytest.raises(FormatError, match="params"):
        diagram_from_dict(data)


def test_params_must_be_exactly_this():
    data = _minimal_dict()
    data["params"] = []
    with pytest.raises(DiagramError, match="this"):
        diagram_from_dict(data)
    data["params"] = [
        {"name": "this", "type": "Object"},
        {"name": "other", "type": "Object"},
    ]
    with pytest.raises(DiagramError, match="this"):
        diagram_from_dict(data)


def test_this_type_must_exist_in_the_model_type_graph():
    data = _minimal_dict()
    data["params"] = [{"name": "this", "type": "Ghost"}]
    with pytest.raises(DiagramError, match="Ghost"):
        diagram_from_dict(data)


def test_pattern_on_unknown_or_non_story_node():
    data = _minimal_dict()
    data["patterns"][0]["node"] = "nowhere"
    with pytest.raises(DiagramError, match="unknown node"):
        diagram_from_dict(data)
    data["patterns"][0]["node"] = "stop"
    with pytest.raises(DiagramError, match="not a story node"):
        diagram_from_dict(data)


def test_every_story_node_needs_a_pattern():
    data = _minimal_dict()
    data["patterns"] = []
    with pytest.raises(DiagramError, match="without patterns"):
        diagram_from_dict(data)


def test_two_patterns_for_one_node_are_rejected():
    data = _minimal_dict()
    data["patterns"].append(data["patterns"][0])
    with pytest.raises(DiagramError, match="two patterns"):
        diagram_from_dict(data)


def test_bound_mark_violations_fail_the_load():
    data = _minimal_dict()
    # q is marked bound but nothing ever binds it
    data["patterns"][0]["rule"]["lhs"]["nodes"].append(
        {"id": "q", "type": "Object"}
    )
    data["patterns"][0]["rule"]["rhs"]["nodes"].append(
        {"id": "q", "type": "Object"}
    )
    data["patterns"][0]["rule"]["map"].append({"l": "q", "r": "q"})
    data["patterns"][0]["vars"].append(
        {"elem": "q", "name": "q", "bound": True}
    )
    with pytest.raises(DiagramError, match="marked bound"):
        diagram_from_dict(data)
