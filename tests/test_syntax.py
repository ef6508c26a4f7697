"""Control-flow grammar: rule set, membership, classification."""

from __future__ import annotations

import inspect
import itertools
import json
import random
import sys

import pytest

import sdm.syntax
from sdm.cli import main
from sdm.diagram import load_story_diagram
from sdm.graph import (
    GraphBuilder,
    GraphError,
    IsoSet,
    find_isomorphism,
    iso_signature,
    validate_typing,
)
from sdm.rewrite import apply_rule, enumerate_language, find_matches, rule_from_dict
from sdm.syntax import (
    CF_NODE,
    COND_JOINING,
    COND_NONJOINING,
    FAILURE,
    KIND_JOINING,
    KIND_NONJOINING,
    KIND_SEQUENTIAL,
    KIND_WHILE,
    LOOP_HEAD_FAILURE,
    LOOP_HEAD_SUCCESS,
    NEXT,
    SEQUENTIAL,
    START_NODE,
    STOP_NODE,
    SUCCESS,
    SYNTAX_TYPE_GRAPH,
    CfgValidation,
    DerivationStep,
    branch_targets,
    classify_nodes,
    export_rules,
    next_target,
    rule_kinds,
    start_graph,
    syntax_grammar,
    syntax_rules,
    validate_control_flow,
)

from .builders import CFG_SHAPES, FIXTURES, cfg_of_shape, redirect_next_edge
from .conftest import linked_list_tg, make_list, reordered
from .oracles import (
    reference_classify_nodes,
    reference_enumerate_language,
    reference_validate_control_flow,
    replay_derivation,
)


def _apply_at(g, rule_name, a, b):
    rule = {r.name: r for r in syntax_rules()}[rule_name]
    matches = find_matches(rule, g, partial={"a": a, "b": b})
    assert len(matches) == 1
    return apply_rule(rule, matches[0], g).result


def test_rule_count_and_kind_partition():
    rules = syntax_rules()
    assert len(rules) == 16
    assert len({r.name for r in rules}) == 16
    kinds = rule_kinds()
    counts = {k: sum(1 for v in kinds.values() if v == k) for k in set(kinds.values())}
    assert counts == {
        KIND_SEQUENTIAL: 1,
        KIND_JOINING: 1,
        KIND_NONJOINING: 4,
        KIND_WHILE: 10,
    }


def test_every_rule_shares_the_edge_lhs_and_only_grows():
    for rule in syntax_rules():
        assert set(rule.lhs.nodes) == {"a", "b"}
        assert set(rule.lhs.edges) == {"ab"}
        assert rule.lhs.edges["ab"].type == NEXT
        assert rule.deleted_lhs_nodes() == []
        assert rule.mapping.edge_map == {}  # the matched edge is always consumed
        assert len(rule.rhs.nodes) > 2  # at least one created node


def test_mirrored_rules_swap_edge_polarity():
    by_name = {r.name: r for r in syntax_rules()}
    fwd = by_name["branch-failure-stop"]
    mir = by_name["branch-success-stop"]
    count = lambda r, t: sum(1 for e in r.rhs.edges.values() if e.type == t)
    assert count(fwd, FAILURE) == count(mir, SUCCESS)
    assert count(fwd, SUCCESS) == count(mir, FAILURE)
    assert count(fwd, NEXT) == count(mir, NEXT)


def test_start_graph_shape():
    g = start_graph()
    assert len(g.nodes) == 3
    assert len(g.edges) == 2
    assert validate_typing(g, SYNTAX_TYPE_GRAPH).ok


@pytest.mark.parametrize(
    "name,nodes,edges",
    [
        ("insert-node", 4, 3),
        ("if-then", 5, 5),
        ("branch-failure-stop", 5, 4),
        ("branch-success-node-stop", 6, 5),
        ("while-success-direct", 4, 4),
        ("while-failure-body-two", 6, 6),
    ],
)
def test_rule_application_sizes(name, nodes, edges):
    g = _apply_at(start_graph(), name, "start", "story")
    assert len(g.nodes) == nodes
    assert len(g.edges) == edges


def test_every_rule_yields_a_member_graph():
    kinds = rule_kinds()
    for rule in syntax_rules():
        g = _apply_at(start_graph(), rule.name, "start", "story")
        verdict = validate_control_flow(g)
        assert verdict.ok, f"{rule.name}: {verdict.reason}"
        assert len(verdict.derivation) == 1
        # witnesses need not name the same rule (mirror-pair results can
        # coincide up to isomorphism) but must stay in the same category
        # and rebuild an isomorphic graph
        witness = verdict.derivation[0].rule
        assert kinds[witness] == kinds[rule.name]
        assert find_isomorphism(replay_derivation(verdict), g)


def test_language_bound_three_is_just_the_start_graph():
    result = enumerate_language(syntax_grammar(), 3)
    assert len(result.graphs) == 1
    assert find_isomorphism(result.graphs[0], start_graph())


def test_language_bound_four():
    result = enumerate_language(syntax_grammar(), 4)
    # the 4-node chain plus four one-node loop placements plus the start graph
    assert len(result.graphs) == 6
    chain = _apply_at(start_graph(), "insert-node", "start", "story")
    assert chain in result.members
    other_chain = _apply_at(start_graph(), "insert-node", "story", "stop")
    assert find_isomorphism(chain, other_chain)


@pytest.mark.parametrize("bound", [4, 5, 6])
def test_enumeration_equals_the_unpruned_reference(bound):
    # skipping rules whose results exceed the bound drops nothing
    got = enumerate_language(syntax_grammar(), bound)
    want = reference_enumerate_language(syntax_grammar(), bound)
    assert [g.to_dict() for g in got.graphs] == [g.to_dict() for g in want.graphs]
    assert got.warnings == want.warnings


def test_validator_equals_the_unpinned_reference():
    # the anchored search must try the same exact matches in the same
    # order, so verdict, witness and base graph are all unchanged
    members = enumerate_language(syntax_grammar(), 6).graphs
    rng = random.Random(6)
    graphs = members + [redirect_next_edge(rng, g) for g in members]
    for shape in CFG_SHAPES:
        graphs.append(cfg_of_shape(shape, 21).build())
        graphs.append(cfg_of_shape(shape, 21).mutate().build())
    verdicts = set()
    for g in graphs:
        got, want = validate_control_flow(g), reference_validate_control_flow(g)
        assert (got.ok, got.reason) == (want.ok, want.reason)
        assert got.derivation == want.derivation
        assert got.base == want.base
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_validation_keeps_its_search_path_off_the_call_stack():
    # a chain of n story nodes needs n - 1 reductions in a row; with the
    # recursion limit a few dozen frames above this test, each of them
    # must not cost a Python frame
    chain = cfg_of_shape("chain", 120).build()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        verdict = validate_control_flow(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.ok
    assert len(verdict.derivation) == len(chain.nodes) - 3


def _shapes_and_mutants(sizes) -> list:
    return [
        grown.build()
        for shape in CFG_SHAPES
        for size in sizes
        for grown in (cfg_of_shape(shape, size), cfg_of_shape(shape, size).mutate())
    ]


def test_validation_ignores_insertion_order():
    # signature buckets list a state's nodes in dict order; only the sort of
    # each rule's exact matches keeps the witness independent of it
    rng = random.Random(13)
    verdicts = set()
    for g in _shapes_and_mutants(range(7, 14)):
        got, want = validate_control_flow(reordered(rng, g)), validate_control_flow(g)
        assert (got.ok, got.reason, got.base) == (want.ok, want.reason, want.base)
        assert got.derivation == want.derivation
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_validation_builds_each_plan_once_and_indexes_each_state_once(
    monkeypatch, plan_builds
):
    # counts, not timings, guard the reduction's hot path against per-call
    # set-up: one plan per search copy for the whole process, one signature
    # computation per search state, and a matcher call only where a node
    # carries the rule's anchor signature
    anchors = {
        id(copy): (ids[created[0]], wanted[created[0]])
        for _, created, wanted, _, _, copy, ids in sdm.syntax._inverse_rules()
    }
    indexed, calls = [], []
    node_signatures = sdm.syntax.node_signatures
    enumerate_monos = sdm.syntax._enumerate_monos

    def counted_signatures(g):
        indexed.append(g)
        return node_signatures(g)

    def counted_monos(pattern, host, forced_nodes):
        calls.append((pattern, host, forced_nodes))
        return enumerate_monos(pattern, host, forced_nodes)

    monkeypatch.setattr(sdm.syntax, "node_signatures", counted_signatures)
    monkeypatch.setattr(sdm.syntax, "_enumerate_monos", counted_monos)
    graphs = _shapes_and_mutants(range(7, 22))
    for copy_plans in (range(17), range(1)):
        for counts in (plan_builds, indexed, calls):
            counts.clear()
        verdicts = {validate_control_flow(g).ok for g in graphs}
        assert verdicts == {True, False}
        assert sum(id(pattern) in anchors for pattern in plan_builds) in copy_plans
        states = {id(g) for g in indexed}
        assert len(states) == len(indexed)
        assert calls
        for pattern, host, forced_nodes in calls:
            assert id(host) in states
            anchor, wanted = anchors[id(pattern)]
            assert [anchor] == list(forced_nodes)
            assert node_signatures(host)[forced_nodes[anchor]] == wanted


def _small_cfg(types, links):
    b = GraphBuilder(SYNTAX_TYPE_GRAPH)
    for i, ntype in enumerate(types):
        b.node(f"v{i}", ntype)
    for k, (etype, src, trg) in enumerate(links):
        b.edge(f"x{k}", etype, f"v{src}", f"v{trg}")
    return b.build()


def test_start_check_equals_the_isomorphism_reference():
    # the validator reads the start graph off a three-node state's two
    # edges; the reference decides by isomorphism, on graphs built to
    # look like the start graph by counts, types or signatures
    kinds = (START_NODE, CF_NODE, STOP_NODE)
    loop = _small_cfg(kinds[::2] + kinds[1:2], [(NEXT, 0, 1), (NEXT, 2, 2)])
    assert iso_signature(loop) == iso_signature(start_graph())
    chain = [(NEXT, 0, 1), (NEXT, 1, 2)]
    hostile = [
        loop,
        _small_cfg(kinds[:1], []),
        _small_cfg(kinds[:2], chain[:1]),
        _small_cfg((START_NODE, CF_NODE, CF_NODE), chain),  # no stop node
        _small_cfg((START_NODE, CF_NODE, CF_NODE, CF_NODE), chain + [(NEXT, 2, 3)]),
        _small_cfg(kinds + (STOP_NODE,), chain + [(NEXT, 0, 3)]),
    ]
    ends = list(itertools.product(range(3), repeat=2))
    extra = [(etype, *pair) for etype in (NEXT, SUCCESS, FAILURE) for pair in ends]
    hostile += [_small_cfg(kinds, chain + [link]) for link in extra]
    # every three-node graph with at most two edges, types up to order
    for types in itertools.combinations_with_replacement(kinds, 3):
        for count in range(3):
            for links in itertools.combinations(extra, count):
                hostile.append(_small_cfg(types, links))
    accepted = 0
    for g in hostile:
        got, want = validate_control_flow(g), reference_validate_control_flow(g)
        assert (got.ok, got.reason, got.base) == (want.ok, want.reason, want.base)
        assert got.derivation == want.derivation
        accepted += got.ok
    assert not validate_control_flow(loop).ok
    assert accepted == 1  # the start graph itself, among the two-edge graphs


def test_validate_start_graph():
    verdict = validate_control_flow(start_graph())
    assert verdict.ok
    assert verdict.derivation == []
    assert find_isomorphism(verdict.base, start_graph())


def test_validate_and_replay_multi_step():
    g = start_graph()
    g = _apply_at(g, "insert-node", "start", "story")
    g = _apply_at(g, "if-then", "n#1", "story")
    succ = next(e.trg for _, e in g.out_edges("n#2") if e.type == SUCCESS)
    g = _apply_at(g, "while-failure-body", succ, "story")
    verdict = validate_control_flow(g)
    assert verdict.ok
    assert len(verdict.derivation) == 3
    replayed = replay_derivation(verdict)
    assert find_isomorphism(replayed, g)


def test_validate_rejects_abstract_nodes():
    g = (
        GraphBuilder(SYNTAX_TYPE_GRAPH)
        .node("start", "StartNode")
        .node("x", "AbstractNode")
        .node("stop", "StopNode")
        .edge("e1", NEXT, "start", "x")
        .edge("e2", NEXT, "x", "stop")
        .build()
    )
    verdict = validate_control_flow(g)
    assert not verdict.ok
    assert "abstract" in verdict.reason


def test_validate_rejects_foreign_typing():
    verdict = validate_control_flow(make_list(linked_list_tg(), 2))
    assert not verdict.ok
    assert verdict.reason


def test_validate_rejects_non_members():
    g = (
        GraphBuilder(SYNTAX_TYPE_GRAPH)
        .node("start", "StartNode")
        .node("stop", "StopNode")
        .edge("e1", NEXT, "start", "stop")
        .build()
    )
    assert not validate_control_flow(g).ok

    # a member graph plus one stray edge is no longer reducible
    g2 = start_graph()
    g2 = _apply_at(g2, "insert-node", "start", "story")
    bad = (
        GraphBuilder(SYNTAX_TYPE_GRAPH)
        .node("start", "StartNode")
        .node("n#1", CF_NODE)
        .node("story", CF_NODE)
        .node("stop", STOP_NODE)
        .edge("e2", NEXT, "story", "stop")
        .edge("e#1", NEXT, "start", "n#1")
        .edge("e#2", NEXT, "n#1", "story")
        .edge("stray", NEXT, "story", "n#1")
        .build()
    )
    assert not validate_control_flow(bad).ok


def test_replay_refuses_invalid_witness():
    verdict = validate_control_flow(
        GraphBuilder(SYNTAX_TYPE_GRAPH)
        .node("start", "StartNode")
        .node("stop", STOP_NODE)
        .edge("e1", NEXT, "start", "stop")
        .build()
    )
    with pytest.raises(GraphError):
        replay_derivation(verdict)


def test_classify_chain():
    g = _apply_at(start_graph(), "insert-node", "start", "story")
    cls = classify_nodes(g, validate_control_flow(g))
    assert cls.first == "n#1"
    assert cls.kinds == {"n#1": SEQUENTIAL, "story": SEQUENTIAL}
    assert next_target(g, "n#1") == "story"


def test_classify_joining_conditional():
    g = _apply_at(start_graph(), "if-then", "start", "story")
    cls = classify_nodes(g, validate_control_flow(g))
    assert cls.kinds["n#1"] == COND_JOINING
    assert cls.joins["n#1"] == "story"
    assert cls.branch_members["n#1"] == {SUCCESS: {"n#2"}, FAILURE: set()}
    assert branch_targets(g, "n#1") == ("n#2", "story")


def test_classify_nonjoining_conditional():
    g = _apply_at(start_graph(), "branch-failure-node-stop", "start", "story")
    cls = classify_nodes(g, validate_control_flow(g))
    head = cls.first
    assert cls.kinds[head] == COND_NONJOINING
    assert cls.branch_members[head][SUCCESS] == {"story"}
    assert len(cls.branch_members[head][FAILURE]) == 1


def test_classify_loops_both_polarities():
    g = _apply_at(start_graph(), "while-success-body", "start", "story")
    cls = classify_nodes(g, validate_control_flow(g))
    assert cls.kinds["n#1"] == LOOP_HEAD_SUCCESS
    assert cls.branch_members["n#1"] == {SUCCESS: {"n#2"}, FAILURE: set()}

    g2 = _apply_at(start_graph(), "while-failure-direct", "story", "stop")
    cls2 = classify_nodes(g2, validate_control_flow(g2))
    assert cls2.kinds["n#1"] == LOOP_HEAD_FAILURE
    assert cls2.branch_members["n#1"] == {SUCCESS: set(), FAILURE: set()}


def test_classify_joins_an_if_then_closing_a_nested_loop_body(capsys):
    # the if-then c00014833 ends the body of an inner loop nested in an
    # outer one; its join, the inner loop head, also has a predecessor
    # that both branches reach through the outer loop
    path = FIXTURES / "nested_loop_join.diagram.json"
    assert main(["validate", str(path)]) == 0
    cls = load_story_diagram(path).classification
    assert cls.kinds["c00014833"] == COND_JOINING
    assert cls.joins["c00014833"] == "c00011820"


def test_classify_rejects_malformed_graphs():
    no_start = (
        GraphBuilder(SYNTAX_TYPE_GRAPH)
        .node("a", CF_NODE)
        .node("stop", STOP_NODE)
        .edge("e1", NEXT, "a", "stop")
        .build()
    )
    verdict = validate_control_flow(no_start)
    assert not verdict.ok
    with pytest.raises(GraphError):
        classify_nodes(no_start, verdict)


def _forward_step(rule, match, out):
    created = {r: out.rhs_node_map[r] for r in rule.created_rhs_nodes()}
    return DerivationStep(rule.name, match.node_map["a"], match.node_map["b"], created)


def _members_with_witnesses(bound):
    """One member per isomorphism class up to `bound` nodes, each with the
    forward derivation that first reached it as its witness."""
    frontier = [(start_graph(), [])]
    members, seen = list(frontier), IsoSet()
    seen.add(start_graph())
    while frontier:
        grown = []
        for g, steps in frontier:
            for rule in syntax_rules():
                if len(g.nodes) + len(rule.created_rhs_nodes()) > bound:
                    continue
                for match in find_matches(rule, g):
                    out = apply_rule(rule, match, g)
                    if seen.add(out.result):
                        step = _forward_step(rule, match, out)
                        grown.append((out.result, steps + [step]))
        members += grown
        frontier = grown
    base = start_graph()
    return [(g, CfgValidation(True, derivation=s, base=base)) for g, s in members]


def _random_derivation(rng, size):
    """A graph grown by random rule applications to at least `size`
    nodes, with the steps that grew it as its witness."""
    g, steps = start_graph(), []
    while len(g.nodes) < size:
        rule = rng.choice(syntax_rules())
        match = rng.choice(find_matches(rule, g))
        out = apply_rule(rule, match, g)
        steps.append(_forward_step(rule, match, out))
        g = out.result
    return g, CfgValidation(True, derivation=steps, base=start_graph())


def test_classify_nodes_equals_the_reference():
    # roles read off a witness, the validator's or the one a forward
    # derivation records, are the roles dominator analysis finds
    cases = _members_with_witnesses(7)
    assert len(cases) == 1061  # pairwise non-isomorphic, so all of them
    for shape in CFG_SHAPES:
        for size in (7, 13, 21, 31):
            g = cfg_of_shape(shape, size).build()
            cases.append((g, validate_control_flow(g)))
    for path in sorted(FIXTURES.glob("*.diagram.json")):
        if path.name != "invalid_cfg.diagram.json":
            d = load_story_diagram(path)
            cases.append((d.cfg, d.validation))
    rng = random.Random(10)
    cases += [_random_derivation(rng, rng.randint(8, 30)) for _ in range(150)]
    rules_used = {step.rule for _, v in cases for step in v.derivation}
    assert rules_used == {r.name for r in syntax_rules()}
    for g, verdict in cases:
        assert classify_nodes(g, verdict) == reference_classify_nodes(g)


def test_export_rules_round_trip(tmp_path):
    paths = export_rules(str(tmp_path))
    assert len(paths) == 16
    by_name = {r.name: r for r in syntax_rules()}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        rule = rule_from_dict(data, SYNTAX_TYPE_GRAPH)
        original = by_name[rule.name]
        assert rule.lhs == original.lhs
        assert rule.rhs == original.rhs
        assert rule.mapping.node_map == original.mapping.node_map
