"""Step interpreter: configurations, scope instances, traces, replay."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdm.interp
from sdm.cli import main
from sdm.diagram import load_story_diagram
from sdm.denot import cross_check
from sdm.graph import (
    FormatError,
    GraphError,
    TypedGraph,
    graph_from_dict,
    parse_graph,
    serialize_graph,
    validate_typing,
)
from sdm.interp import (
    CONSERVATIVE,
    ERROR,
    NONTERMINATING,
    OPTIMISTIC,
    RUNNING,
    SEMANTIC_TYPE_GRAPH,
    TERMINATED,
    Trace,
    initialize,
    replay_trace,
    run,
    step,
)

from sdm.rewrite import apply_rule

from .builders import (
    FIXTURES,
    bindings_in_scope,
    pattern_of,
    rule_of,
    seq_cfg,
    story_diagram,
)
from .conftest import zoo_tg
from .oracles import reference_matches


def load_diagram(name):
    return load_story_diagram(FIXTURES / name)


def load_model(name, tg):
    return parse_graph((FIXTURES / name).read_text(encoding="utf-8"), tg)


def token_targets(c) -> list[str]:
    """Where the state graph's `at` edges point: one node, or none once detached."""
    return [e.trg for e in c.state_graph().edges.values() if e.type == "at"]


@pytest.fixture
def minimal():
    return load_diagram("minimal.diagram.json")


@pytest.fixture
def dno():
    return load_diagram("delete_next_object.diagram.json")


@pytest.fixture
def while_star():
    return load_diagram("while_star.diagram.json")


@pytest.fixture
def join_policy():
    return load_diagram("join_policy.diagram.json")


# -- semantic type graph -----------------------------------------------------


def test_semantic_type_graph_has_the_runtime_node_types():
    names = set(SEMANTIC_TYPE_GRAPH.node_types)
    assert {
        "Scope",
        "CFVariable",
        "VariableBinding",
        "Variable",
        "PositionToken",
        "PatternInvocation",
    } <= names
    # the control flow vocabulary rides along unchanged
    assert SEMANTIC_TYPE_GRAPH.node_types["CFNode"] == "AbstractNode"
    assert SEMANTIC_TYPE_GRAPH.node_types["StartNode"] == "AbstractNode"
    assert SEMANTIC_TYPE_GRAPH.node_types["StopNode"] == "AbstractNode"


def test_semantic_type_graph_edge_endpoints():
    et = SEMANTIC_TYPE_GRAPH.edge_types
    assert et["at"].src == "PositionToken"
    assert et["at"].trg == "AbstractNode"
    assert et["boundTo"].trg == "Variable"
    assert et["forVariable"].trg == "CFVariable"
    assert et["inScope"].trg == "Scope"
    assert et["constructedVariables"].src == "PatternInvocation"
    assert et["destructedVariables"].trg == "CFVariable"


# -- initialization ----------------------------------------------------------


def test_initialize_binds_this_and_places_the_token(minimal):
    model = load_model("single.model.json", minimal.tg)
    c = initialize(minimal, model, "o1")
    assert c.status == RUNNING
    assert c.token_at == minimal.classification.first == "story"
    assert token_targets(c) == ["story"]
    assert bindings_in_scope(c) == {"this": "o1"}
    assert [i.template for i in c.stack] == ["root"]


def test_initialize_rejects_a_foreign_model(minimal):
    tg = zoo_tg()
    model = parse_graph(
        json.dumps(
            {
                "typegraph": "zoo",
                "nodes": [{"id": "c1", "type": "Cat"}],
                "edges": [],
            }
        ),
        tg,
    )
    with pytest.raises(GraphError, match="different type graph"):
        initialize(minimal, model, "c1")


def test_initialize_rejects_unknown_this(minimal):
    model = load_model("single.model.json", minimal.tg)
    with pytest.raises(GraphError, match="not in the model"):
        initialize(minimal, model, "oops")


def test_initialize_rejects_this_of_the_wrong_type():
    tg = zoo_tg()
    noop = pattern_of(
        rule_of(tg, "touch-cat", {"t": "Cat"}, [], {"t": "Cat"}, []),
        {"t": "this"},
        {"this"},
    )
    d = story_diagram(
        tg, seq_cfg("story"), {"story": noop}, params=[("this", "Cat")]
    )
    model = parse_graph(
        json.dumps(
            {
                "typegraph": "zoo",
                "nodes": [{"id": "d1", "type": "Dog"}],
                "edges": [],
            }
        ),
        tg,
    )
    with pytest.raises(GraphError, match="expected 'Cat'"):
        initialize(d, model, "d1")


def test_initialize_rejects_bad_strategy_and_order(minimal):
    model = load_model("single.model.json", minimal.tg)
    with pytest.raises(GraphError, match="strategy"):
        initialize(minimal, model, "o1", strategy="eager")
    # the order is random exactly when a seed is given
    assert initialize(minimal, model, "o1").rng is None
    assert initialize(minimal, model, "o1", seed=3).rng is not None


# -- single steps ------------------------------------------------------------


def test_minimal_diagram_runs_in_two_steps(minimal):
    model = load_model("single.model.json", minimal.tg)
    c, trace = run(initialize(minimal, model, "o1"))
    assert c.status == TERMINATED
    assert [t.outcome for t in trace.steps] == ["matched", "terminated"]
    assert [t.node for t in trace.steps] == ["story", "stop"]
    assert token_targets(c) == []


def test_sequential_failure_reports_the_node_and_detaches(minimal):
    d = load_diagram("two_node_seq.diagram.json")
    model = load_model("single.model.json", d.tg)  # o1 has no follower
    c, trace = run(initialize(d, model, "o1"))
    assert c.status == ERROR
    assert c.token_at == "second"
    assert trace.steps[-1].outcome == "failed"
    assert trace.steps[-1].match == {}
    assert token_targets(c) == []


def test_conditional_failure_opens_a_branch_without_touching_the_model(dno):
    model = load_model("single.model.json", dno.tg)
    c = initialize(dno, model, "o1")
    before = c.model
    step(c)
    assert c.status == RUNNING
    assert c.model is before  # nothing matched, nothing rewritten
    assert c.model_rev == 0
    root, inst = c.stack
    assert inst.template == "hasTwo:failure"
    assert sorted(inst.bindings) == ["this"]
    assert inst.bindings["this"].id != root.bindings["this"].id
    assert inst.bindings["this"].model_node == root.bindings["this"].model_node


def test_conditional_success_binds_fresh_variables_in_the_branch(dno):
    model = load_model("list3.model.json", dno.tg)
    c = initialize(dno, model, "o1")
    step(c)
    inst = c.stack[-1]
    assert inst.template == "hasTwo:success"
    assert bindings_in_scope(c) == {
        "this": "o1",
        "next": "o2",
        "nextNext": "o3",
    }
    assert c.trace[-1].outcome == "matched"
    assert c.trace[-1].scope_events == [
        {"event": "enter", "scope": inst.id, "template": "hasTwo:success"}
    ]


def test_dno_on_a_singleton_takes_the_bottom_branches(dno):
    model = load_model("single.model.json", dno.tg)
    c, trace = run(initialize(dno, model, "o1"))
    assert c.status == TERMINATED
    assert [(t.node, t.outcome) for t in trace.steps] == [
        ("hasTwo", "failed"),
        ("hasOne", "failed"),
        ("addNext", "matched"),
        ("stop", "terminated"),
    ]
    # a fresh follower was created for the lonely object
    assert len(c.model.nodes) == 2
    assert trace.steps[2].constructed == ["newNext"]
    # the join popped the inner branch before matching
    exit_events = [
        e for e in trace.steps[2].scope_events if e["event"] == "exit"
    ]
    assert len(exit_events) == 1
    assert exit_events[0]["template"] == "hasOne:failure"


def test_dno_on_a_list_unlinks_the_middle_object(dno):
    model = load_model("list3.model.json", dno.tg)
    c, trace = run(initialize(dno, model, "o1"))
    assert c.status == TERMINATED
    assert [(t.node, t.outcome) for t in trace.steps] == [
        ("hasTwo", "matched"),
        ("unlink", "matched"),
        ("stopA", "terminated"),
    ]
    assert sorted(c.model.nodes) == ["o1", "o3"]
    assert any(
        e.type == "next" and e.src == "o1" and e.trg == "o3"
        for e in c.model.edges.values()
    )
    # non-joining branch: its scope instance survives termination
    assert any(i.template == "hasTwo:success" for i in c.stack)


# -- loops and scope hygiene -------------------------------------------------


def test_while_loop_runs_once_per_outgoing_edge(while_star):
    model = load_model("star5.model.json", while_star.tg)
    c, trace = run(initialize(while_star, model, "o0"))
    assert c.status == TERMINATED
    heads = [t for t in trace.steps if t.node == "head"]
    assert [t.outcome for t in heads] == ["matched"] * 5 + ["failed"]
    assert [t.match.get("x") for t in heads[:5]] == [
        "o1",
        "o2",
        "o3",
        "o4",
        "o5",
    ]
    assert not any(e.type == "next" for e in c.model.edges.values())


def test_loop_iterations_do_not_leak_bindings(while_star):
    model = load_model("star5.model.json", while_star.tg)
    c, trace = run(initialize(while_star, model, "o0"))
    # each re-test of the head saw only this, never a stale x
    enters = [
        e
        for t in trace.steps
        for e in t.scope_events
        if e["event"] == "enter"
    ]
    exits = [
        e
        for t in trace.steps
        for e in t.scope_events
        if e["event"] == "exit"
    ]
    assert len(enters) == 6  # five body entries plus the loop exit
    assert len(exits) == 6
    assert all(e["removed"] == [] for e in exits)
    state = c.state_graph()
    live = {i.id for i in c.stack}
    for e in state.edges.values():
        if e.type == "inScope":
            assert e.trg in live  # no binding points at a discarded scope


def test_state_graph_is_well_typed_throughout(while_star):
    model = load_model("star5.model.json", while_star.tg)
    c = initialize(while_star, model, "o0")
    state = c.state_graph()
    assert validate_typing(state, state.tg).ok
    while c.status == RUNNING:
        step(c)
        state = c.state_graph()
        report = validate_typing(state, state.tg)
        assert report.ok, report.violations


def test_state_graph_has_one_token_attached_iff_running(minimal):
    model = load_model("single.model.json", minimal.tg)
    c = initialize(minimal, model, "o1")
    state = c.state_graph()
    assert [n for n, t in state.nodes.items() if t == "PositionToken"] == [
        "token"
    ]
    at = [e for e in state.edges.values() if e.type == "at"]
    assert len(at) == 1 and at[0].trg == "story"
    run(c)
    assert [
        e for e in c.state_graph().edges.values() if e.type == "at"
    ] == []


# -- join policies -----------------------------------------------------------


def test_conservative_join_rematches_the_removed_variable(join_policy):
    model = load_model("pair.model.json", join_policy.tg)
    c, trace = run(
        initialize(join_policy, model, "o1", strategy=CONSERVATIVE)
    )
    assert c.status == TERMINATED
    join = next(t for t in trace.steps if t.node == "join")
    exit_event = next(
        e for e in join.scope_events if e["event"] == "exit"
    )
    assert exit_event["removed"] == ["p"]
    # p was re-bound to a node that still exists
    assert join.outcome == "matched"
    assert join.match["p"] in c.model.nodes


def test_optimistic_join_fails_on_the_dangling_adopted_binding(join_policy):
    model = load_model("pair.model.json", join_policy.tg)
    c, trace = run(
        initialize(join_policy, model, "o1", strategy=OPTIMISTIC)
    )
    assert c.status == ERROR
    assert c.token_at == "join"
    join = trace.steps[-1]
    assert join.outcome == "failed"
    exit_event = next(
        e for e in join.scope_events if e["event"] == "exit"
    )
    assert exit_event["adopted"] == ["this"]


# -- determinism and replay --------------------------------------------------


def test_lex_runs_are_byte_identical(dno):
    model = load_model("list4.model.json", dno.tg)
    _, first = run(initialize(dno, model, "o1"))
    _, second = run(initialize(dno, model, "o1"))
    assert first.to_jsonl() == second.to_jsonl()


def test_seeded_random_runs_are_byte_identical(while_star):
    model = load_model("star5.model.json", while_star.tg)
    _, first = run(
        initialize(while_star, model, "o0", seed=7)
    )
    _, second = run(
        initialize(while_star, model, "o0", seed=7)
    )
    assert first.to_jsonl() == second.to_jsonl()
    assert first.steps[-1].outcome == "terminated"


def test_replay_reproduces_the_final_model():
    cases = [
        ("delete_next_object.diagram.json", "list3.model.json", "o1"),
        ("delete_next_object.diagram.json", "single.model.json", "o1"),
        ("while_star.diagram.json", "star5.model.json", "o0"),
        ("join_policy.diagram.json", "pair.model.json", "o1"),
    ]
    for diagram_name, model_name, this in cases:
        d = load_diagram(diagram_name)
        model = load_model(model_name, d.tg)
        c, trace = run(initialize(d, model, this))
        replayed = replay_trace(initialize(d, model, this), trace)
        assert replayed.to_dict() == c.model.to_dict(), diagram_name
        from_file = replay_trace(
            initialize(d, model, this), Trace.from_jsonl(trace.to_jsonl())
        )
        assert from_file.to_dict() == c.model.to_dict(), diagram_name


def test_file_replay_covers_random_order_runs(while_star):
    model = load_model("star5.model.json", while_star.tg)
    c, trace = run(
        initialize(while_star, model, "o0", seed=11)
    )
    replayed = replay_trace(
        initialize(while_star, model, "o0", seed=11),
        Trace.from_jsonl(trace.to_jsonl()),
    )
    assert replayed.to_dict() == c.model.to_dict()


def test_file_replay_rejects_a_trace_for_the_wrong_model(minimal):
    d = load_diagram("two_node_seq.diagram.json")
    model = load_model("pair.model.json", d.tg)
    _, trace = run(initialize(d, model, "o1"))
    other = load_model("single.model.json", d.tg)
    with pytest.raises(GraphError, match="no longer applies"):
        replay_trace(initialize(d, other, "o1"), Trace.from_jsonl(trace.to_jsonl()))


def test_trace_records_have_the_documented_fields(dno):
    model = load_model("list3.model.json", dno.tg)
    _, trace = run(initialize(dno, model, "o1"))
    for line in trace.to_jsonl().splitlines():
        record = json.loads(line)
        assert set(record) == {
            "step",
            "node",
            "outcome",
            "match",
            "constructed",
            "destructed",
            "scope_events",
            "model_rev",
            "rule",
            "edges",
        }
    assert [json.loads(l)["step"] for l in trace.to_jsonl().splitlines()] == [
        1,
        2,
        3,
    ]


FIXTURE_DIAGRAMS = sorted(
    p.name
    for p in FIXTURES.glob("*.diagram.json")
    if p.name != "invalid_cfg.diagram.json"
)
FIXTURE_MODELS = sorted(p.name for p in FIXTURES.glob("*.model.json"))


@pytest.mark.parametrize("diagram_name", FIXTURE_DIAGRAMS)
def test_trace_files_parse_back_to_the_same_records(diagram_name):
    d = load_diagram(diagram_name)
    for model_name in FIXTURE_MODELS:
        model = load_model(model_name, d.tg)
        for this in sorted(model.nodes):
            for seed in (None, 7):
                c = initialize(d, model, this, seed=seed)
                _, trace = run(c, max_steps=200)
                text = trace.to_jsonl()
                assert Trace.from_jsonl(text).to_jsonl() == text
                assert Trace.from_jsonl(text) == trace


def test_file_replay_follows_the_recorded_parallel_edge(while_star):
    doc = json.loads((FIXTURES / "star5.model.json").read_text(encoding="utf-8"))
    doc["edges"] += [
        {"id": f"p{k}", "type": "next", "src": "o0", "trg": "o1"} for k in (1, 2)
    ]
    model = graph_from_dict(doc, while_star.tg)
    for seed in range(20):
        for budget in (2, 4, 6):
            c = initialize(while_star, model, "o0", seed=seed)
            c, trace = run(c, max_steps=budget)
            replayed = replay_trace(
                initialize(while_star, model, "o0", seed=seed),
                Trace.from_jsonl(trace.to_jsonl()),
            )
            assert replayed.to_dict() == c.model.to_dict(), (seed, budget)


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "[]",
        '{"step": 1}',
        '{"step": 1, "node": "n", "outcome": "matched", "match": [], '
        '"constructed": [], "destructed": [], "scope_events": [], '
        '"model_rev": 1, "rule": "r", "edges": [["e1", "n1"]]}',
        '{"step": 1, "node": "n", "outcome": "matched", '
        '"match": [{"var": "x", "model_node": 3}], "constructed": [], '
        '"destructed": [], "scope_events": [], "model_rev": 1, "rule": "r", '
        '"edges": {}}',
        '{"step": 1, "node": "n", "outcome": "skipped", "match": [], '
        '"constructed": [], "destructed": [], "scope_events": [], '
        '"model_rev": 1, "rule": "r", "edges": {}}',
        '{"step": 1, "node": "n", "outcome": "matched", "match": [], '
        '"constructed": [], "destructed": [], "scope_events": [], '
        '"model_rev": 1, "rule": "r", "edges": {}, "extra": 0}',
        pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deep"),
    ],
)
def test_a_malformed_trace_line_is_a_format_error(while_star, line):
    model = load_model("star5.model.json", while_star.tg)
    _, trace = run(initialize(while_star, model, "o0"), max_steps=2)
    text = trace.to_jsonl() + line + "\n"
    with pytest.raises(FormatError, match="trace line 3"):
        Trace.from_jsonl(text)


def _doctor_head(record: dict) -> None:
    record["rule"] = "someOtherRule"


def _doctor_edge(record: dict) -> None:
    record["edges"] = {"e1": "n2"}  # x stays o1, so e1 -> n2 does not commute


def _doctor_partial(record: dict) -> None:
    record["edges"] = {}


def _doctor_injective(record: dict) -> None:
    record["match"] = [
        {"var": "this", "model_node": "o0"},
        {"var": "x", "model_node": "o0"},
    ]
    record["edges"] = {"e1": "loop"}  # commutes, but this and x share o0


@pytest.mark.parametrize(
    "doctor", [_doctor_head, _doctor_edge, _doctor_partial, _doctor_injective]
)
def test_replay_rejects_a_record_that_is_not_a_match(while_star, doctor):
    doc = json.loads((FIXTURES / "star5.model.json").read_text(encoding="utf-8"))
    doc["edges"].append({"id": "loop", "type": "next", "src": "o0", "trg": "o0"})
    model = graph_from_dict(doc, while_star.tg)
    _, trace = run(initialize(while_star, model, "o0"))
    records = [json.loads(line) for line in trace.to_jsonl().splitlines()]
    head = records[0]
    assert (head["node"], head["outcome"], head["edges"]) == (
        "head", "matched", {"e1": "n1"}
    )
    doctor(head)
    doctored = Trace.from_jsonl("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(GraphError, match="at step 1 .* no longer applies"):
        replay_trace(initialize(while_star, model, "o0"), doctored)
    with pytest.raises(GraphError, match="at step 1 .* no longer applies"):
        cross_check(initialize(while_star, model, "o0"), doctored)


def test_replay_rejects_a_match_that_a_nac_forbids(tmp_path):
    star_diagram = json.loads(
        (FIXTURES / "while_star.diagram.json").read_text(encoding="utf-8")
    )
    path = tmp_path / "while_star_nac.json"
    path.write_text(json.dumps(_with_head_nac(star_diagram)), encoding="utf-8")
    d = load_story_diagram(path)
    model = load_model("star5.model.json", d.tg)
    _, trace = run(initialize(d, model, "o0"))
    assert replay_trace(initialize(d, model, "o0"), trace).to_dict()  # no back edge
    doc = model.to_dict()
    doc["edges"].append({"id": "back", "type": "next", "src": "o1", "trg": "o0"})
    with pytest.raises(GraphError, match="at step 1 .* no longer applies"):
        replay_trace(initialize(d, graph_from_dict(doc, d.tg), "o0"), trace)


def _tamper_star5_trace(text: str) -> str:
    """Step 2 cuts spoke o2 while x is bound to o1; steps 3-4 take o1."""
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["edges"] for r in records[:4]] == [{"e1": f"n{k}"} for k in (1, 1, 2, 2)]
    for record, spoke in zip(records[1:4], (2, 1, 1)):
        record["match"] = [
            {"var": "this", "model_node": "o0"},
            {"var": "x", "model_node": f"o{spoke}"},
        ]
        record["edges"] = {"e1": f"n{spoke}"}
    return "".join(json.dumps(r) + "\n" for r in records)


def test_replay_rejects_a_record_that_rebinds_a_pinned_variable(while_star):
    model = load_model("star5.model.json", while_star.tg)
    _, trace = run(initialize(while_star, model, "o0"))
    tampered = Trace.from_jsonl(_tamper_star5_trace(trace.to_jsonl()))
    expected = (
        r"at step 2 \(node 'body'\) no longer applies: "
        r"variable 'x' is bound to 'o1', the record has 'o2'"
    )
    with pytest.raises(GraphError, match=expected):
        replay_trace(initialize(while_star, model, "o0"), tampered)
    with pytest.raises(GraphError, match=expected):
        cross_check(initialize(while_star, model, "o0"), tampered)


@functools.cache
def _fixture_runs() -> list[tuple]:
    """(diagram, model, this, initialize options, trace text, final model)
    for every fixture run, both strategies, lex and random order."""
    runs = []
    for diagram_name in FIXTURE_DIAGRAMS:
        d = load_diagram(diagram_name)
        for model_name in FIXTURE_MODELS:
            model = load_model(model_name, d.tg)
            for this in sorted(model.nodes):
                for strategy in (CONSERVATIVE, OPTIMISTIC):
                    for order in ({}, {"seed": 7}):
                        kw = {"strategy": strategy, **order}
                        c, trace = run(initialize(d, model, this, **kw), max_steps=200)
                        runs.append((d, model, this, kw, trace.to_jsonl(), c))
    return runs


def test_every_fixture_trace_replays_to_its_run():
    for d, model, this, kw, text, c in _fixture_runs():
        replayed = initialize(d, model, this, **kw)
        replay_trace(replayed, Trace.from_jsonl(text))
        assert replayed.trace == c.trace
        # the trace does not record a step budget: its replay is still running
        status = RUNNING if c.status == NONTERMINATING else c.status
        assert (replayed.status, replayed.token_at) == (status, c.token_at)
        assert replayed.model.to_dict() == c.model.to_dict()


def _edit(draw, records: list[dict], cfg_nodes: list[str]) -> None:
    """Apply one edit to the records in place, or none where it has no target.

    A swap of two images never gives another match of a fixture pattern:
    each such pair has a binding or an edge, whose recorded image then
    no longer fits. Moving an image can, when the pattern has an isolated
    unbound node (`rematch-partner` in `join_policy`), so it is no edit here.
    """
    kind = draw(st.sampled_from(["image", "drop", "node", "outcome", "scope_event"]))
    targets = {
        "image": [r for r in records if len(r["match"]) > 1],
        "drop": records[:-1],  # not the last: a prefix is the record of a shorter run
        "scope_event": [r for r in records if r["scope_events"]],
    }.get(kind, records)
    if not targets:
        return
    record = targets[draw(st.integers(0, len(targets) - 1))]
    if kind == "image":
        first, second = draw(st.permutations(record["match"]))[:2]
        first["model_node"], second["model_node"] = (
            second["model_node"],
            first["model_node"],
        )
    elif kind == "drop":
        records.remove(record)
    elif kind == "node":
        record["node"] = draw(st.sampled_from(cfg_nodes))
    elif kind == "outcome":
        flipped = {"matched": "failed", "failed": "matched", "terminated": "failed"}
        record["outcome"] = flipped[record["outcome"]]
    else:
        event = draw(st.sampled_from(record["scope_events"]))
        field = draw(st.sampled_from(sorted(event)))
        event[field] = {"event": "exit", "scope": "s0", "template": "root"}.get(
            field, ["this"]
        )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_replay_rejects_every_edit_that_changes_a_trace(data):
    runs = _fixture_runs()
    d, model, this, kw, text, c = runs[data.draw(st.integers(0, len(runs) - 1))]
    records = [json.loads(line) for line in text.splitlines()]
    _edit(data.draw, records, sorted(d.cfg.nodes))
    edited = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    replayed = initialize(d, model, this, **kw)
    if edited == text:
        assert replay_trace(replayed, Trace.from_jsonl(edited)) is replayed.model
        assert replayed.trace == c.trace
    else:
        with pytest.raises(GraphError, match="no longer applies"):
            replay_trace(replayed, Trace.from_jsonl(edited))


def test_model_rev_counts_rewrites_only(while_star):
    model = load_model("star5.model.json", while_star.tg)
    c, trace = run(initialize(while_star, model, "o0"))
    revs = [t.model_rev for t in trace.steps]
    assert revs == sorted(revs)
    matched = sum(1 for t in trace.steps if t.outcome == "matched")
    assert revs[-1] == matched


def test_constructed_and_destructed_never_overlap():
    cases = [
        ("delete_next_object.diagram.json", "list2.model.json", "o1"),
        ("while_star.diagram.json", "star5.model.json", "o0"),
        ("join_policy.diagram.json", "pair.model.json", "o1"),
    ]
    for diagram_name, model_name, this in cases:
        d = load_diagram(diagram_name)
        model = load_model(model_name, d.tg)
        _, trace = run(initialize(d, model, this))
        for t in trace.steps:
            assert not set(t.constructed) & set(t.destructed)


# -- budgets and misuse ------------------------------------------------------


def test_budget_exhaustion_is_reported(while_star):
    model = load_model("star5.model.json", while_star.tg)
    c, trace = run(initialize(while_star, model, "o0"), max_steps=3)
    assert c.status == NONTERMINATING
    assert len(c.trace) == len(trace.steps) == 3
    assert token_targets(c) == [c.token_at]  # interrupted, not finished


def test_run_rejects_a_nonpositive_budget(minimal):
    model = load_model("single.model.json", minimal.tg)
    with pytest.raises(GraphError, match="positive"):
        run(initialize(minimal, model, "o1"), max_steps=0)


def test_step_refuses_finished_configurations(minimal):
    model = load_model("single.model.json", minimal.tg)
    c, _ = run(initialize(minimal, model, "o1"))
    with pytest.raises(GraphError, match="terminated"):
        step(c)


def test_bound_mark_without_binding_is_an_internal_error(minimal):
    model = load_model("single.model.json", minimal.tg)
    c = initialize(minimal, model, "o1")
    # break the invariant by hand: claim a binding that was never made
    p = minimal.patterns["story"]
    broken = dataclasses.replace(
        p,
        lhs_names={"t": "ghost"},
        rhs_names={"t": "ghost"},
        bound=frozenset({"ghost"}),
    )
    minimal.patterns["story"] = broken
    with pytest.raises(GraphError, match="ghost"):
        step(c)


# -- the indexed matcher against the reference matcher ------------------------


def _star_model(n: int) -> dict:
    """A center c with n `next` spokes whose ids sort apart from their
    edge ids, so node order and edge order both matter."""
    spokes = [f"s{(7 * i) % n:02d}" for i in range(n)]
    return {
        "typegraph": "linked-list",
        "nodes": [{"id": "c", "type": "Object"}]
        + [{"id": s, "type": "Object"} for s in spokes],
        "edges": [
            {"id": f"e{i:02d}", "type": "next", "src": "c", "trg": s}
            for i, s in enumerate(spokes)
        ],
    }


def _with_head_nac(diagram: dict) -> dict:
    """`while_star` whose head pattern forbids an edge x -> this."""
    out = json.loads(json.dumps(diagram))
    head = next(p for p in out["patterns"] if p["node"] == "head")
    lhs = head["rule"]["lhs"]
    graph = json.loads(json.dumps(lhs))
    graph["edges"].append({"id": "back", "type": "next", "src": "x", "trg": "t"})
    embed = [{"l": n["id"], "n": n["id"]} for n in lhs["nodes"]]
    embed += [{"l": e["id"], "n": e["id"]} for e in lhs["edges"]]
    head["rule"]["nacs"] = [{"graph": graph, "embed": embed}]
    return out


RUN_MODES = [
    [],
    ["--strategy", "optimistic"],
    ["--match-order", "random", "--seed", "7"],
]


def test_runs_are_byte_identical_under_the_reference_matcher(
    tmp_path, monkeypatch, capsys
):
    star_diagram = json.loads(
        (FIXTURES / "while_star.diagram.json").read_text(encoding="utf-8")
    )
    nac = tmp_path / "while_star_nac.json"
    nac.write_text(json.dumps(_with_head_nac(star_diagram)), encoding="utf-8")
    star = tmp_path / "star25.json"
    star.write_text(json.dumps(_star_model(25)), encoding="utf-8")
    lists = [FIXTURES / f"list{k}.model.json" for k in range(1, 6)]
    cases = [
        (FIXTURES / "while_star.diagram.json", star, "c"),
        (nac, star, "c"),
    ]
    for name in ("delete_next_object", "join_policy"):
        cases += [(FIXTURES / f"{name}.diagram.json", m, "o1") for m in lists]

    reference_calls = []

    def reference(*args, **kwargs):
        reference_calls.append(args[0].name)
        return reference_matches(*args, **kwargs)

    def outputs(tag: str, diagram, model, this, flags) -> tuple:
        out = tmp_path / f"{tag}.out.json"
        trace = tmp_path / f"{tag}.trace.jsonl"
        code = main(
            ["run", str(diagram), str(model), "--this", this,
             "--out", str(out), "--trace", str(trace), *flags]
        )
        return code, capsys.readouterr().out, out.read_bytes(), trace.read_bytes()

    for i, (diagram, model, this) in enumerate(cases):
        for j, flags in enumerate(RUN_MODES):
            package = outputs(f"{i}-{j}-package", diagram, model, this, flags)
            with monkeypatch.context() as patch:
                patch.setattr(sdm.interp, "find_matches", reference)
                expected = outputs(f"{i}-{j}-reference", diagram, model, this, flags)
            assert package == expected, (diagram.name, model.name, flags)
    assert len(reference_calls) > 100


# the sha256 of every state graph of each run below, initial state first
STATE_DIGESTS = pathlib.Path(__file__).with_name("state_graph_digests.json")


@pytest.mark.parametrize(
    "diagram_name, model_name, this",
    [
        ("while_star.diagram.json", "star5.model.json", "o0"),
        # the conservative join rebinds a variable to a model node that
        # already has a Variable proxy
        ("join_policy.diagram.json", "list3.model.json", "o1"),
    ],
)
def test_variable_index_keeps_state_graph_bytes(diagram_name, model_name, this):
    d = load_diagram(diagram_name)
    c = initialize(d, load_model(model_name, d.tg), this)
    states = [serialize_graph(c.state_graph())]
    while c.status == RUNNING:
        step(c)
        states.append(serialize_graph(c.state_graph()))
    digests = json.loads(STATE_DIGESTS.read_text(encoding="utf-8"))
    assert [
        hashlib.sha256(s.encode()).hexdigest() for s in states
    ] == digests[f"{diagram_name} {model_name} {this}"]


@pytest.mark.parametrize("order", [{}, {"seed": 7}])
def test_head_steps_keep_the_model_object(while_star, monkeypatch, order):
    # the head's identity rule changes nothing, so its step keeps the very
    # model object; copying the model there instead writes the same bytes
    model = load_model("star5.model.json", while_star.tg)

    def outputs() -> tuple[str, str, str]:
        c, trace = run(initialize(while_star, model, "o0", **order))
        state = serialize_graph(c.state_graph())
        return trace.to_jsonl(), serialize_graph(c.model), state

    c = initialize(while_star, model, "o0", **order)
    kept = 0
    while c.status == RUNNING:
        before, node = c.model, c.token_at
        step(c)
        kept += node == "head" and c.model is before
    assert kept == 6  # five matches and the failing exit test
    shared = outputs()

    copies = []

    def copying(rule, match, host):
        out = apply_rule(rule, match, host)
        if out.result is host:
            out.result = TypedGraph._derive(host, set(), {}, {})
            copies.append(out.result)
        return out

    monkeypatch.setattr(sdm.interp, "apply_rule", copying)
    assert outputs() == shared
    assert len(copies) == 6  # the five matched heads and `tail`'s touch


def test_a_step_shares_every_adjacency_list_it_does_not_touch(while_star):
    # a step costs what its rule touches: on star-200 the head step
    # changes nothing, and the body step cuts one spoke, so only the
    # center's out-list and that spoke's in-list may be new objects
    def new_lists(host, result) -> tuple[set, set]:
        return tuple(
            {n for n in result.nodes if after.get(n) is not before.get(n)}
            for before, after in zip(host._index(), result._index())
        )

    c = initialize(while_star, graph_from_dict(_star_model(200), while_star.tg), "c")
    while c.token_at != "head":
        step(c)
    host = c.model
    step(c)  # head: an identity rule binds x to a spoke
    assert new_lists(host, c.model) == (set(), set())
    host = c.model
    step(c)  # body: cuts c -> x
    [cut] = host.edges.keys() - c.model.edges.keys()
    assert new_lists(host, c.model) == ({"c"}, {host.edges[cut].trg})
