"""Denotational semantics: pair sets, compilation, and the cross-check."""

from __future__ import annotations

import random

import pytest

import sdm.denot
from sdm.denot import (
    IfExpr,
    NodeExpr,
    OracleError,
    SemSet,
    SeqExpr,
    WhileExpr,
    compile_diagram,
    cross_check,
    evaluate,
    sem_node,
)
from sdm.diagram import load_story_diagram
from sdm.graph import GraphError, PartialMorphism, find_isomorphism, parse_graph
from sdm.interp import Trace, initialize, run
from sdm.rewrite import NAC, Rule, apply_rule, find_matches

from .builders import (
    FIXTURES,
    graph_of,
    ll_noop,
    pattern_of,
    rule_of,
    story_diagram,
)
from .conftest import make_list, random_graph, with_twins, zoo_tg
from .oracles import reference_sem_node


def load_diagram(name):
    return load_story_diagram(FIXTURES / name)


def load_model(name, tg):
    return parse_graph((FIXTURES / name).read_text(encoding="utf-8"), tg)


def delete_node_rule(tg):
    return rule_of(tg, "delete-object", {"x": "Object"}, [], {}, [])


def delete_edge_rule(tg):
    shared = {"x": "Object", "y": "Object"}
    return rule_of(
        tg, "cut", shared, [("e", "next", "x", "y")], shared, []
    )


def edge_exists_rule(tg):
    shared = {"x": "Object", "y": "Object"}
    link = [("e", "next", "x", "y")]
    return rule_of(tg, "has-edge", shared, link, shared, link)


def isolated(tg, n):
    return graph_of(tg, {f"o{i}": "Object" for i in range(1, n + 1)}, [])


# -- sem_node ----------------------------------------------------------------


def test_sem_node_identity_rule_yields_one_reflexive_pair(list_tg):
    g = make_list(list_tg, 1)
    sem = sem_node(ll_noop(list_tg).rule, g)
    assert len(sem) == 1
    assert g in sem
    assert not sem.incomplete


def test_sem_node_inapplicable_rule_passes_the_graph_through(list_tg):
    g = isolated(list_tg, 1)
    sem = sem_node(delete_edge_rule(list_tg), g)
    assert len(sem) == 1
    assert list(sem)[0] is g


def test_sem_node_collapses_isomorphic_results(list_tg):
    sem = sem_node(delete_node_rule(list_tg), isolated(list_tg, 3))
    assert len(sem) == 1  # three matches, one outcome shape


def test_sem_node_keeps_genuinely_different_results(list_tg):
    # deleting an end of the chain leaves a pair, the middle leaves dust
    sem = sem_node(delete_node_rule(list_tg), make_list(list_tg, 3))
    assert len(sem) == 2


def test_sem_node_agrees_with_direct_rule_application(list_tg):
    r = delete_edge_rule(list_tg)
    g = make_list(list_tg, 4)
    sem = sem_node(r, g)
    direct = [apply_rule(r, m, g).result for m in find_matches(r, g)]
    assert len(direct) == 3
    for h in direct:
        assert h in sem
    assert len(sem) == 2  # cutting either end is the same shape


@pytest.fixture
def sem_calls(monkeypatch) -> dict:
    """The `first` flag of each match search `sem_node` makes, and its
    number of rule applications, while the test runs."""
    calls = {"first": [], "applied": 0}

    def counted_matches(rule, host, first=False):
        calls["first"].append(first)
        return find_matches(rule, host, first=first)

    def counted_apply(rule, match, host):
        calls["applied"] += 1
        return apply_rule(rule, match, host)

    monkeypatch.setattr(sdm.denot, "find_matches", counted_matches)
    monkeypatch.setattr(sdm.denot, "apply_rule", counted_apply)
    return calls


def test_sem_node_matches_a_rule_that_only_reads_once(list_tg, sem_calls):
    g = make_list(list_tg, 5)
    sem = sem_node(edge_exists_rule(list_tg), g)  # four matches
    assert sem_calls == {"first": [True], "applied": 1}
    assert sem.matched and list(sem) == [g]


def test_sem_node_keys_orbits_by_the_deleted_node_alone(list_tg, sem_calls):
    # p is deleted and t only read, so each of the k images of p is applied
    # once, not each of the k(k-1) placements of (p, t)
    both = {"p": "Object", "t": "Object"}
    r = rule_of(list_tg, "drop-p-seeing-t", both, [], {"t": "Object"}, [])
    k = 5
    sem = sem_node(r, make_list(list_tg, k))
    assert sem_calls == {"first": [False], "applied": k}
    assert len(sem) == 3  # an end, the second node, the middle


def test_sem_node_keeps_the_source_of_a_created_edge_in_its_key(
    list_tg, sem_calls
):
    # t gains an edge to a fresh node and p is only read, so each of the
    # k images of t is applied once
    both = {"p": "Object", "t": "Object"}
    grown = {**both, "n": "Object"}
    r = rule_of(list_tg, "hang-off-t", both, [], grown, [("e", "next", "t", "n")])
    k = 5
    sem = sem_node(r, make_list(list_tg, k))
    assert sem_calls == {"first": [False], "applied": k}
    assert len(sem) == k  # the list is directed, so no two are alike


def _random_sem_rule(rng: random.Random, tg) -> Rule:
    """A rule over tg that deletes, creates, only reads, or carries a NAC."""
    lhs = random_graph(rng, tg, 3, 2)
    kind = rng.choice(["delete", "create", "read", "nac"])
    odds = 0.5 if kind == "delete" else 1.0
    nodes = {n: t for n, t in lhs.nodes.items() if rng.random() < odds}
    edges = [
        (eid, e.type, e.src, e.trg)
        for eid, e in sorted(lhs.edges.items())
        if e.src in nodes and e.trg in nodes and rng.random() < odds
    ]
    kept = dict(nodes)
    if kind == "create":
        nodes["fresh"] = rng.choice(sorted(tg.node_types))
        for i in range(rng.randint(0, 2)):
            etype = rng.choice(sorted(tg.edge_types))
            decl = tg.edge_types[etype]
            srcs = [n for n, t in sorted(nodes.items()) if tg.conforms(t, decl.src)]
            trgs = [n for n, t in sorted(nodes.items()) if tg.conforms(t, decl.trg)]
            if srcs and trgs:
                edges.append((f"new{i}", etype, rng.choice(srcs), rng.choice(trgs)))
    rhs = graph_of(tg, nodes, edges)
    preserved = {eid for eid, *_ in edges if eid in lhs.edges}
    mapping = PartialMorphism(
        lhs, rhs, {n: n for n in kept}, {e: e for e in preserved}
    )
    nacs = ()
    if kind == "nac":
        # forbid one more edge between two lhs nodes, or out to a fresh toy
        src = rng.choice(lhs.node_ids())
        nac_nodes = dict(lhs.nodes)
        if rng.random() < 0.5 and tg.conforms(lhs.nodes[src], "Animal"):
            nac_nodes["toy"] = "Toy"
            extra = ("forbidden", "owns", src, "toy")
        else:
            trg = rng.choice(lhs.node_ids())
            extra = ("forbidden", "chases", src, trg)
            if not all(tg.conforms(lhs.nodes[n], "Animal") for n in (src, trg)):
                extra = None
        if extra is not None:
            links = [(eid, e.type, e.src, e.trg) for eid, e in lhs.edges.items()]
            nac_graph = graph_of(tg, nac_nodes, links + [extra])
            embedding = PartialMorphism(
                lhs, nac_graph, {n: n for n in lhs.nodes}, {e: e for e in lhs.edges}
            )
            nacs = (NAC(nac_graph, embedding),)
    return Rule(f"random-{kind}", lhs, rhs, mapping, nacs)


def test_sem_node_equals_the_unpruned_reference(monkeypatch):
    # one application per twin orbit must keep the very pairs, in the very
    # order, that applying every match and deduplicating gives
    applied = []

    def counted(rule, match, host):
        applied.append(rule.name)
        return apply_rule(rule, match, host)

    monkeypatch.setattr(sdm.denot, "apply_rule", counted)
    rng = random.Random(59)
    tg = zoo_tg()
    matched = looped = parallel = 0
    kinds: dict[str, int] = {}
    for _ in range(600):
        host = random_graph(rng, tg, 4, 6)
        if rng.random() < 0.8:
            host = with_twins(rng, host)
        rule = _random_sem_rule(rng, tg)
        assert list(sem_node(rule, host)) == reference_sem_node(rule, host)
        n = len(find_matches(rule, host))
        if n > 1:
            ends = [(e.type, e.src, e.trg) for e in host.edges.values()]
            looped += any(src == trg for _, src, trg in ends)
            parallel += len(set(ends)) < len(ends)
        matched += n
        kinds[rule.name] = kinds.get(rule.name, 0) + bool(n)
    assert len(applied) < matched / 2
    assert min(kinds.values()) > 30 and looped > 50 and parallel > 30, kinds


# -- sequencing, conditionals, loops -----------------------------------------


def seq(*rules: Rule) -> SeqExpr:
    return SeqExpr([NodeExpr(r) for r in rules])


def drain_edges(tg) -> WhileExpr:
    """While an edge exists, delete one."""
    return WhileExpr(edge_exists_rule(tg), NodeExpr(delete_edge_rule(tg)))


def test_sem_seq_chains_compositions(list_tg):
    r = delete_node_rule(list_tg)
    sem = evaluate(seq(r, r), isolated(list_tg, 3))
    assert len(sem) == 1
    assert isolated(list_tg, 1) in sem


def test_sem_seq_passes_through_inapplicable_parts(list_tg):
    noop = ll_noop(list_tg).rule
    g = isolated(list_tg, 1)
    sem = evaluate(seq(noop, delete_edge_rule(list_tg), noop), g)
    assert len(sem) == 1
    assert g in sem


def test_sem_if_picks_the_branch_by_applicability(list_tg):
    cond = edge_exists_rule(list_tg)
    then = delete_edge_rule(list_tg)
    orelse = delete_node_rule(list_tg)
    linked = make_list(list_tg, 2)
    sem = evaluate(IfExpr(cond, NodeExpr(then), NodeExpr(orelse)), linked)
    assert isolated(list_tg, 2) in sem
    lonely = isolated(list_tg, 1)
    sem = evaluate(IfExpr(cond, NodeExpr(then), NodeExpr(orelse)), lonely)
    assert isolated(list_tg, 0) in sem


def test_sem_while_on_an_inapplicable_condition_is_the_identity(list_tg):
    g = isolated(list_tg, 2)
    loop = drain_edges(list_tg)
    sem = evaluate(loop, g, 5)
    assert len(sem) == 1
    assert g in sem
    assert not sem.incomplete


def test_sem_while_drains_the_graph_when_the_depth_suffices(list_tg):
    g = make_list(list_tg, 3)  # two next edges
    loop = drain_edges(list_tg)
    sem = evaluate(loop, g, 5)
    assert not sem.incomplete
    assert len(sem) == 1
    assert isolated(list_tg, 3) in sem


def test_sem_while_reports_incompleteness_at_the_bound(list_tg):
    g = make_list(list_tg, 3)
    loop = drain_edges(list_tg)
    shallow = evaluate(loop, g, 1)
    assert shallow.incomplete
    assert len(shallow) == 0
    stopped = evaluate(loop, g, 0)
    assert stopped.incomplete
    assert len(stopped) == 0
    with pytest.raises(GraphError, match="nonnegative"):
        evaluate(loop, g, -1)


# -- SemSet ------------------------------------------------------------------


def test_semset_deduplicates_componentwise_up_to_iso(list_tg):
    g = make_list(list_tg, 2)
    h = isolated(list_tg, 2)
    renamed_g = graph_of(
        list_tg,
        {"a": "Object", "b": "Object"},
        [("k", "next", "a", "b")],
    )
    renamed_h = graph_of(list_tg, {"a": "Object", "b": "Object"}, [])
    assert find_isomorphism(g, renamed_g)
    sem = SemSet()
    assert sem.add(h) and not sem.add(renamed_h)
    assert len(sem) == 1
    assert renamed_h in sem and renamed_g not in sem
    assert sem.add(g)  # different output shape, new member
    assert len(sem) == 2 and renamed_g in sem


# -- compiling diagrams ------------------------------------------------------


def test_compile_delete_next_object_shape():
    expr = compile_diagram(load_diagram("delete_next_object.diagram.json"))
    assert isinstance(expr, SeqExpr) and len(expr.parts) == 1
    outer = expr.parts[0]
    assert isinstance(outer, IfExpr)
    assert outer.cond.name == "has-two-followers"
    assert [p.rule.name for p in outer.then.parts] == ["unlink-next"]
    inner, tail = outer.orelse.parts
    assert isinstance(inner, IfExpr)
    assert inner.cond.name == "has-follower"
    assert [p.rule.name for p in inner.then.parts] == ["delete-next"]
    assert inner.orelse.parts == []
    assert tail.rule.name == "create-next"


def test_compile_while_star_shape():
    expr = compile_diagram(load_diagram("while_star.diagram.json"))
    loop, after = expr.parts
    assert isinstance(loop, WhileExpr)
    assert loop.cond.name == "pick-follower"
    assert [p.rule.name for p in loop.body.parts] == ["cut-edge"]
    assert isinstance(after, NodeExpr)


def test_compile_refuses_loops_that_recur_along_failure(list_tg):
    cfg = graph_of(
        load_diagram("while_star.diagram.json").cfg.tg,
        {
            "start": "StartNode",
            "head": "CFNode",
            "body": "CFNode",
            "tail": "CFNode",
            "stop": "StopNode",
        },
        [
            ("e1", "next", "start", "head"),
            ("e2", "failure", "head", "body"),
            ("e3", "next", "body", "head"),
            ("e4", "success", "head", "tail"),
            ("e5", "next", "tail", "stop"),
        ],
    )
    noop = ll_noop(list_tg)
    d = story_diagram(
        list_tg, cfg, {"head": noop, "body": noop, "tail": noop}
    )
    assert d.classification.kinds["head"] == "loop-head-failure"
    with pytest.raises(OracleError, match="failure"):
        compile_diagram(d)


# -- cross-checking runs -----------------------------------------------------


def run_fixture(diagram_name, model_name, this, **kw):
    d = load_diagram(diagram_name)
    model = load_model(model_name, d.tg)
    c, trace = run(initialize(d, model, this, **kw))
    return d, model, c, trace


def test_cross_check_accepts_the_minimal_run():
    d, model, _, trace = run_fixture(
        "minimal.diagram.json", "single.model.json", "o1"
    )
    v = cross_check(initialize(d, model, "o1"), trace)
    assert v.ok and v.pair_checked and v.pair_found
    assert v.divergences == []


def test_cross_check_accepts_an_all_success_branching_run():
    d, model, _, trace = run_fixture(
        "delete_next_object.diagram.json", "list3.model.json", "o1"
    )
    v = cross_check(initialize(d, model, "o1"), trace)
    assert v.ok and v.pair_found
    assert v.sem_size >= 1


def test_cross_check_documents_a_sequential_failure():
    d, model, c, trace = run_fixture(
        "two_node_seq.diagram.json", "single.model.json", "o1"
    )
    assert c.status == "error"
    v = cross_check(initialize(d, model, "o1"), trace)
    assert v.ok
    assert len(v.divergences) == 1
    assert "sequential pattern failed at 'second'" in v.divergences[0]
    assert not v.pair_checked


def test_cross_check_documents_a_binding_sensitive_branch(list_tg):
    # bind p to the chain's tail, then test p for a follower: the pinned
    # match fails although the unpinned pattern still matches elsewhere
    cfg = graph_of(
        load_diagram("minimal.diagram.json").cfg.tg,
        {
            "start": "StartNode",
            "bind": "CFNode",
            "cond": "CFNode",
            "branch": "CFNode",
            "join": "CFNode",
            "stop": "StopNode",
        },
        [
            ("e1", "next", "start", "bind"),
            ("e2", "next", "bind", "cond"),
            ("e3", "success", "cond", "branch"),
            ("e4", "next", "branch", "join"),
            ("e5", "failure", "cond", "join"),
            ("e6", "next", "join", "stop"),
        ],
    )
    shared = {"t": "Object", "p": "Object"}
    link = [("e", "next", "t", "p")]
    find_partner = pattern_of(
        rule_of(list_tg, "find-partner", shared, link, shared, link),
        {"t": "this", "p": "p"},
        {"this"},
    )
    pq = {"p": "Object", "q": "Object"}
    pq_link = [("e", "next", "p", "q")]
    partner_has_follower = pattern_of(
        rule_of(list_tg, "partner-has-follower", pq, pq_link, pq, pq_link),
        {"p": "p", "q": "q"},
        {"p"},
    )
    noop = ll_noop(list_tg)
    d = story_diagram(
        list_tg,
        cfg,
        {
            "bind": find_partner,
            "cond": partner_has_follower,
            "branch": noop,
            "join": noop,
        },
    )
    model = make_list(list_tg, 2)  # o1 -> o2, and o2 has no follower
    c, trace = run(initialize(d, model, "o1"))
    assert c.status == "terminated"
    cond_step = next(t for t in trace.steps if t.node == "cond")
    assert cond_step.outcome == "failed"
    v = cross_check(initialize(d, model, "o1"), trace)
    assert v.ok
    assert len(v.divergences) == 1
    assert "pinned" in v.divergences[0]


def test_cross_check_flags_a_tampered_trace():
    d, model, _, trace = run_fixture(
        "delete_next_object.diagram.json", "list3.model.json", "o1"
    )
    assert [t.node for t in trace.steps] == ["hasTwo", "unlink", "stopA"]
    forged = Trace([t for t in trace.steps if t.node != "unlink"])
    with pytest.raises(
        GraphError, match="at step 3 .* no longer applies: the token is at 'unlink'"
    ):
        cross_check(initialize(d, model, "o1"), forged)


def test_cross_check_flags_a_pair_missing_from_the_semantics(monkeypatch):
    d, model, _, trace = run_fixture(
        "delete_next_object.diagram.json", "list3.model.json", "o1"
    )
    monkeypatch.setattr(sdm.denot, "evaluate", lambda expr, g, depth: SemSet())
    v = cross_check(initialize(d, model, "o1"), trace)
    assert not v.ok
    assert v.pair_checked and v.pair_found is False
    assert "missing" in v.notes[0]


def test_cross_check_notes_an_unfinished_run():
    d = load_diagram("while_star.diagram.json")
    model = load_model("star5.model.json", d.tg)
    c, trace = run(initialize(d, model, "o0"), max_steps=3)
    v = cross_check(initialize(d, model, "o0"), trace)
    assert v.ok and not v.pair_checked
    assert any("did not terminate" in n for n in v.notes)


def test_cross_check_refuses_oversized_models(list_tg):
    d = load_diagram("minimal.diagram.json")
    model = make_list(list_tg, 7)
    c, trace = run(initialize(d, model, "o1"))
    with pytest.raises(OracleError, match="bound"):
        cross_check(initialize(d, model, "o1"), trace)
    # a raised bound lets the same instance through
    assert cross_check(initialize(d, model, "o1"), trace, model_bound=8).ok
