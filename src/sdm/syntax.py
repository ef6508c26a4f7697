"""Control-flow graphs for story diagrams, as a graph grammar.

The grammar grows a minimal start graph (start, one story node, stop)
by inserting structure into existing `next` edges: plain nodes,
conditionals whose branches join or dead-end in fresh stop nodes, and
head-controlled loops in either polarity. Membership is decided by
backward reduction, whose derivation witness also classifies a member's
nodes for the interpreter: the rule that created a node says whether it
heads a conditional or a loop.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .graph import (
    Edge,
    EdgeType,
    GraphBuilder,
    GraphError,
    IsoSet,
    PartialMorphism,
    TypedGraph,
    TypeGraph,
    _enumerate_monos,
    find_isomorphism,
    validate_typing,
)
from .rewrite import (
    GraphGrammar,
    Rule,
    rule_to_dict,
)

ABSTRACT = "AbstractNode"
CF_NODE = "CFNode"
START_NODE = "StartNode"
STOP_NODE = "StopNode"
NEXT = "next"
SUCCESS = "success"
FAILURE = "failure"

SEQUENTIAL = "sequential"
COND_JOINING = "conditional-joining"
COND_NONJOINING = "conditional-nonjoining"
LOOP_HEAD_SUCCESS = "loop-head-success"
LOOP_HEAD_FAILURE = "loop-head-failure"

KIND_SEQUENTIAL = "sequential"
KIND_JOINING = "joining"
KIND_NONJOINING = "non-joining"
KIND_WHILE = "while"


def syntax_type_graph() -> TypeGraph:
    """Type graph for control-flow graphs: three node kinds, three edges."""
    return TypeGraph(
        "ControlFlowSyntax",
        {
            ABSTRACT: None,
            CF_NODE: ABSTRACT,
            START_NODE: ABSTRACT,
            STOP_NODE: ABSTRACT,
        },
        {
            NEXT: EdgeType(ABSTRACT, ABSTRACT),
            SUCCESS: EdgeType(ABSTRACT, ABSTRACT),
            FAILURE: EdgeType(ABSTRACT, ABSTRACT),
        },
    )


SYNTAX_TYPE_GRAPH = syntax_type_graph()


def start_graph() -> TypedGraph:
    """Minimal valid control flow: start, one story node, stop."""
    return (
        GraphBuilder(SYNTAX_TYPE_GRAPH)
        .node("start", START_NODE)
        .node("story", CF_NODE)
        .node("stop", STOP_NODE)
        .edge("e1", NEXT, "start", "story")
        .edge("e2", NEXT, "story", "stop")
        .build()
    )


def _shared_lhs() -> TypedGraph:
    # the one left-hand side every rule shares: a -next-> b
    return (
        GraphBuilder(SYNTAX_TYPE_GRAPH)
        .node("a", ABSTRACT)
        .node("b", ABSTRACT)
        .edge("ab", NEXT, "a", "b")
        .build()
    )


def _make_rule(
    name: str,
    new_nodes: list[tuple[str, str]],
    new_edges: list[tuple[str, str, str, str]],
) -> Rule:
    """Build an insertion rule: delete a-next->b, add the given material."""
    lhs = _shared_lhs()
    rhs_builder = GraphBuilder(SYNTAX_TYPE_GRAPH).node("a", ABSTRACT).node(
        "b", ABSTRACT
    )
    for nid, ntype in new_nodes:
        rhs_builder.node(nid, ntype)
    for eid, etype, src, trg in new_edges:
        rhs_builder.edge(eid, etype, src, trg)
    rhs = rhs_builder.build()
    mapping = PartialMorphism(lhs, rhs, {"a": "a", "b": "b"}, {})
    return Rule(name, lhs, rhs, mapping)


def _mirror(rule: Rule, kind: str) -> tuple[Rule, str]:
    """Swap success and failure throughout the right-hand side."""
    swap = {SUCCESS: FAILURE, FAILURE: SUCCESS}
    flipped = {SUCCESS: "failure", FAILURE: "success"}
    new_edges = [
        (eid, swap.get(e.type, e.type), e.src, e.trg)
        for eid, e in sorted(rule.rhs.edges.items())
    ]
    new_nodes = [
        (nid, t) for nid, t in sorted(rule.rhs.nodes.items()) if nid not in ("a", "b")
    ]
    name = rule.name
    for old, new in (("success", "\0"), ("failure", "success"), ("\0", "failure")):
        name = name.replace(old, new)
    return _make_rule(name, new_nodes, new_edges), kind


@lru_cache(maxsize=1)
def _rules_with_kinds() -> tuple[tuple[Rule, str], ...]:
    out: list[tuple[Rule, str]] = []

    out.append(
        (
            _make_rule(
                "insert-node",
                [("n", CF_NODE)],
                [("e1", NEXT, "a", "n"), ("e2", NEXT, "n", "b")],
            ),
            KIND_SEQUENTIAL,
        )
    )

    # branches rejoin at b; the success branch carries one story node,
    # failure skips straight to the join (if-then, no else)
    out.append(
        (
            _make_rule(
                "if-then",
                [("c", CF_NODE), ("s", CF_NODE)],
                [
                    ("e1", NEXT, "a", "c"),
                    ("e2", SUCCESS, "c", "s"),
                    ("e3", NEXT, "s", "b"),
                    ("e4", FAILURE, "c", "b"),
                ],
            ),
            KIND_JOINING,
        )
    )

    # non-joining conditionals: one branch continues to b, the other
    # dead-ends in a fresh stop node, bare or behind one story node
    for base in (
        _make_rule(
            "branch-failure-stop",
            [("c", CF_NODE), ("t", STOP_NODE)],
            [
                ("e1", NEXT, "a", "c"),
                ("e2", SUCCESS, "c", "b"),
                ("e3", FAILURE, "c", "t"),
            ],
        ),
        _make_rule(
            "branch-failure-node-stop",
            [("c", CF_NODE), ("f", CF_NODE), ("t", STOP_NODE)],
            [
                ("e1", NEXT, "a", "c"),
                ("e2", SUCCESS, "c", "b"),
                ("e3", FAILURE, "c", "f"),
                ("e4", NEXT, "f", "t"),
            ],
        ),
    ):
        out.append((base, KIND_NONJOINING))
        out.append(_mirror(base, KIND_NONJOINING))

    # head-controlled loops; the exit edge either continues directly to
    # b or passes through one story node first
    for base in (
        _make_rule(
            "while-success-direct",
            [("c", CF_NODE)],
            [
                ("e1", NEXT, "a", "c"),
                ("e2", SUCCESS, "c", "c"),
                ("e3", FAILURE, "c", "b"),
            ],
        ),
        _make_rule(
            "while-success-body",
            [("c", CF_NODE), ("x", CF_NODE)],
            [
                ("e1", NEXT, "a", "c"),
                ("e2", SUCCESS, "c", "x"),
                ("e3", NEXT, "x", "c"),
                ("e4", FAILURE, "c", "b"),
            ],
        ),
        _make_rule(
            "while-success-direct-exit-node",
            [("c", CF_NODE), ("f", CF_NODE)],
            [
                ("e1", NEXT, "a", "c"),
                ("e2", SUCCESS, "c", "c"),
                ("e3", FAILURE, "c", "f"),
                ("e4", NEXT, "f", "b"),
            ],
        ),
        _make_rule(
            "while-success-body-two",
            [("c", CF_NODE), ("x1", CF_NODE), ("x2", CF_NODE)],
            [
                ("e1", NEXT, "a", "c"),
                ("e2", SUCCESS, "c", "x1"),
                ("e3", NEXT, "x1", "x2"),
                ("e4", NEXT, "x2", "c"),
                ("e5", FAILURE, "c", "b"),
            ],
        ),
        _make_rule(
            "while-success-body-exit-node",
            [("c", CF_NODE), ("x", CF_NODE), ("f", CF_NODE)],
            [
                ("e1", NEXT, "a", "c"),
                ("e2", SUCCESS, "c", "x"),
                ("e3", NEXT, "x", "c"),
                ("e4", FAILURE, "c", "f"),
                ("e5", NEXT, "f", "b"),
            ],
        ),
    ):
        out.append((base, KIND_WHILE))
        out.append(_mirror(base, KIND_WHILE))

    return tuple(out)


def syntax_rules() -> tuple[Rule, ...]:
    """The sixteen construction rules, deterministic order."""
    return tuple(rule for rule, _ in _rules_with_kinds())


def rule_kinds() -> dict[str, str]:
    """Rule name to category: sequential, joining, non-joining, while."""
    return {rule.name: kind for rule, kind in _rules_with_kinds()}


def syntax_grammar() -> GraphGrammar:
    return GraphGrammar(start_graph(), syntax_rules())


def export_rules(directory: str) -> list[str]:
    """Write each rule to <directory>/<name>.json; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for rule in syntax_rules():
        path = os.path.join(directory, f"{rule.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rule_to_dict(rule), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


@dataclass(slots=True)
class DerivationStep:
    """One forward construction step: rule applied at the edge a -> b.

    `created` names the images the inserted nodes carry in the validated
    graph, keyed by right-hand-side id, so a replay can translate later
    steps that hang new material off earlier insertions.
    """

    rule: str
    a: str
    b: str
    created: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class CfgValidation:
    """Result of control-flow validation, with a derivation witness."""

    ok: bool
    reason: str = ""
    derivation: list[DerivationStep] = field(default_factory=list)
    base: Optional[TypedGraph] = None  # the embedded copy of the start graph


def _degree_index(g: TypedGraph) -> tuple[dict[str, int], dict[int, list[str]]]:
    """Each node's degree, a self-loop counted on both sides, and the nodes
    of each degree in g's node order."""
    outs, ins = g._index()
    degree: dict[str, int] = {}
    by_degree: dict[int, list[str]] = {}
    for n in g.nodes:
        d = degree[n] = len(outs.get(n, ())) + len(ins.get(n, ()))
        by_degree.setdefault(d, []).append(n)
    return degree, by_degree


@lru_cache(maxsize=1)
def _inverse_rules() -> tuple[tuple, ...]:
    """The reduction's table, largest right-hand side first: each rule with
    its created nodes, its right-hand side's node degrees, and its sorted
    node and edge ids."""
    rules = sorted(
        syntax_rules(), key=lambda r: (-len(r.rhs.nodes), -len(r.rhs.edges), r.name)
    )
    table = []
    for rule in rules:
        rhs = rule.rhs
        created, degree = rule.created_rhs_nodes(), _degree_index(rhs)[0]
        table.append((rule, created, degree, rhs.node_ids(), rhs.edge_ids()))
    return tuple(table)


def validate_control_flow(g: TypedGraph) -> CfgValidation:
    """Decide grammar membership by reducing g back to the start graph.

    Each reduction inverts one rule: it needs an injective image of the
    rule's right-hand side whose created nodes carry exactly their
    in-rule edges, removes that material, and restores the matched next
    edge under a fresh `r#k` id. Every inverse strictly shrinks the
    graph, so the search is bounded; it backtracks over all rules and
    matches with an isomorphism-keyed memo of dead ends.

    A match is exact when each created node's image has the node's
    degree in the right-hand side, since the matched edges are an
    injective subset of the image's incident edges. So each state's
    nodes are indexed by degree once, and the search for a rule pins its
    first created node, which every rule links to `a` through `e1`, to
    each host node of that exact degree, and tries the exact matches in
    the matcher's lexicographic order.
    """
    report = validate_typing(g, SYNTAX_TYPE_GRAPH)
    if not report.ok:
        return CfgValidation(False, "; ".join(report.violations))
    if ABSTRACT in g.nodes.values():
        return CfgValidation(False, "abstract node type instantiated")

    target = start_graph()
    failed = IsoSet()
    restore_counter = [0]

    def exact_matches(cur, index, rule, created, wanted, node_ids, edge_ids):
        degree, by_degree = index
        anchor = created[0]  # n or c, linked to a through e1
        anchor_type = rule.rhs.nodes[anchor]
        found = []
        for cand in by_degree.get(wanted[anchor], ()):
            if not cur.tg.conforms(cur.nodes[cand], anchor_type):
                continue
            for node_map, edge_map in _enumerate_monos(rule.rhs, cur, {anchor: cand}):
                if all(degree[node_map[n]] == wanted[n] for n in created):
                    key = (
                        tuple(node_map[n] for n in node_ids),
                        tuple(edge_map[e] for e in edge_ids),
                    )
                    found.append((key, node_map, edge_map))
        found.sort(key=lambda m: m[0])
        return [(node_map, edge_map) for _, node_map, edge_map in found]

    def restore_id(cur: TypedGraph, drop: set[str]) -> str:
        # the next r#k that no element kept from cur already uses
        while True:
            restore_counter[0] += 1
            rid = f"r#{restore_counter[0]}"
            if rid in drop or (rid not in cur.nodes and rid not in cur.edges):
                return rid

    def search(cur: TypedGraph) -> Optional[tuple[TypedGraph, list[DerivationStep]]]:
        if len(cur.nodes) == len(target.nodes):
            if find_isomorphism(cur, target):
                return cur, []
            return None
        if len(cur.nodes) < len(target.nodes) or cur in failed:
            return None
        index = _degree_index(cur)
        for inverse in _inverse_rules():
            rule, created = inverse[:2]
            for node_map, edge_map in exact_matches(cur, index, *inverse):
                # undo: drop created nodes and matched edges, restore a -> b
                drop = {node_map[n] for n in created} | set(edge_map.values())
                restore = Edge(NEXT, node_map["a"], node_map["b"])
                reduced = TypedGraph._derive(
                    cur, drop, {}, {restore_id(cur, drop): restore}
                )
                found = search(reduced)
                if found is not None:
                    base, steps = found
                    steps.append(
                        DerivationStep(
                            rule.name,
                            node_map["a"],
                            node_map["b"],
                            {n: node_map[n] for n in created},
                        )
                    )
                    return base, steps
        failed.add(cur)
        return None

    found = search(g)
    if found is None:
        return CfgValidation(False, "not reducible to the start graph")
    base, steps = found
    return CfgValidation(True, derivation=steps, base=base)


@dataclass(slots=True)
class NodeClassification:
    """Per-story-node control-flow roles in a validated graph."""

    kinds: dict[str, str]
    joins: dict[str, str]  # joining conditional -> join node
    branch_stops: dict[str, dict[str, set[str]]]  # non-joining -> polarity -> stops
    branch_members: dict[str, dict[str, set[str]]]  # conditional -> polarity -> nodes
    start: str
    first: str  # the node the start edge points at


def _reach(g: TypedGraph, sources: list[str], blocked: set[str]) -> set[str]:
    seen: set[str] = set()
    stack = [s for s in sources if s not in blocked]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        for _, e in g.out_edges(n):
            if e.trg not in blocked and e.trg not in seen:
                stack.append(e.trg)
    return seen


def classify_nodes(g: TypedGraph, validation: CfgValidation) -> NodeClassification:
    """Assign every story node its role, read off g's derivation witness.

    The heads of conditionals and loops are the `c` nodes that joining,
    non-joining and while rules created, and an if-then joins at the `b`
    it was inserted before. Branch members and stops are what each
    branch reaches; a loop's members are the body nodes that flow back
    to its head.
    """
    if not validation.ok:
        raise GraphError(f"cannot classify an invalid graph: {validation.reason}")
    start = next(n for n, t in g.nodes.items() if t == START_NODE)
    first = g.out_edges(start)[0][1].trg
    kinds = {n: SEQUENTIAL for n in sorted(g.nodes) if g.nodes[n] == CF_NODE}
    joins: dict[str, str] = {}
    branch_stops: dict[str, dict[str, set[str]]] = {}
    branch_members: dict[str, dict[str, set[str]]] = {}

    def cf_only(nodes: set[str]) -> set[str]:
        return {n for n in nodes if g.nodes[n] == CF_NODE}

    rule_kind = rule_kinds()
    heads = {s.created["c"]: s for s in validation.derivation if "c" in s.created}
    for n, step in sorted(heads.items()):
        kind = rule_kind[step.rule]
        succ, fail = branch_targets(g, n)
        if kind == KIND_WHILE:
            polarity = SUCCESS if step.rule.startswith("while-success") else FAILURE
            other, body = (FAILURE, succ) if polarity == SUCCESS else (SUCCESS, fail)
            reach = _reach(g, [body], {n})
            members: set[str] = set()
            stack = [e.src for _, e in g.in_edges(n) if e.src in reach]
            while stack:
                w = stack.pop()
                if w not in members:
                    members.add(w)
                    stack.extend(e.src for _, e in g.in_edges(w) if e.src != n)
            kinds[n] = LOOP_HEAD_SUCCESS if polarity == SUCCESS else LOOP_HEAD_FAILURE
            branch_members[n] = {polarity: cf_only(members), other: set()}
        elif kind == KIND_JOINING:
            kinds[n], joins[n] = COND_JOINING, step.b
            branch_members[n] = {
                SUCCESS: cf_only(_reach(g, [succ], {n, step.b})),
                FAILURE: cf_only(_reach(g, [fail], {n, step.b})),
            }
        else:
            r_succ, r_fail = _reach(g, [succ], {n}), _reach(g, [fail], {n})
            kinds[n] = COND_NONJOINING
            branch_members[n] = {SUCCESS: cf_only(r_succ), FAILURE: cf_only(r_fail)}
            branch_stops[n] = {
                SUCCESS: {m for m in r_succ if g.nodes[m] == STOP_NODE},
                FAILURE: {m for m in r_fail if g.nodes[m] == STOP_NODE},
            }

    return NodeClassification(
        kinds=kinds,
        joins=joins,
        branch_stops=branch_stops,
        branch_members=branch_members,
        start=start,
        first=first,
    )


def branch_targets(g: TypedGraph, n: str) -> tuple[str, str]:
    """(success target, failure target) of a conditional node."""
    succ = fail = None
    for _, e in g.out_edges(n):
        if e.type == SUCCESS:
            succ = e.trg
        elif e.type == FAILURE:
            fail = e.trg
    if succ is None or fail is None:
        raise GraphError(f"node {n!r} is not a conditional")
    return succ, fail


def next_target(g: TypedGraph, n: str) -> str:
    for _, e in g.out_edges(n):
        if e.type == NEXT:
            return e.trg
    raise GraphError(f"node {n!r} has no next edge")
