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

import itertools
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

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
    node_signatures,
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


@lru_cache(maxsize=1)
def _inverse_rules() -> tuple[tuple, ...]:
    """The reduction's table, largest right-hand side first: each rule with
    its created nodes, its right-hand side's node signatures and sorted
    node and edge ids, and its search copy with the copy's id of each node.
    The copy's ids sort the created nodes first, breadth-first from the
    first one, then `a` and `b`; the matcher binds nodes in id order, so it
    binds the nodes that must be exact before it branches over `a`."""
    rules = sorted(
        syntax_rules(), key=lambda r: (-len(r.rhs.nodes), -len(r.rhs.edges), r.name)
    )
    table = []
    for rule in rules:
        rhs, created = rule.rhs, rule.created_rhs_nodes()
        order = created[:1]
        for n in order:  # every rule's created nodes are linked among themselves
            for _, e in rhs.out_edges(n) + rhs.in_edges(n):
                order += [m for m in (e.src, e.trg) if m in created and m not in order]
        ids = {n: str(i) for i, n in enumerate(order + ["a", "b"])}
        copy = TypedGraph(
            rhs.tg,
            {ids[n]: t for n, t in rhs.nodes.items()},
            {eid: Edge(e.type, ids[e.src], ids[e.trg]) for eid, e in rhs.edges.items()},
        )
        sigs = node_signatures(rhs)
        table.append((rule, created, sigs, rhs.node_ids(), rhs.edge_ids(), copy, ids))
    return tuple(table)


def _is_start_graph(g: TypedGraph) -> bool:
    """Whether a three-node g is the start graph: edges start -> story ->
    stop join three distinct types, so they leave no room for more."""
    links = sorted((g.nodes[e.src], g.nodes[e.trg], e.type) for e in g.edges.values())
    return links == [(CF_NODE, STOP_NODE, NEXT), (START_NODE, CF_NODE, NEXT)]


def validate_control_flow(g: TypedGraph) -> CfgValidation:
    """Decide grammar membership by reducing g back to the start graph.

    Each reduction inverts one rule: it needs an injective image of the
    rule's right-hand side whose created nodes carry exactly their
    in-rule edges, removes that material, and restores the matched next
    edge under a fresh `r#k` id. Every inverse strictly shrinks the
    graph, so the search is bounded; it backtracks over all rules and
    matches with an isomorphism-keyed memo of dead ends, and accepts a
    three-node state whose two edges are those of the start graph.

    A match is exact when each created node's image has the node's
    signature (`node_signatures`) in the right-hand side, since the
    matched edges are an injective subset of the image's incident edges.
    So each state's nodes are indexed by signature once, and a rule is
    tried only at the nodes carrying its first created node's signature:
    that node, which every rule links to `a` through `e1`, is pinned to
    each of them in the rule's search copy (`_inverse_rules`). A rule's
    exact matches are tried in the lexicographic order of the rule's own
    ids, so the verdict and the witness are those of an unpinned search.
    """
    report = validate_typing(g, SYNTAX_TYPE_GRAPH)
    if not report.ok:
        return CfgValidation(False, "; ".join(report.violations))
    if ABSTRACT in g.nodes.values():
        return CfgValidation(False, "abstract node type instantiated")

    failed = IsoSet()
    restore_counter = itertools.count(1)

    def exact_matches(cur, sig, index, created, wanted, node_ids, edge_ids, copy, ids):
        anchor = created[0]  # n or c, linked to a through e1
        found = []
        for cand in index.get(wanted[anchor], ()):
            for copy_map, edge_map in _enumerate_monos(copy, cur, {ids[anchor]: cand}):
                node_map = {n: copy_map[ids[n]] for n in node_ids}
                if all(sig[node_map[n]] == wanted[n] for n in created):
                    key = (
                        tuple(node_map[n] for n in node_ids),
                        tuple(edge_map[e] for e in edge_ids),
                    )
                    found.append((key, node_map, edge_map))
        found.sort(key=lambda m: m[0])
        return [(node_map, edge_map) for _, node_map, edge_map in found]

    def reductions(cur: TypedGraph) -> Iterator[tuple[TypedGraph, DerivationStep]]:
        """Every inverse rule application to cur, in search order."""
        sig, index = node_signatures(cur), {}
        for n, s in sig.items():
            index.setdefault(s, []).append(n)
        for rule, created, *inverse in _inverse_rules():
            for node_map, edge_map in exact_matches(cur, sig, index, created, *inverse):
                # undo: drop created nodes and matched edges, restore a -> b
                # under the next r#k that no element kept from cur uses
                drop = {node_map[n] for n in created} | set(edge_map.values())
                rid = f"r#{next(restore_counter)}"
                while rid not in drop and (rid in cur.nodes or rid in cur.edges):
                    rid = f"r#{next(restore_counter)}"
                restore = Edge(NEXT, node_map["a"], node_map["b"])
                yield TypedGraph._derive(cur, drop, {}, {rid: restore}), DerivationStep(
                    rule.name,
                    node_map["a"],
                    node_map["b"],
                    {n: node_map[n] for n in created},
                )

    # depth-first on an explicit stack, since a chain of n story nodes takes
    # n reductions in a row; a frame is a state on the search path, its
    # untried reductions and the step into it
    if len(g.nodes) == 3 and _is_start_graph(g):
        return CfgValidation(True, derivation=[], base=g)
    frames = [(g, reductions(g), None)] if len(g.nodes) > 3 else []
    while frames:
        state, pending, _ = frames[-1]
        child, step = next(pending, (None, None))
        if child is None:
            failed.add(state)
            frames.pop()
        elif len(child.nodes) == 3 and _is_start_graph(child):
            steps = [step, *(into for _, _, into in reversed(frames[1:]))]
            return CfgValidation(True, derivation=steps, base=child)
        elif len(child.nodes) > 3 and child not in failed:
            frames.append((child, reductions(child), step))
    return CfgValidation(False, "not reducible to the start graph")


@dataclass(slots=True)
class NodeClassification:
    """Per-story-node control-flow roles in a validated graph."""

    kinds: dict[str, str]
    joins: dict[str, str]  # joining conditional -> join node
    branch_members: dict[str, dict[str, set[str]]]  # conditional -> polarity -> nodes
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
    it was inserted before. Branch members are the story nodes each
    branch reaches; a loop's members are the body nodes that flow back
    to its head.
    """
    if not validation.ok:
        raise GraphError(f"cannot classify an invalid graph: {validation.reason}")
    start = next(n for n, t in g.nodes.items() if t == START_NODE)
    first = g.out_edges(start)[0][1].trg
    kinds = {n: SEQUENTIAL for n in sorted(g.nodes) if g.nodes[n] == CF_NODE}
    joins: dict[str, str] = {}
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
            kinds[n] = COND_NONJOINING
            branch_members[n] = {
                SUCCESS: cf_only(_reach(g, [succ], {n})),
                FAILURE: cf_only(_reach(g, [fail], {n})),
            }

    return NodeClassification(
        kinds=kinds, joins=joins, branch_members=branch_members, first=first
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
