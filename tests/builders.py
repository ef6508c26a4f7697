"""Builders for story diagrams assembled in code.

Complements conftest: these helpers construct rules, patterns, and
fully analyzed diagrams with identity maps filled in, so tests state
only what matters. Fixture files on disk live under FIXTURES.
"""

from __future__ import annotations

import random
from pathlib import Path

from sdm.diagram import StoryDiagram, StoryPattern, validate_binding_marks
from sdm.graph import Edge, GraphBuilder, PartialMorphism, TypedGraph, TypeGraph
from sdm.interp import Configuration
from sdm.rewrite import Rule
from sdm.syntax import SYNTAX_TYPE_GRAPH, classify_nodes, validate_control_flow

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
RULES_DIR = Path(__file__).resolve().parent.parent / "rules"


def graph_of(
    tg: TypeGraph,
    nodes: dict[str, str],
    edges: list[tuple[str, str, str, str]] = (),
) -> TypedGraph:
    b = GraphBuilder(tg)
    for nid, ntype in nodes.items():
        b.node(nid, ntype)
    for eid, etype, src, trg in edges:
        b.edge(eid, etype, src, trg)
    return b.build()


def cfg_of(
    nodes: dict[str, str], edges: list[tuple[str, str, str, str]]
) -> TypedGraph:
    return graph_of(SYNTAX_TYPE_GRAPH, nodes, edges)


def rule_of(
    tg: TypeGraph,
    name: str,
    lhs_nodes: dict[str, str],
    lhs_edges: list[tuple[str, str, str, str]],
    rhs_nodes: dict[str, str],
    rhs_edges: list[tuple[str, str, str, str]],
) -> Rule:
    """Rule whose mapping is the identity on ids shared by both sides."""
    lhs = graph_of(tg, lhs_nodes, lhs_edges)
    rhs = graph_of(tg, rhs_nodes, rhs_edges)
    node_map = {n: n for n in lhs.nodes if n in rhs.nodes}
    edge_map = {e: e for e in lhs.edges if e in rhs.edges}
    return Rule(name, lhs, rhs, PartialMorphism(lhs, rhs, node_map, edge_map))


def pattern_of(
    rule: Rule, names: dict[str, str], bound: set[str] = frozenset()
) -> StoryPattern:
    """names maps every rule element id (both sides) to its variable name."""
    lhs_names = {n: names[n] for n in rule.lhs.nodes}
    rhs_names = {n: names[n] for n in rule.rhs.nodes}
    return StoryPattern(rule, lhs_names, rhs_names, frozenset(bound))


def story_diagram(
    tg: TypeGraph,
    cfg: TypedGraph,
    patterns: dict[str, StoryPattern],
    params: list[tuple[str, str]] | None = None,
) -> StoryDiagram:
    """Assemble and fully analyze; asserts the diagram is valid."""
    verdict = validate_control_flow(cfg)
    assert verdict.ok, verdict.reason
    d = StoryDiagram(
        tg,
        cfg,
        patterns,
        params or [("this", "Object")],
        verdict,
        classify_nodes(cfg, verdict),
    )
    report = validate_binding_marks(d)
    assert report.ok, report.violations
    return d


def bindings_in_scope(c: Configuration) -> dict[str, str]:
    """Variable name to model node id in the current scope instance."""
    return {name: rec.model_node for name, rec in c.stack[-1].bindings.items()}


def ll_noop(tg: TypeGraph) -> StoryPattern:
    """Identity pattern on a single bound `this` node."""
    rule = rule_of(tg, "touch-this", {"t": "Object"}, [], {"t": "Object"}, [])
    return pattern_of(rule, {"t": "this"}, {"this"})


def seq_cfg(*story_nodes: str) -> TypedGraph:
    """start -> n1 -> ... -> nk -> stop as a control flow graph."""
    nodes = {"start": "StartNode", "stop": "StopNode"}
    nodes.update({n: "CFNode" for n in story_nodes})
    chain = ["start", *story_nodes, "stop"]
    edges = [
        (f"e{i}", "next", chain[i], chain[i + 1]) for i in range(len(chain) - 1)
    ]
    return cfg_of(nodes, edges)


def while_cfg() -> TypedGraph:
    """start -> head (success: body -> head, failure: tail) -> stop."""
    return cfg_of(
        {
            "start": "StartNode",
            "head": "CFNode",
            "body": "CFNode",
            "tail": "CFNode",
            "stop": "StopNode",
        },
        [
            ("e1", "next", "start", "head"),
            ("e2", "success", "head", "body"),
            ("e3", "next", "body", "head"),
            ("e4", "failure", "head", "tail"),
            ("e5", "next", "tail", "stop"),
        ],
    )


def joining_cfg() -> TypedGraph:
    """start -> cond (success: branch -> join, failure: join) -> stop."""
    return cfg_of(
        {
            "start": "StartNode",
            "cond": "CFNode",
            "branch": "CFNode",
            "join": "CFNode",
            "stop": "StopNode",
        },
        [
            ("e1", "next", "start", "cond"),
            ("e2", "success", "cond", "branch"),
            ("e3", "next", "branch", "join"),
            ("e4", "failure", "cond", "join"),
            ("e5", "next", "join", "stop"),
        ],
    )


class GrownCfg:
    """A control-flow graph grown by the grammar's insertions at `next`
    edges, with node and edge ids that sort in creation order."""

    def __init__(self) -> None:
        self.count = 0
        self.nodes: dict[str, str] = {}
        self.edges: dict[str, tuple[str, str, str]] = {}
        start, story, stop = self._node("StartNode"), self._node("CFNode"), self._node("StopNode")
        self._edge("next", start, story)
        self.tail = self._edge("next", story, stop)

    def _node(self, ntype: str) -> str:
        self.count += 1
        nid = f"c{self.count:04d}"
        self.nodes[nid] = ntype
        return nid

    def _edge(self, etype: str, src: str, trg: str) -> str:
        self.count += 1
        eid = f"f{self.count:04d}"
        self.edges[eid] = (etype, src, trg)
        return eid

    def insert_node(self, eid: str) -> tuple[str, str]:
        """a -> b becomes a -> n -> b; returns a -> n and n -> b."""
        _, a, b = self.edges.pop(eid)
        n = self._node("CFNode")
        return self._edge("next", a, n), self._edge("next", n, b)

    def if_then(self, eid: str) -> tuple[str, str]:
        """a -> c, c -success-> s -> b, c -failure-> b; returns a -> c and s -> b."""
        _, a, b = self.edges.pop(eid)
        c, s = self._node("CFNode"), self._node("CFNode")
        self._edge("success", c, s)
        self._edge("failure", c, b)
        return self._edge("next", a, c), self._edge("next", s, b)

    def while_body(self, eid: str) -> tuple[str, str]:
        """a -> c, c -success-> x -> c, c -failure-> b; returns a -> c and x -> c."""
        _, a, b = self.edges.pop(eid)
        c, x = self._node("CFNode"), self._node("CFNode")
        self._edge("success", c, x)
        self._edge("failure", c, b)
        return self._edge("next", a, c), self._edge("next", x, c)

    def grow(self, size: int, blocks: list, pick: int) -> "GrownCfg":
        # each block goes in at the edge the previous one returned; an odd
        # leftover node becomes one plain story node
        site, turn = self.tail, 0
        while size - len(self.nodes) >= 2:
            site = blocks[turn % len(blocks)](site)[pick]
            turn += 1
        while len(self.nodes) < size:
            site = self.insert_node(site)[0]
        return self

    def mutate(self) -> "GrownCfg":
        """Redirect the start edge past the first story node, which is
        then unreachable."""
        eid, (_, start, first) = next(
            (eid, e) for eid, e in self.edges.items() if self.nodes[e[1]] == "StartNode"
        )
        (after,) = [d for _, s, d in self.edges.values() if s == first]
        self.edges[eid] = ("next", start, after)
        return self

    def build(self) -> TypedGraph:
        return cfg_of(self.nodes, [(e, t, s, d) for e, (t, s, d) in self.edges.items()])


# chains and ladders put each block before the previous one; the nested
# mix puts a loop in an if-then branch, an if-then in that loop's body,
# and so on
CFG_SHAPES = {
    "chain": lambda g, n: g.grow(n, [g.insert_node], 0),
    "ifthen": lambda g, n: g.grow(n, [g.if_then], 0),
    "while": lambda g, n: g.grow(n, [g.while_body], 0),
    "nested": lambda g, n: g.grow(n, [g.if_then, g.while_body], 1),
}


def cfg_of_shape(shape: str, size: int) -> GrownCfg:
    return CFG_SHAPES[shape](GrownCfg(), size)


def redirect_next_edge(rng: random.Random, g: TypedGraph) -> TypedGraph:
    """A copy of g with one random `next` edge s -> t redirected to a
    random successor of t."""
    sites = [
        (eid, e)
        for eid, e in sorted(g.edges.items())
        if e.type == "next" and g.out_edges(e.trg)
    ]
    eid, e = rng.choice(sites)
    _, after = rng.choice(g.out_edges(e.trg))
    edges = dict(g.edges)
    edges[eid] = Edge("next", e.src, after.trg)
    return TypedGraph(g.tg, g.nodes, edges)
