"""Single-pushout rewriting of typed graphs.

A rule is a partial injective morphism between left- and right-hand
graphs, optionally guarded by negative application conditions. Deleting
a node deletes its incident edges. Matches are total injective and
enumerated in lexicographic order so every consumer is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graph import (
    Edge,
    FormatError,
    GraphError,
    IsoSet,
    PartialMorphism,
    TypedGraph,
    TypeGraph,
    _check_names,
    _enumerate_monos,
    graph_from_dict,
    iso_signature,
)


class StaleMatchError(GraphError):
    """The match was found in another graph than the host it is applied to."""


@dataclass(slots=True)
class NAC:
    """Negative condition: an extension of L whose image forbids a match."""

    graph: TypedGraph
    embedding: PartialMorphism  # total injective L -> graph

    def __post_init__(self) -> None:
        if not self.embedding.is_total() or not self.embedding.is_injective():
            raise GraphError("NAC embedding must be total and injective")
        if self.embedding.dst is not self.graph:
            raise GraphError("NAC embedding must target the NAC graph")


class Rule:
    """SPO rule: lhs, rhs, and an injective partial mapping between them."""

    def __init__(
        self,
        name: str,
        lhs: TypedGraph,
        rhs: TypedGraph,
        mapping: PartialMorphism,
        nacs: tuple[NAC, ...] = (),
    ) -> None:
        if lhs.tg != rhs.tg:
            raise GraphError("rule sides must share one type graph")
        if mapping.src is not lhs or mapping.dst is not rhs:
            raise GraphError("rule mapping must run from lhs to rhs")
        if not mapping.is_injective():
            raise GraphError("rule mapping must be injective on its domain")
        for nac in nacs:
            if nac.embedding.src is not lhs:
                raise GraphError("NAC embedding must start at the rule lhs")
            if nac.graph.tg != lhs.tg:
                raise GraphError("NAC graph must share the rule's type graph")
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.mapping = mapping
        self.nacs = tuple(nacs)
        # what every application needs, in id order; the sides never change
        self._deleted_nodes = tuple(
            n for n in lhs.node_ids() if n not in mapping.node_map
        )
        self._deleted_edges = tuple(
            e for e in lhs.edge_ids() if e not in mapping.edge_map
        )
        node_image = set(mapping.node_map.values())
        self._created_nodes = tuple(n for n in rhs.node_ids() if n not in node_image)
        edge_image = set(mapping.edge_map.values())
        self._created_edges = tuple(
            rhs.edges[e] for e in rhs.edge_ids() if e not in edge_image
        )
        # the lhs nodes whose images decide the result: the deleted ones, the
        # ends of deleted edges and the preserved ends of created edges
        pre = {r: l for l, r in mapping.node_map.items()}
        ends = [(lhs.edges[e].src, lhs.edges[e].trg) for e in self._deleted_edges]
        ends += [(pre.get(e.src), pre.get(e.trg)) for e in self._created_edges]
        touched = set(self._deleted_nodes).union(*ends)
        self._touched_nodes = tuple(n for n in lhs.node_ids() if n in touched)

    def deleted_lhs_nodes(self) -> list[str]:
        return list(self._deleted_nodes)

    def created_rhs_nodes(self) -> list[str]:
        return list(self._created_nodes)

    def __repr__(self) -> str:
        return f"Rule({self.name!r})"


@dataclass(slots=True)
class Match:
    """A total injective occurrence of a rule's lhs in `host`, as plain
    maps. The matcher that found it guarantees typing and structure, so
    nothing checks them again."""

    rule: Rule
    node_map: dict[str, str]  # lhs node -> host node
    edge_map: dict[str, str]  # lhs edge -> host edge
    host: TypedGraph


@dataclass(slots=True)
class ApplyResult:
    """Outcome of one rule application. Survivors keep their ids, so the
    host's ids outside `deleted` are exactly its ids left in `result`."""

    result: TypedGraph
    created: set[str]
    deleted: set[str]
    rhs_node_map: dict[str, str]  # rhs -> result (the derived match m')


class GraphGrammar:
    """A start graph together with a set of rules over one type graph."""

    def __init__(self, start: TypedGraph, rules: tuple[Rule, ...]) -> None:
        for rule in rules:
            if rule.lhs.tg != start.tg:
                raise GraphError(f"rule {rule.name!r} typed over a foreign type graph")
        self.start = start
        self.rules = tuple(rules)


@dataclass(slots=True)
class LanguageResult:
    """Graphs reachable within a node bound, up to isomorphism."""

    graphs: list[TypedGraph]
    members: IsoSet
    warnings: list[str] = field(default_factory=list)


def check_nac(nac: NAC, match: Match) -> bool:
    """True if the match is allowed; False if a forbidding witness exists.

    A witness is an injective morphism q from the NAC graph into the host
    agreeing with the match on the embedded lhs.
    """
    host = match.host
    forced_nodes = {nac.embedding.node_map[l]: n for l, n in match.node_map.items()}
    forced_edges = {nac.embedding.edge_map[l]: e for l, e in match.edge_map.items()}
    for _ in _enumerate_monos(nac.graph, host, forced_nodes, forced_edges):
        return False
    return True


def find_matches(
    rule: Rule,
    host: TypedGraph,
    partial: Optional[dict[str, str]] = None,
    first: bool = False,
) -> list[Match]:
    """All NAC-respecting total injective matches, lexicographically
    ordered, each as the maps the matcher found.

    `partial` pins lhs nodes to host nodes ahead of the search; it must
    be injective and type-consistent. With `first`, the search stops at
    the head of that order and returns at most one match.
    """
    if rule.lhs.tg != host.tg:
        raise GraphError("rule and host must share one type graph")
    partial = dict(partial or {})
    if len(set(partial.values())) != len(partial):
        raise GraphError("partial assignment must be injective")
    for ln, hn in partial.items():
        if ln not in rule.lhs.nodes:
            raise GraphError(f"partial assignment names unknown lhs node {ln!r}")
        if hn not in host.nodes:
            raise GraphError(f"partial assignment targets unknown host node {hn!r}")
        if not host.tg.conforms(host.nodes[hn], rule.lhs.nodes[ln]):
            raise GraphError(
                f"partial assignment {ln!r} -> {hn!r} is type-inconsistent"
            )

    # the search yields in lexicographic order already, so the list needs
    # no sort and its head is the first NAC-respecting occurrence
    matches = []
    for node_map, edge_map in _enumerate_monos(rule.lhs, host, partial):
        match = Match(rule, node_map, edge_map, host)
        if all(check_nac(nac, match) for nac in rule.nacs):
            matches.append(match)
            if first:
                break
    return matches


def apply_rule(rule: Rule, match: Match, host: TypedGraph) -> ApplyResult:
    """Apply the rule at the match: delete, then glue fresh rhs material.

    Deleted elements are the images of lhs elements outside the rule
    mapping plus every edge incident to a deleted node. Survivors keep
    their ids; created elements get n#k / e#k ids numbered past any
    already present in the host. Deriving the result from the host makes
    an application cost what the rule touches; an application that
    deletes and creates nothing returns the host itself.
    """
    if match.rule is not rule:
        raise GraphError("match was produced for a different rule")
    if match.host is not host:
        raise StaleMatchError("host changed since the match was found")

    deleted_nodes = {match.node_map[n] for n in rule._deleted_nodes}
    deleted = deleted_nodes | {match.edge_map[e] for e in rule._deleted_edges}
    for n in deleted_nodes:
        deleted.update(eid for eid, _ in host.out_edges(n) + host.in_edges(n))

    host_marks = host._fresh_marks()
    n_mark, e_mark = host_marks
    rhs_node_map = {r: match.node_map[l] for l, r in rule.mapping.node_map.items()}
    new_nodes: dict[str, str] = {}
    for rn in rule._created_nodes:
        n_mark += 1
        rhs_node_map[rn] = f"n#{n_mark}"
        new_nodes[rhs_node_map[rn]] = rule.rhs.nodes[rn]
    new_edges: dict[str, Edge] = {}
    for redge in rule._created_edges:
        e_mark += 1
        new_edges[f"e#{e_mark}"] = Edge(
            redge.type, rhs_node_map[redge.src], rhs_node_map[redge.trg]
        )

    result = host  # a graph never changes, so a no-op's result is its host
    if deleted or new_nodes or new_edges:
        # deleting the holder of a nonzero mark may lower it: rescan on first use
        lowered = any(f"{k}#{m}" in deleted for k, m in zip("ne", host_marks) if m)
        marks = None if lowered else (n_mark, e_mark)
        result = TypedGraph._derive(host, deleted, new_nodes, new_edges, marks)
    return ApplyResult(
        result=result,
        created=set(new_nodes) | set(new_edges),
        deleted=deleted,
        rhs_node_map=rhs_node_map,
    )


def enumerate_language(grammar: GraphGrammar, max_nodes: int) -> LanguageResult:
    """Breadth-first closure of the grammar under a node-count bound.

    Intermediates above the bound are pruned, which only loses graphs
    when some rule shrinks node counts; that case is recorded as a
    warning in the result. Matches are injective, so every application
    of a rule changes the node count by the same amount, and a rule
    whose results would all be pruned is not matched at all. Rules with
    equal left-hand sides share one match search per graph, each still
    taking every match its NACs allow, in lexicographic order.
    """
    if max_nodes < len(grammar.start.nodes):
        raise GraphError("max_nodes is below the start graph's node count")
    warnings = []
    for rule in grammar.rules:
        if rule.deleted_lhs_nodes():
            warnings.append(
                f"rule {rule.name!r} deletes nodes; pruning may drop members"
            )

    members = IsoSet()
    members.add(grammar.start)
    frontier = [grammar.start]
    sides: list[TypedGraph] = []  # the distinct left-hand sides
    rules = []
    for rule in sorted(grammar.rules, key=lambda r: r.name):
        if rule.lhs not in sides:
            sides.append(rule.lhs)
        growth = len(rule.created_rhs_nodes()) - len(rule.deleted_lhs_nodes())
        rules.append((rule, growth, sides.index(rule.lhs)))
    while frontier:
        next_frontier: list[TypedGraph] = []
        for g in frontier:
            found: dict[int, list] = {}
            for rule, growth, side in rules:
                if len(g.nodes) + growth > max_nodes:
                    continue
                if side not in found:
                    found[side] = list(_enumerate_monos(sides[side], g, {}))
                for node_map, edge_map in found[side]:
                    match = Match(rule, node_map, edge_map, g)
                    if not all(check_nac(nac, match) for nac in rule.nacs):
                        continue
                    h = apply_rule(rule, match, g).result
                    if len(h.nodes) <= max_nodes and members.add(h):
                        next_frontier.append(h)
        frontier = next_frontier
    # signatures lead with the node and edge counts; members sharing one
    # share a bucket, so the stable sort keeps them in insertion order
    graphs = sorted(members, key=iso_signature)
    return LanguageResult(graphs, members, warnings)


def rule_to_dict(rule: Rule) -> dict:
    pairs = [
        {"l": l, "r": r} for l, r in sorted(rule.mapping.node_map.items())
    ] + [{"l": l, "r": r} for l, r in sorted(rule.mapping.edge_map.items())]
    nacs = []
    for nac in rule.nacs:
        embed = [
            {"l": l, "n": n} for l, n in sorted(nac.embedding.node_map.items())
        ] + [{"l": l, "n": n} for l, n in sorted(nac.embedding.edge_map.items())]
        nacs.append({"graph": nac.graph.to_dict(), "embed": embed})
    data = {
        "name": rule.name,
        "lhs": rule.lhs.to_dict(),
        "rhs": rule.rhs.to_dict(),
        "map": pairs,
    }
    if nacs:
        data["nacs"] = nacs
    return data


def _split_pairs(pairs: list, lhs: TypedGraph, what: str) -> tuple[dict, dict]:
    """Node and edge maps from (lhs element, image) pairs read from a file."""
    node_map: dict[str, str] = {}
    edge_map: dict[str, str] = {}
    for l, r in pairs:
        _check_names(f"{what} pair", l, r)
        if l in lhs.nodes:
            node_map[l] = r
        elif l in lhs.edges:
            edge_map[l] = r
        else:
            raise FormatError(f"{what} names unknown lhs element {l!r}")
    return node_map, edge_map


def rule_from_dict(data: dict, tg: TypeGraph) -> Rule:
    try:
        name = data["name"]
        lhs = graph_from_dict(data["lhs"], tg)
        rhs = graph_from_dict(data["rhs"], tg)
        pairs = [(pair["l"], pair["r"]) for pair in data["map"]]
        raw_nacs = [
            (
                graph_from_dict(raw["graph"], tg),
                [(p["l"], p["n"]) for p in raw.get("embed", [])],
            )
            for raw in data.get("nacs", [])
        ]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"rule missing field: {exc}") from exc
    try:
        mapping = PartialMorphism(lhs, rhs, *_split_pairs(pairs, lhs, "rule map"))
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
    nacs = []
    for ngraph, embed in raw_nacs:
        try:
            embedding = PartialMorphism(
                lhs, ngraph, *_split_pairs(embed, lhs, "NAC embed")
            )
            nacs.append(NAC(ngraph, embedding))
        except GraphError as exc:
            raise FormatError(str(exc)) from exc
    try:
        return Rule(name, lhs, rhs, mapping, tuple(nacs))
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
