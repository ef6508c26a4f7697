"""Typed multigraphs with single-inheritance type graphs.

Graphs are immutable values after construction; rewriting produces new
graphs. Node and edge ids are opaque strings sharing one namespace per
graph, and every deterministic ordering in the package is lexicographic
id order.

One matcher core, `_enumerate_monos`, serves matching, NAC checks and
the validator's reduction. Canonical keys (`canonical_key`) decide
isomorphism.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

from .canon import canonical_form


class GraphError(Exception):
    """Structural problem in a graph, type graph, or morphism."""


class FormatError(Exception):
    """Malformed or inconsistent serialized input."""


def _check_names(what: str, *values: object) -> None:
    """FormatError unless every value, an id or a type name, is a string."""
    for value in values:
        if not isinstance(value, str):
            raise FormatError(f"{what}: expected a string, got {value!r}")


@dataclass(frozen=True, slots=True)
class EdgeType:
    """Declared edge type with its endpoint node types."""

    src: str
    trg: str


class TypeGraph:
    """Named node types with optional single inheritance, plus edge types."""

    def __init__(
        self,
        name: str,
        node_types: dict[str, Optional[str]],
        edge_types: dict[str, EdgeType],
    ) -> None:
        self.name = name
        self.node_types = dict(node_types)
        self.edge_types = dict(edge_types)
        for child, parent in self.node_types.items():
            if parent is not None and parent not in self.node_types:
                raise GraphError(f"node type {child!r} names unknown parent {parent!r}")
        for tname, et in self.edge_types.items():
            for endpoint in (et.src, et.trg):
                if endpoint not in self.node_types:
                    raise GraphError(
                        f"edge type {tname!r} names unknown node type {endpoint!r}"
                    )
        # inheritance must be acyclic
        for start in self.node_types:
            seen = {start}
            cur = self.node_types[start]
            while cur is not None:
                if cur in seen:
                    raise GraphError(f"inheritance cycle through {start!r}")
                seen.add(cur)
                cur = self.node_types[cur]

    def conforms(self, node_type: str, ancestor: str) -> bool:
        """True if node_type equals ancestor or transitively inherits from it."""
        cur: Optional[str] = node_type
        while cur is not None:
            if cur == ancestor:
                return True
            cur = self.node_types.get(cur)
        return False

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TypeGraph):
            return NotImplemented
        return (
            self.name == other.name
            and self.node_types == other.node_types
            and self.edge_types == other.edge_types
        )

    def __repr__(self) -> str:
        return f"TypeGraph({self.name!r}, {len(self.node_types)} node types)"

    @classmethod
    def from_dict(cls, data: dict) -> "TypeGraph":
        try:
            name = data["name"]
            raw_nodes = data["node_types"]
            raw_edges = data["edge_types"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"type graph missing field: {exc}") from exc
        _check_names("type graph name", name)
        node_types: dict[str, Optional[str]] = {}
        edge_types: dict[str, EdgeType] = {}
        try:
            for entry in raw_nodes:
                ntype, parent = entry["name"], entry.get("parent")
                _check_names("node type", ntype, *([] if parent is None else [parent]))
                if ntype in node_types:
                    raise FormatError(f"duplicate node type {ntype!r}")
                node_types[ntype] = parent
            for entry in raw_edges:
                etype, src, trg = entry["name"], entry["src"], entry["trg"]
                _check_names("edge type", etype, src, trg)
                if etype in edge_types:
                    raise FormatError(f"duplicate edge type {etype!r}")
                edge_types[etype] = EdgeType(src, trg)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad type graph entry: {exc!r}") from exc
        try:
            return cls(name, node_types, edge_types)
        except GraphError as exc:
            raise FormatError(str(exc)) from exc


@dataclass(frozen=True, slots=True)
class Edge:
    """Edge instance: type name plus source and target node ids."""

    type: str
    src: str
    trg: str


# ids that rule application creates: n#k for nodes, e#k for edges
_FRESH_ID = re.compile(r"^([ne])#(\d+)$")


def _fresh_mark(ids, kind: str) -> int:
    """The largest k among the ids shaped like kind#k, 0 if none."""
    marks = (int(m[2]) for i in ids if (m := _FRESH_ID.match(i)) and m[1] == kind)
    return max(marks, default=0)


def _spliced(entries: list, eid: str, e: Optional[Edge]) -> list:
    """A copy of an id-sorted adjacency list without edge eid, or with e as eid."""
    i = bisect_left(entries, (eid,))
    if e is None:
        return entries[:i] + entries[i + 1 :]
    return entries[:i] + [(eid, e)] + entries[i:]


class TypedGraph:
    """Directed typed multigraph. Treat as immutable once built."""

    def __init__(
        self,
        tg: TypeGraph,
        nodes: dict[str, str],
        edges: dict[str, Edge],
    ) -> None:
        self.tg = tg
        self.nodes = dict(nodes)
        self.edges = dict(edges)
        self._adjacency: Optional[tuple[dict, dict]] = None
        self._marks: Optional[tuple[int, int]] = None
        self._signature: Optional[tuple] = None
        self._node_sigs: Optional[dict] = None
        self._canon: Optional[tuple] = None
        self._plans: Optional[dict] = None  # see `_enumerate_monos`
        overlap = self.nodes.keys() & self.edges.keys()
        if overlap:
            raise GraphError(f"ids used for both nodes and edges: {sorted(overlap)}")
        for eid, e in self.edges.items():
            if e.src not in self.nodes or e.trg not in self.nodes:
                raise GraphError(f"edge {eid!r} references missing endpoint")

    @classmethod
    def _derive(
        cls,
        host: "TypedGraph",
        gone: set[str],
        new_nodes: dict,
        new_edges: dict,
        marks: Optional[tuple[int, int]] = None,
    ) -> "TypedGraph":
        """The host minus the gone ids plus the new elements, sharing its
        untouched adjacency lists. `marks` are the result's fresh-id marks
        if the caller knows them; otherwise they are scanned on first use.
        From a valid host, checking only the change keeps every property
        `__init__` checks."""
        g = cls.__new__(cls)
        g.tg, g.nodes, g.edges = host.tg, dict(host.nodes), dict(host.edges)
        g._marks, g._signature, g._node_sigs = marks, None, None
        g._canon = g._plans = None
        outs, ins = g._adjacency = tuple(dict(side) for side in host._index())
        for x in gone:
            if x in g.nodes:
                del g.nodes[x]
                if any(eid not in gone for eid, _ in outs.pop(x, []) + ins.pop(x, [])):
                    raise GraphError(f"deleted node {x!r} keeps an incident edge")
                continue
            e = g.edges.pop(x)
            if e.src not in gone:
                outs[e.src] = _spliced(outs[e.src], x, None)
            if e.trg not in gone:
                ins[e.trg] = _spliced(ins[e.trg], x, None)
        for nid, ntype in new_nodes.items():
            if nid in g.nodes or nid in g.edges:
                raise GraphError(f"created id {nid!r} is already in use")
            g.nodes[nid] = ntype
        for eid, e in new_edges.items():
            if eid in g.nodes or eid in g.edges:
                raise GraphError(f"created id {eid!r} is already in use")
            if e.src not in g.nodes or e.trg not in g.nodes:
                raise GraphError(f"edge {eid!r} references missing endpoint")
            g.edges[eid] = e
            outs[e.src] = _spliced(outs.get(e.src, []), eid, e)
            ins[e.trg] = _spliced(ins.get(e.trg, []), eid, e)
        return g

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def edge_ids(self) -> list[str]:
        return sorted(self.edges)

    def _fresh_marks(self) -> tuple[int, int]:
        """The largest k among `n#k` node ids and among `e#k` edge ids, 0 if none."""
        if self._marks is None:
            self._marks = (_fresh_mark(self.nodes, "n"), _fresh_mark(self.edges, "e"))
        return self._marks

    def _index(self) -> tuple[dict, dict]:
        # built on the first adjacency query unless derived from a host's;
        # valid because the graph never changes after construction
        if self._adjacency is None:
            outs: dict[str, list[tuple[str, Edge]]] = {}
            ins: dict[str, list[tuple[str, Edge]]] = {}
            for eid, e in sorted(self.edges.items()):
                outs.setdefault(e.src, []).append((eid, e))
                ins.setdefault(e.trg, []).append((eid, e))
            self._adjacency = (outs, ins)
        return self._adjacency

    def out_edges(self, node: str) -> list[tuple[str, Edge]]:
        """Edges leaving node, in edge-id order. Callers must not mutate it."""
        return self._index()[0].get(node, [])

    def in_edges(self, node: str) -> list[tuple[str, Edge]]:
        """Edges entering node, in edge-id order. Callers must not mutate it."""
        return self._index()[1].get(node, [])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypedGraph):
            return NotImplemented
        return (
            self.tg == other.tg
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"TypedGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"

    def to_dict(self) -> dict:
        return {
            "typegraph": self.tg.name,
            "nodes": [
                {"id": nid, "type": t} for nid, t in sorted(self.nodes.items())
            ],
            "edges": [
                {"id": eid, "type": e.type, "src": e.src, "trg": e.trg}
                for eid, e in sorted(self.edges.items())
            ],
        }


class GraphBuilder:
    """Small helper for assembling graphs in code and tests."""

    def __init__(self, tg: TypeGraph) -> None:
        self.tg = tg
        self._nodes: dict[str, str] = {}
        self._edges: dict[str, Edge] = {}

    def node(self, nid: str, ntype: str) -> "GraphBuilder":
        if nid in self._nodes:
            raise GraphError(f"duplicate node id {nid!r}")
        self._nodes[nid] = ntype
        return self

    def edge(self, eid: str, etype: str, src: str, trg: str) -> "GraphBuilder":
        if eid in self._edges:
            raise GraphError(f"duplicate edge id {eid!r}")
        self._edges[eid] = Edge(etype, src, trg)
        return self

    def build(self) -> TypedGraph:
        return TypedGraph(self.tg, self._nodes, self._edges)


@dataclass(slots=True)
class ValidationReport:
    """Outcome of a typing check, with one message per violation."""

    ok: bool
    violations: list[str] = field(default_factory=list)


def validate_typing(g: TypedGraph, tg: TypeGraph) -> ValidationReport:
    """Check that g is well typed over tg; reports, never raises."""
    violations: list[str] = []
    for nid in g.node_ids():
        if g.nodes[nid] not in tg.node_types:
            violations.append(f"node {nid!r}: unknown node type {g.nodes[nid]!r}")
    for eid in g.edge_ids():
        e = g.edges[eid]
        et = tg.edge_types.get(e.type)
        if et is None:
            violations.append(f"edge {eid!r}: unknown edge type {e.type!r}")
            continue
        for endpoint, declared, role in (
            (e.src, et.src, "source"),
            (e.trg, et.trg, "target"),
        ):
            ntype = g.nodes.get(endpoint)
            if ntype is None or ntype not in tg.node_types:
                continue  # endpoint problem already reported
            if not tg.conforms(ntype, declared):
                violations.append(
                    f"edge {eid!r}: {role} {endpoint!r} of type {ntype!r} "
                    f"does not conform to {declared!r}"
                )
    return ValidationReport(ok=not violations, violations=violations)


class PartialMorphism:
    """Partial graph morphism given by explicit node and edge maps.

    The domain is the keyset of the maps and must be a well-formed
    subgraph of the source. Node images must conform to the source
    node's type (equality or inheritance); edge images keep their edge
    type exactly.
    """

    def __init__(
        self,
        src: TypedGraph,
        dst: TypedGraph,
        node_map: dict[str, str],
        edge_map: dict[str, str],
    ) -> None:
        self.src = src
        self.dst = dst
        self.node_map = dict(node_map)
        self.edge_map = dict(edge_map)
        typed = src.tg == dst.tg
        for l, r in self.node_map.items():
            if l not in src.nodes:
                raise GraphError(f"morphism maps unknown source node {l!r}")
            if r not in dst.nodes:
                raise GraphError(f"morphism maps node {l!r} to unknown node {r!r}")
            if typed and not src.tg.conforms(
                dst.nodes[r], src.nodes[l]
            ):
                raise GraphError(
                    f"morphism maps node {l!r} ({src.nodes[l]!r}) to "
                    f"{r!r} ({dst.nodes[r]!r}) breaking typing"
                )
        for l, r in self.edge_map.items():
            if l not in src.edges:
                raise GraphError(f"morphism maps unknown source edge {l!r}")
            if r not in dst.edges:
                raise GraphError(f"morphism maps edge {l!r} to unknown edge {r!r}")
            le, ri = src.edges[l], dst.edges[r]
            if le.type != ri.type:
                raise GraphError(f"morphism changes type of edge {l!r}")
            # domain must be subgraph-closed and structure must commute
            if le.src not in self.node_map or le.trg not in self.node_map:
                raise GraphError(f"edge {l!r} in domain but an endpoint is not")
            if self.node_map[le.src] != ri.src or self.node_map[le.trg] != ri.trg:
                raise GraphError(f"morphism does not commute on edge {l!r}")

    def is_total(self) -> bool:
        return len(self.node_map) == len(self.src.nodes) and len(
            self.edge_map
        ) == len(self.src.edges)

    def is_injective(self) -> bool:
        return len(set(self.node_map.values())) == len(self.node_map) and len(
            set(self.edge_map.values())
        ) == len(self.edge_map)

    def __repr__(self) -> str:
        return (
            f"PartialMorphism({len(self.node_map)}/{len(self.src.nodes)} nodes, "
            f"{len(self.edge_map)}/{len(self.src.edges)} edges)"
        )


def _parallel_edges(g: TypedGraph, src: str, trg: str, etype: str) -> list[str]:
    """Ids of the etype edges src -> trg in id order, scanning the shorter side."""
    outs, ins = g.out_edges(src), g.in_edges(trg)
    return [
        eid
        for eid, e in (outs if len(outs) <= len(ins) else ins)
        if e.src == src and e.trg == trg and e.type == etype
    ]


def _build_plan(pattern: TypedGraph, pinned) -> tuple:
    """The matcher's search plan for pattern with the nodes in pinned bound
    first: its sorted node and edge ids, the pinned and the free nodes in
    id order, each node's needs, and each free node's walks.

    A node's needs are the (src, trg, type, count) of the pattern edges
    joining it to itself and to the nodes bound before it. A free node's
    walks are the (outgoing, bound neighbour, edge type) of those needs
    that join it to another node: its candidates are the ends of the
    neighbour's typed out-edges, or in-edges, that every walk reaches.
    """
    for pn in pinned:
        if pn not in pattern.nodes:
            raise GraphError(f"forced assignment names unknown pattern node {pn!r}")
    pnodes = pattern.node_ids()
    order = [n for n in pnodes if n in pinned]
    order += [n for n in pnodes if n not in pinned]
    rank = {n: i for i, n in enumerate(order)}
    counts: dict[str, dict[tuple[str, str, str], int]] = {n: {} for n in pnodes}
    for e in pattern.edges.values():
        later = e.src if rank[e.src] >= rank[e.trg] else e.trg
        key = (e.src, e.trg, e.type)
        counts[later][key] = counts[later].get(key, 0) + 1
    needs = {n: tuple((*key, c) for key, c in counts[n].items()) for n in pnodes}
    free = order[len(pinned) :]
    walks = {
        n: tuple((b == n, a if b == n else b, t) for a, b, t, _ in needs[n] if a != b)
        for n in free
    }
    return pnodes, pattern.edge_ids(), order[: len(pinned)], free, needs, walks


def _enumerate_monos(
    pattern: TypedGraph,
    host: TypedGraph,
    forced_nodes: dict[str, str],
    forced_edges: Optional[dict[str, str]] = None,
) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
    """Yield structure- and typing-preserving occurrences, smallest first.

    Node images may specialize the pattern's node type via inheritance.
    Order is lexicographic over host ids taken in sorted pattern-id
    order, nodes before edges. Forced nodes are bound first, which keeps
    that order since each has a single image. Every other node draws its
    candidates from the host neighbours of its bound pattern neighbours,
    and a new binding is checked only against the pattern edges that
    join it to nodes bound before it.

    That order and those checks are the pattern's plan (`_build_plan`).
    It depends only on the pattern and on which of its nodes are forced,
    so it is built once per pattern and set of forced nodes and kept on
    the pattern, which never changes after construction.
    """
    pins = frozenset(forced_nodes)
    if pattern._plans is None:
        pattern._plans = {}
    plan = pattern._plans.get(pins)
    if plan is None:
        plan = pattern._plans[pins] = _build_plan(pattern, forced_nodes)
    pnodes, pedges, pinned, free, needs, walks = plan
    forced_edges = forced_edges or {}
    ptypes, host_nodes, conforms = pattern.nodes, host.nodes, host.tg.conforms
    outs, ins = host._index()
    assigned: dict[str, str] = {}

    def node_ok(pn: str, hn: str) -> bool:
        if hn not in host_nodes or not conforms(host_nodes[hn], ptypes[pn]):
            return False
        if hn in assigned.values():
            return False
        for a, b, etype, need in needs[pn]:
            src = hn if a == pn else assigned[a]
            trg = hn if b == pn else assigned[b]
            if len(_parallel_edges(host, src, trg, etype)) < need:
                return False
        return True

    def node_candidates(pn: str) -> list[str]:
        found: Optional[set[str]] = None
        for outgoing, neighbour, etype in walks[pn]:
            if outgoing:
                adjacent = outs.get(assigned[neighbour], ())
                ends = {e.trg for _, e in adjacent if e.type == etype}
            else:
                adjacent = ins.get(assigned[neighbour], ())
                ends = {e.src for _, e in adjacent if e.type == etype}
            found = ends if found is None else found & ends
            if not found:
                return []
        return host.node_ids() if found is None else sorted(found)

    def assign_nodes(i: int) -> Iterator[dict[str, str]]:
        if i == len(free):
            yield {n: assigned[n] for n in pnodes}
            return
        pn = free[i]
        for hn in node_candidates(pn):
            if node_ok(pn, hn):
                assigned[pn] = hn
                yield from assign_nodes(i + 1)
                del assigned[pn]

    def assign_edges(
        nodes: dict[str, str], i: int, emap: dict[str, str], used: set[str]
    ) -> Iterator[dict[str, str]]:
        if i == len(pedges):
            yield dict(emap)
            return
        pe = pedges[i]
        e = pattern.edges[pe]
        want_src, want_trg = nodes[e.src], nodes[e.trg]
        if pe in forced_edges:
            candidates = [forced_edges[pe]]
        else:
            candidates = _parallel_edges(host, want_src, want_trg, e.type)
        for hid in candidates:
            he = host.edges.get(hid)
            if hid in used or he is None or he.src != want_src or he.trg != want_trg:
                continue
            emap[pe] = hid
            used.add(hid)
            yield from assign_edges(nodes, i + 1, emap, used)
            del emap[pe]
            used.discard(hid)

    for pn in pinned:
        if not node_ok(pn, forced_nodes[pn]):
            return
        assigned[pn] = forced_nodes[pn]
    for nodes in assign_nodes(0):
        for emap in assign_edges(nodes, 0, {}, set()):
            yield nodes, emap


def node_signatures(g: TypedGraph) -> dict[str, tuple]:
    """Each node's signature, in g's node order, computed once per graph:
    its type, and its out- and in-edge counts by edge type, a self-loop
    counted on both sides. An isomorphism preserves every signature."""
    if g._node_sigs is None:
        out_index, in_index = g._index()
        sigs = g._node_sigs = {}
        for nid, ntype in g.nodes.items():
            outs: dict[str, int] = {}
            ins: dict[str, int] = {}
            for _, e in out_index.get(nid, ()):
                outs[e.type] = outs.get(e.type, 0) + 1
            for _, e in in_index.get(nid, ()):
                ins[e.type] = ins.get(e.type, 0) + 1
            sigs[nid] = (ntype, tuple(sorted(outs.items())), tuple(sorted(ins.items())))
    return g._node_sigs


def iso_signature(g: TypedGraph) -> tuple:
    """Cheap isomorphism-invariant key for bucketing graphs, computed once
    per graph: the node and edge counts and the sorted node signatures."""
    if g._signature is None:
        per_node = tuple(sorted(node_signatures(g).values()))
        g._signature = (len(g.nodes), len(g.edges), per_node)
    return g._signature


def twin_classes(g: TypedGraph) -> list[list[str]]:
    """The nodes of g grouped into twins, each class in id order. Twins share
    their type and their typed in- and out-neighbours with multiplicity, a
    self-loop counted as a loop, so no edge joins two twins and any
    permutation of a class is an automorphism."""
    classes: dict[tuple, list[str]] = {}
    for n in g.node_ids():
        outs = [(e.type, () if e.trg == n else (e.trg,)) for _, e in g.out_edges(n)]
        ins = [(e.type, () if e.src == n else (e.src,)) for _, e in g.in_edges(n)]
        key = (g.nodes[n], tuple(sorted(outs)), tuple(sorted(ins)))
        classes.setdefault(key, []).append(n)
    return list(classes.values())


def _canonical(g: TypedGraph) -> tuple[tuple, list[str]]:
    """g's key and labelling, computed once."""
    if g._canon is None:
        nodes = list(g.nodes)
        index = {n: i for i, n in enumerate(nodes)}

        def twins() -> list[int]:
            twin = [0] * len(nodes)
            for k, cls in enumerate(twin_classes(g)):
                for n in cls:
                    twin[index[n]] = k
            return twin

        edges = [(index[e.src], index[e.trg], e.type) for e in g.edges.values()]
        key, order = canonical_form(list(g.nodes.values()), edges, twins)
        g._canon = (key, [nodes[i] for i in order])
    return g._canon


def canonical_key(g: TypedGraph) -> tuple:
    """A key that two graphs over one type graph share exactly when they
    are isomorphic, computed once per graph. See `sdm.canon.canonical_form`,
    whose `SearchBudgetError` this passes on."""
    return _canonical(g)[0]


def find_isomorphism(g: TypedGraph, h: TypedGraph) -> Optional[PartialMorphism]:
    """A type-exact isomorphism g -> h, or None.

    Both graphs must share one type graph. Their canonical keys decide,
    and the bijection sends each node to the node at the same position of
    the other's labelling.
    """
    if g.tg != h.tg:
        raise GraphError("isomorphism requires a shared type graph")
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return None
    if iso_signature(g) != iso_signature(h):
        return None
    (g_key, g_order), (h_key, h_order) = _canonical(g), _canonical(h)
    if g_key != h_key:
        return None
    # with every node pinned to its image, the matcher only pairs the
    # parallel edges of each (type, source, target) group, in id order
    node_map, edge_map = next(_enumerate_monos(g, h, dict(zip(g_order, h_order))))
    return PartialMorphism(g, h, node_map, edge_map)


class IsoSet:
    """Graphs kept once per isomorphism class.

    Members are bucketed by `iso_signature`. A lone member matches itself,
    or a graph equal to it by value, without a key. Once a bucket holds a
    second graph, its members are also held by `canonical_key`, and a
    graph matches the member with its key over the same type graph.
    Iteration runs bucket by bucket, in insertion order.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple, list[TypedGraph]] = {}
        self._keyed: dict[tuple, dict[tuple, list[TypedGraph]]] = {}
        self._size = 0

    def _find(self, g: TypedGraph) -> tuple[tuple, Optional[tuple], bool]:
        # g's bucket, its key if it was needed, and whether an isomorphic
        # member exists
        signature = iso_signature(g)
        bucket = self._buckets.get(signature)
        if not bucket:
            return signature, None, False
        if len(bucket) == 1 and (bucket[0] is g or bucket[0] == g):
            return signature, None, True
        keyed = self._keyed.get(signature)
        if keyed is None:
            lone = bucket[0]
            keyed = self._keyed[signature] = {canonical_key(lone): [lone]}
        key = canonical_key(g)
        return signature, key, any(m.tg == g.tg for m in keyed.get(key, ()))

    def add(self, g: TypedGraph) -> bool:
        """Insert g unless an isomorphic member exists; True if inserted."""
        signature, key, found = self._find(g)
        if not found:
            self._buckets.setdefault(signature, []).append(g)
            if key is not None:
                self._keyed[signature].setdefault(key, []).append(g)
            self._size += 1
        return not found

    def __contains__(self, g: TypedGraph) -> bool:
        return self._find(g)[2]

    def __iter__(self) -> Iterator[TypedGraph]:
        for bucket in self._buckets.values():
            yield from bucket

    def __len__(self) -> int:
        return self._size


def serialize_graph(g: TypedGraph) -> str:
    """Canonical JSON text for a graph: sorted, ASCII, round-trips by id.

    The text is exactly `json.dumps(g.to_dict(), indent=2, sort_keys=True)`.
    With `indent` set, `json.dumps` runs its pure-Python encoder, so the
    fixed layout is formatted here instead, and every string goes through
    the C escaper that `json.dumps` uses.
    """
    q = encode_basestring_ascii
    edges = ",".join(
        f'\n    {{\n      "id": {q(eid)},\n      "src": {q(e.src)},'
        f'\n      "trg": {q(e.trg)},\n      "type": {q(e.type)}\n    }}'
        for eid, e in sorted(g.edges.items())
    )
    nodes = ",".join(
        f'\n    {{\n      "id": {q(nid)},\n      "type": {q(t)}\n    }}'
        for nid, t in sorted(g.nodes.items())
    )
    return (
        f'{{\n  "edges": {_json_list(edges)},\n  "nodes": {_json_list(nodes)},'
        f'\n  "typegraph": {q(g.tg.name)}\n}}'
    )


def _json_list(items: str) -> str:
    """A list of level-2 items, joined by `serialize_graph`, in its layout."""
    return f"[{items}\n  ]" if items else "[]"


def parse_graph(text: str, tg: TypeGraph) -> TypedGraph:
    """Parse the JSON graph format and check typing against tg."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
        raise FormatError(f"not valid JSON: {exc}") from exc
    return graph_from_dict(data, tg)


def graph_from_dict(data: dict, tg: TypeGraph) -> TypedGraph:
    if not isinstance(data, dict):
        raise FormatError("graph document must be a JSON object")
    declared = data.get("typegraph")
    if declared is not None and declared != tg.name:
        raise FormatError(
            f"graph declares type graph {declared!r}, expected {tg.name!r}"
        )
    if not all(isinstance(data.get(key, []), list) for key in ("nodes", "edges")):
        raise FormatError("graph nodes and edges must be lists")
    nodes: dict[str, str] = {}
    for entry in data.get("nodes", []):
        try:
            nid, ntype = entry["id"], entry["type"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad node entry {entry!r}") from exc
        _check_names("node entry", nid, ntype)
        if nid in nodes:
            raise FormatError(f"duplicate node id {nid!r}")
        nodes[nid] = ntype
    edges: dict[str, Edge] = {}
    for entry in data.get("edges", []):
        try:
            eid = entry["id"]
            edge = Edge(entry["type"], entry["src"], entry["trg"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad edge entry {entry!r}") from exc
        _check_names("edge entry", eid, edge.type, edge.src, edge.trg)
        if eid in edges or eid in nodes:
            raise FormatError(f"duplicate id {eid!r}")
        edges[eid] = edge
    try:
        g = TypedGraph(tg, nodes, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc
    report = validate_typing(g, tg)
    if not report.ok:
        raise FormatError("; ".join(report.violations))
    return g
