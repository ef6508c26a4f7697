"""Shared builders for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest

import sdm.graph
from sdm.graph import Edge, EdgeType, GraphBuilder, TypedGraph, TypeGraph


@pytest.fixture
def list_tg() -> TypeGraph:
    return linked_list_tg()


@pytest.fixture
def plan_builds(monkeypatch) -> list:
    """The patterns the matcher builds a search plan for while the test runs."""
    built = []
    build_plan = sdm.graph._build_plan

    def counted(pattern, pinned):
        built.append(pattern)
        return build_plan(pattern, pinned)

    monkeypatch.setattr(sdm.graph, "_build_plan", counted)
    return built


def linked_list_tg() -> TypeGraph:
    return TypeGraph(
        "linked-list",
        {"Object": None},
        {"next": EdgeType("Object", "Object")},
    )


def zoo_tg() -> TypeGraph:
    """Small inheritance-bearing type graph for property tests."""
    return TypeGraph(
        "zoo",
        {"Animal": None, "Cat": "Animal", "Dog": "Animal", "Toy": None},
        {
            "chases": EdgeType("Animal", "Animal"),
            "owns": EdgeType("Animal", "Toy"),
        },
    )


def make_list(tg: TypeGraph, length: int) -> TypedGraph:
    """A chain o1 -next-> o2 -next-> ... of the given length."""
    b = GraphBuilder(tg)
    for i in range(1, length + 1):
        b.node(f"o{i}", "Object")
    for i in range(1, length):
        b.edge(f"l{i}", "next", f"o{i}", f"o{i + 1}")
    return b.build()


def random_graph(
    rng: random.Random, tg: TypeGraph, max_nodes: int, max_edges: int
) -> TypedGraph:
    """Random well-typed graph over tg with concrete node types."""
    concrete = sorted(tg.node_types)
    n = rng.randint(1, max_nodes)
    nodes = {f"v{i}": rng.choice(concrete) for i in range(n)}
    edges: dict[str, Edge] = {}
    attempts = rng.randint(0, max_edges)
    eid = 0
    for _ in range(attempts):
        etype = rng.choice(sorted(tg.edge_types))
        decl = tg.edge_types[etype]
        srcs = [v for v, t in nodes.items() if tg.conforms(t, decl.src)]
        trgs = [v for v, t in nodes.items() if tg.conforms(t, decl.trg)]
        if not srcs or not trgs:
            continue
        edges[f"e{eid}"] = Edge(etype, rng.choice(srcs), rng.choice(trgs))
        eid += 1
    return TypedGraph(tg, nodes, edges)


def with_twins(rng: random.Random, g: TypedGraph) -> TypedGraph:
    """g plus one to three copies of a random node, each with that node's
    edges, a self-loop copied as the copy's own self-loop. Half the time
    the node first gets a self-loop, if its type admits one."""
    n = rng.choice(g.node_ids())
    nodes, edges = dict(g.nodes), dict(g.edges)
    loops = [
        t
        for t, et in sorted(g.tg.edge_types.items())
        if g.tg.conforms(g.nodes[n], et.src) and g.tg.conforms(g.nodes[n], et.trg)
    ]
    if loops and rng.random() < 0.5:
        edges["loop"] = Edge(rng.choice(loops), n, n)
        g = TypedGraph(g.tg, nodes, edges)
    for k in range(rng.randint(1, 3)):
        twin = f"{n}t{k}"
        nodes[twin] = g.nodes[n]
        for eid, e in g.edges.items():
            if n in (e.src, e.trg):
                src = twin if e.src == n else e.src
                trg = twin if e.trg == n else e.trg
                edges[f"{eid}t{k}"] = Edge(e.type, src, trg)
    return TypedGraph(g.tg, nodes, edges)


def reordered(rng: random.Random, g: TypedGraph) -> TypedGraph:
    """g with its nodes and edges inserted in a random order."""
    nodes, edges = list(g.nodes.items()), list(g.edges.items())
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return TypedGraph(g.tg, dict(nodes), dict(edges))


def shuffled_copy(rng: random.Random, g: TypedGraph) -> TypedGraph:
    """Isomorphic copy with renamed ids, inserted in a random order."""
    node_names = {n: f"m{i}" for i, n in enumerate(rng.sample(g.node_ids(), len(g.nodes)))}
    edges = {
        f"f{i}": Edge(e.type, node_names[e.src], node_names[e.trg])
        for i, (eid, e) in enumerate(sorted(g.edges.items()))
    }
    nodes = {node_names[n]: t for n, t in g.nodes.items()}
    return reordered(rng, TypedGraph(g.tg, nodes, edges))


def as_networkx(g: TypedGraph) -> nx.MultiDiGraph:
    """The same multigraph in networkx, with node and edge types as `type`."""
    out = nx.MultiDiGraph()
    for nid, ntype in g.nodes.items():
        out.add_node(nid, type=ntype)
    for e in g.edges.values():
        out.add_edge(e.src, e.trg, type=e.type)
    return out
