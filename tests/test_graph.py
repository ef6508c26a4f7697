"""Graph core: construction, typing, isomorphism, serialization."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdm.graph
from sdm.denot import SemSet
from sdm.graph import (
    Edge,
    EdgeType,
    FormatError,
    GraphBuilder,
    GraphError,
    IsoSet,
    PartialMorphism,
    TypedGraph,
    TypeGraph,
    find_isomorphism,
    parse_graph,
    parse_type_graph,
    serialize_graph,
    serialize_type_graph,
    twin_classes,
    validate_typing,
)

from .conftest import (
    as_networkx,
    linked_list_tg,
    make_list,
    random_graph,
    shuffled_copy,
    with_twins,
    zoo_tg,
)
from .oracles import brute_force_isomorphic


def test_type_graph_rejects_unknown_parent():
    with pytest.raises(GraphError):
        TypeGraph("t", {"A": "Ghost"}, {})


def test_type_graph_rejects_inheritance_cycle():
    with pytest.raises(GraphError):
        TypeGraph("t", {"A": "B", "B": "A"}, {})


def test_type_graph_rejects_unknown_edge_endpoint():
    with pytest.raises(GraphError):
        TypeGraph("t", {"A": None}, {"e": EdgeType("A", "Ghost")})


def test_conformance_walks_inheritance():
    tg = zoo_tg()
    assert tg.conforms("Cat", "Animal")
    assert tg.conforms("Cat", "Cat")
    assert not tg.conforms("Animal", "Cat")
    assert not tg.conforms("Toy", "Animal")


def test_graph_rejects_shared_node_edge_id():
    tg = linked_list_tg()
    with pytest.raises(GraphError):
        TypedGraph(tg, {"x": "Object"}, {"x": Edge("next", "x", "x")})


def test_graph_rejects_dangling_endpoint():
    tg = linked_list_tg()
    with pytest.raises(GraphError):
        TypedGraph(tg, {"a": "Object"}, {"e": Edge("next", "a", "ghost")})


@pytest.mark.parametrize(
    "gone, new_nodes, new_edges",
    [
        ({"o2"}, {}, {}),  # o2 keeps l1 and l2
        ({"o2", "l1"}, {}, {}),  # o2 keeps l2
        (set(), {"o1": "Object"}, {}),  # a node id taken by a node
        (set(), {"l1": "Object"}, {}),  # a node id taken by an edge
        (set(), {}, {"o1": Edge("next", "o1", "o2")}),  # an edge id taken
        (set(), {"x": "Object"}, {"x": Edge("next", "o1", "o2")}),  # one id twice
        (set(), {}, {"x": Edge("next", "o1", "ghost")}),  # a missing endpoint
        ({"o3", "l2"}, {}, {"x": Edge("next", "o1", "o3")}),  # a deleted endpoint
    ],
)
def test_derive_rejects_changes_that_break_a_graph(gone, new_nodes, new_edges):
    # a derived graph is checked only where it changed; each check keeps a
    # property that TypedGraph's constructor checks on every element
    host = make_list(linked_list_tg(), 3)
    with pytest.raises(GraphError):
        TypedGraph._derive(host, gone, new_nodes, new_edges)


def test_builder_rejects_duplicates():
    tg = linked_list_tg()
    b = GraphBuilder(tg).node("a", "Object")
    with pytest.raises(GraphError):
        b.node("a", "Object")


def test_validate_typing_ok():
    g = make_list(linked_list_tg(), 3)
    report = validate_typing(g, g.tg)
    assert report.ok and report.violations == []


def test_validate_typing_reports_unknown_and_nonconforming():
    tg = zoo_tg()
    g = TypedGraph(
        tg,
        {"c": "Cat", "t": "Toy", "x": "Spaceship"},
        {"e1": Edge("owns", "t", "t"), "e2": Edge("chases", "c", "t")},
    )
    report = validate_typing(g, tg)
    assert not report.ok
    text = "\n".join(report.violations)
    assert "x" in text and "Spaceship" in text
    assert "e1" in text  # Toy does not conform to Animal as a source
    assert "e2" in text  # Toy is not an Animal target


def test_validate_typing_differential_against_direct_recheck():
    rng = random.Random(11)
    tg = zoo_tg()
    for _ in range(50):
        g = random_graph(rng, tg, 5, 8)
        report = validate_typing(g, tg)
        # direct re-check, written independently of the implementation
        expect_ok = all(t in tg.node_types for t in g.nodes.values()) and all(
            e.type in tg.edge_types
            and tg.conforms(g.nodes[e.src], tg.edge_types[e.type].src)
            and tg.conforms(g.nodes[e.trg], tg.edge_types[e.type].trg)
            for e in g.edges.values()
        )
        assert report.ok == expect_ok


def test_morphism_rejects_non_commuting_edge():
    tg = linked_list_tg()
    g = make_list(tg, 2)
    h = make_list(tg, 3)
    with pytest.raises(GraphError):
        PartialMorphism(g, h, {"o1": "o1", "o2": "o3"}, {"l1": "l1"})


def test_morphism_rejects_open_domain():
    tg = linked_list_tg()
    g = make_list(tg, 2)
    h = make_list(tg, 2)
    with pytest.raises(GraphError):
        PartialMorphism(g, h, {"o1": "o1"}, {"l1": "l1"})


def test_morphism_allows_subtype_images():
    tg = zoo_tg()
    pattern = GraphBuilder(tg).node("a", "Animal").build()
    host = GraphBuilder(tg).node("kitty", "Cat").build()
    m = PartialMorphism(pattern, host, {"a": "kitty"}, {})
    assert m.is_total() and m.is_injective()


def test_morphism_rejects_supertype_images():
    tg = zoo_tg()
    pattern = GraphBuilder(tg).node("a", "Cat").build()
    host = GraphBuilder(tg).node("any", "Animal").build()
    with pytest.raises(GraphError):
        PartialMorphism(pattern, host, {"a": "any"}, {})


def test_isomorphism_requires_shared_type_graph():
    g = make_list(linked_list_tg(), 2)
    h = GraphBuilder(zoo_tg()).node("a", "Cat").build()
    with pytest.raises(GraphError):
        find_isomorphism(g, h)


def test_isomorphism_on_renamed_copy():
    rng = random.Random(7)
    g = make_list(linked_list_tg(), 4)
    h = shuffled_copy(rng, g)
    iso = find_isomorphism(g, h)
    assert iso is not None and iso.is_total() and iso.is_injective()


def test_isomorphism_distinguishes_types_exactly():
    tg = zoo_tg()
    g = GraphBuilder(tg).node("a", "Animal").build()
    h = GraphBuilder(tg).node("b", "Cat").build()
    assert find_isomorphism(g, h) is None
    assert find_isomorphism(h, g) is None


def test_isomorphism_agrees_with_exhaustive_search():
    rng = random.Random(23)
    tg = zoo_tg()
    for round_ in range(60):
        g = random_graph(rng, tg, 4, 6)
        if round_ % 2 == 0:
            h = shuffled_copy(rng, g)
        else:
            h = random_graph(rng, tg, 4, 6)
        got = find_isomorphism(g, h) is not None
        want = brute_force_isomorphic(g, h)
        assert got == want, f"disagreement on round {round_}"
        if got:
            # sanity: symmetric
            assert find_isomorphism(h, g) is not None


def _swapped(rng: random.Random, g: TypedGraph) -> TypedGraph:
    """g with the targets of two same-typed edges exchanged, four times.

    Every node keeps its typed in- and out-degrees, so the signature
    stays, while the structure often changes.
    """
    edges = dict(g.edges)
    for _ in range(4):
        etype = rng.choice(sorted(g.tg.edge_types))
        ids = sorted(eid for eid, e in edges.items() if e.type == etype)
        if len(ids) > 1:
            a, b = rng.sample(ids, 2)
            ea, eb = edges[a], edges[b]
            edges[a] = Edge(etype, ea.src, eb.trg)
            edges[b] = Edge(etype, eb.src, ea.trg)
    return TypedGraph(g.tg, g.nodes, edges)


def _networkx_isomorphic(g: TypedGraph, h: TypedGraph) -> bool:
    return nx.is_isomorphic(
        as_networkx(g),
        as_networkx(h),
        node_match=nx.isomorphism.categorical_node_match("type", None),
        edge_match=nx.isomorphism.categorical_multiedge_match("type", None),
    )


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_isomorphism_agrees_with_brute_force_and_networkx(seed):
    # zoo graphs carry inheritance; six nodes and up to twelve edges make
    # parallel edges and self-loops common
    rng = random.Random(seed)
    g = random_graph(rng, zoo_tg(), 6, 12)
    for h in (shuffled_copy(rng, g), _swapped(rng, g)):
        iso = find_isomorphism(g, h)
        assert (iso is not None) == brute_force_isomorphic(g, h)
        assert (iso is not None) == _networkx_isomorphic(g, h)
        if iso is not None:
            assert iso.is_total() and iso.is_injective()
            assert all(g.nodes[a] == h.nodes[b] for a, b in iso.node_map.items())


def _cycles(tg: TypeGraph, lengths: tuple[int, ...], turn: int = 0) -> TypedGraph:
    """Disjoint next-cycles; `turn` rotates which node carries which id."""
    b = GraphBuilder(tg)
    for c, n in enumerate(lengths):
        for i in range(n):
            b.node(f"c{c}v{i}", "Object")
        for i in range(n):
            src, trg = (i + turn) % n, (i + turn + 1) % n
            b.edge(f"c{c}e{i}", "next", f"c{c}v{src}", f"c{c}v{trg}")
    return b.build()


@pytest.mark.parametrize("one, many", [((6,), (3, 3)), ((30,), (10, 10, 10))])
def test_cycles_the_signature_cannot_separate(one, many):
    # every node of both graphs has one next edge in and one out, so the
    # signatures agree and only the search can tell them apart
    tg = linked_list_tg()
    ring, rings = _cycles(tg, one), _cycles(tg, many)
    turned = _cycles(tg, one, turn=1)
    assert find_isomorphism(ring, rings) is None
    assert find_isomorphism(rings, ring) is None
    assert find_isomorphism(ring, turned) is not None

    members = IsoSet()
    assert members.add(ring) and members.add(rings)
    assert not members.add(turned) and not members.add(_cycles(tg, many, turn=2))
    assert len(members) == 2 and list(members) == [ring, rings]

    sem = SemSet()
    sem.add(ring, ring)
    assert sem.contains(turned, ring) and sem.contains(ring, turned)
    assert not sem.contains(rings, ring)
    assert not sem.contains(ring, rings)


def test_isoset_matches_equal_values_without_a_search(monkeypatch):
    def no_search(g, h):
        raise AssertionError("an equal-valued member needs no search")

    monkeypatch.setattr(sdm.graph, "find_isomorphism", no_search)
    tg = linked_list_tg()
    g, copy = make_list(tg, 3), make_list(tg, 3)
    assert copy is not g and copy == g
    members = IsoSet()
    assert members.add(g)
    assert copy in members and not members.add(copy)
    assert list(members) == [g]
    sem = SemSet()
    sem.add(g, g)
    assert sem.contains(copy, make_list(tg, 3))


def _transposition(g: TypedGraph, a: str, b: str) -> PartialMorphism:
    """The map g -> g exchanging nodes a and b, each group of parallel
    edges sent onto the group between the exchanged ends, in id order."""
    swap = {a: b, b: a}
    groups: dict[tuple, list[str]] = {}
    for eid in g.edge_ids():
        e = g.edges[eid]
        groups.setdefault((e.type, e.src, e.trg), []).append(eid)
    edge_map = {}
    for (etype, src, trg), ids in groups.items():
        images = groups.get((etype, swap.get(src, src), swap.get(trg, trg)), [])
        assert len(images) == len(ids), (a, b, etype, src, trg)
        edge_map.update(zip(ids, images))
    return PartialMorphism(g, g, {n: swap.get(n, n) for n in g.nodes}, edge_map)


def test_twin_transpositions_are_automorphisms():
    rng = random.Random(41)
    tg = zoo_tg()
    swaps = looped = 0
    for _ in range(300):
        g = random_graph(rng, tg, 5, rng.choice([2, 5, 10]))
        if rng.random() < 0.7:
            g = with_twins(rng, g)
        classes = twin_classes(g)
        assert sorted(n for c in classes for n in c) == g.node_ids()
        for c in classes:
            assert c == sorted(c) and len({g.nodes[n] for n in c}) == 1
            for a, b in itertools.combinations(c, 2):
                swap = _transposition(g, a, b)
                assert swap.is_total() and swap.is_injective()
                swaps += 1
                # a self-loop sorted against a same-typed edge to another node
                ends = {(e.type, e.trg == a) for _, e in g.out_edges(a)}
                looped += any((t, not loop) in ends for t, loop in ends)
    assert swaps > 300 and looped > 20


def test_round_trip_identity():
    rng = random.Random(3)
    tg = zoo_tg()
    for _ in range(20):
        g = random_graph(rng, tg, 5, 8)
        back = parse_graph(serialize_graph(g), tg)
        assert back == g


def test_serialize_is_deterministic():
    g = make_list(linked_list_tg(), 3)
    assert serialize_graph(g) == serialize_graph(g)


def test_parse_rejects_bad_json():
    with pytest.raises(FormatError):
        parse_graph("{nope", linked_list_tg())


def test_parse_rejects_duplicate_ids():
    tg = linked_list_tg()
    text = (
        '{"typegraph": "linked-list", '
        '"nodes": [{"id": "a", "type": "Object"}, {"id": "a", "type": "Object"}], '
        '"edges": []}'
    )
    with pytest.raises(FormatError):
        parse_graph(text, tg)


def test_parse_rejects_unknown_type():
    tg = linked_list_tg()
    text = (
        '{"typegraph": "linked-list", '
        '"nodes": [{"id": "a", "type": "Widget"}], "edges": []}'
    )
    with pytest.raises(FormatError):
        parse_graph(text, tg)


def test_parse_rejects_dangling_edge():
    tg = linked_list_tg()
    text = (
        '{"typegraph": "linked-list", '
        '"nodes": [{"id": "a", "type": "Object"}], '
        '"edges": [{"id": "e", "type": "next", "src": "a", "trg": "ghost"}]}'
    )
    with pytest.raises(FormatError):
        parse_graph(text, tg)


def test_parse_rejects_foreign_type_graph_name():
    tg = linked_list_tg()
    text = '{"typegraph": "zoo", "nodes": [], "edges": []}'
    with pytest.raises(FormatError):
        parse_graph(text, tg)


def test_type_graph_round_trip():
    tg = zoo_tg()
    back = parse_type_graph(serialize_type_graph(tg))
    assert back == tg
