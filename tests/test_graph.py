"""Graph core: construction, typing, isomorphism, serialization."""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdm.canon
import sdm.graph
from sdm.cli import main
from sdm.denot import SemSet
from sdm.diagram import DiagramError, load_story_diagram
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
    canonical_key,
    find_isomorphism,
    parse_graph,
    serialize_graph,
    twin_classes,
    validate_typing,
)
from sdm.interp import initialize, run
from sdm.rewrite import enumerate_language
from sdm.syntax import syntax_grammar

from .builders import FIXTURES
from .conftest import (
    linked_list_tg,
    make_list,
    random_graph,
    reordered,
    shuffled_copy,
    with_twins,
    zoo_tg,
)
from .oracles import (
    brute_force_isomorphic,
    networkx_isomorphic,
    reference_serialize_graph,
)


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
        assert (iso is not None) == networkx_isomorphic(g, h)
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
    def no_search(*args):
        raise AssertionError("an equal-valued member needs no search")

    monkeypatch.setattr(sdm.graph, "canonical_form", no_search)
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


def _union(*parts: TypedGraph) -> TypedGraph:
    """The disjoint union of graphs over one type graph, ids suffixed by part."""
    nodes: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    for k, part in enumerate(parts):
        nodes.update((f"{n}p{k}", t) for n, t in part.nodes.items())
        edges.update(
            (f"{eid}p{k}", Edge(e.type, f"{e.src}p{k}", f"{e.trg}p{k}"))
            for eid, e in part.edges.items()
        )
    return TypedGraph(parts[0].tg, nodes, edges)


def _retyped(rng: random.Random, g: TypedGraph) -> TypedGraph:
    """g with the types of a Cat and a Dog exchanged, if it has both."""
    nodes = dict(g.nodes)
    cats = sorted(n for n, t in nodes.items() if t == "Cat")
    dogs = sorted(n for n, t in nodes.items() if t == "Dog")
    if cats and dogs:
        nodes[rng.choice(cats)], nodes[rng.choice(dogs)] = "Dog", "Cat"
    return TypedGraph(g.tg, nodes, g.edges)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_canonical_keys_agree_with_brute_force_and_networkx(seed):
    # zoo graphs carry inheritance, self-loops and parallel edges; twins and
    # a repeated part make automorphisms and equal components common. At
    # most eight nodes keep networkx's search short.
    rng = random.Random(seed)
    tg = zoo_tg()
    parts = [random_graph(rng, tg, 3, 5) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        parts[0] = with_twins(rng, parts[0])
    if rng.random() < 0.3:
        parts.append(parts[-1])
    while len(parts) > 1 and sum(len(part.nodes) for part in parts) > 8:
        parts.pop(0)
    g = _union(*parts)
    assert canonical_key(reordered(rng, g)) == canonical_key(g) is not None
    copy = shuffled_copy(rng, g)
    for h in (copy, _swapped(rng, g), _swapped(rng, copy), _retyped(rng, copy)):
        iso = find_isomorphism(g, h)
        same = canonical_key(g) == canonical_key(h)
        assert same == (iso is not None) == networkx_isomorphic(g, h)
        if len(g.nodes) <= 6:
            assert same == brute_force_isomorphic(g, h)
        if iso is not None:
            assert iso.is_total() and iso.is_injective()
            assert sorted(iso.node_map.values()) == h.node_ids()
            assert sorted(iso.edge_map.values()) == h.edge_ids()
            assert all(g.nodes[a] == h.nodes[b] for a, b in iso.node_map.items())


def _regular(rng: random.Random, n: int) -> TypedGraph:
    """Nodes with two next-edges in and two out, from two random
    permutations: colour refinement alone cannot tell any two apart."""
    b = GraphBuilder(linked_list_tg())
    for i in range(n):
        b.node(f"v{i}", "Object")
    for d in range(2):
        for i, j in enumerate(rng.sample(range(n), n)):
            b.edge(f"e{d}.{i}", "next", f"v{i}", f"v{j}")
    return b.build()


def test_searched_keys_do_not_depend_on_ids():
    # only individualization orders these nodes, in every branch
    rng = random.Random(12)
    for _ in range(20):
        g, other = _regular(rng, 9), _regular(rng, 9)
        copies = [shuffled_copy(rng, g) for _ in range(3)]
        assert all(canonical_key(copy) == canonical_key(g) for copy in copies)
        same = canonical_key(other) == canonical_key(g)
        assert same == networkx_isomorphic(g, other)
        assert all(find_isomorphism(g, copy) is not None for copy in copies)


def _shuffled_rings(monkeypatch, *shapes: tuple[int, ...]) -> list[TypedGraph]:
    """Shuffled disjoint next-cycles of the given lengths, to be keyed with a
    budget of two leaves: refinement leaves every ring node in one cell, so
    only automorphism pruning keeps the search within it."""
    monkeypatch.setattr(sdm.canon, "_LEAF_BUDGET", 2)
    rng = random.Random(len(shapes))
    tg = linked_list_tg()
    return [shuffled_copy(rng, _cycles(tg, shape)) for shape in shapes]


def test_large_shuffled_rings_key_within_two_leaves(monkeypatch):
    ring, big, again = _shuffled_rings(monkeypatch, (400,), (2000,), (400,))
    assert canonical_key(ring) == canonical_key(again) != canonical_key(big)


def test_one_ring_and_two_rings_key_apart_within_two_leaves(monkeypatch):
    for k in (2, 3, 5, 8, 13, 100):
        one, two, turned = _shuffled_rings(monkeypatch, (2 * k,), (k, k), (2 * k,))
        assert canonical_key(one) == canonical_key(turned) != canonical_key(two)
        assert find_isomorphism(one, turned) and not find_isomorphism(one, two)
        members = IsoSet()
        assert members.add(one) and members.add(two) and not members.add(turned)


def _circulant(n: int, jumps: list[tuple[int, str]]) -> TypedGraph:
    """n nodes and, for each (jump, type), an edge of that type from each
    node i to node i + jump, mod n; every node has the same typed degrees."""
    tg = TypeGraph(
        "two-edge",
        {"Object": None},
        {"a": EdgeType("Object", "Object"), "b": EdgeType("Object", "Object")},
    )
    b = GraphBuilder(tg)
    for i in range(n):
        b.node(f"v{i}", "Object")
    for k, (jump, etype) in enumerate(jumps):
        for i in range(n):
            b.edge(f"e{k}.{i}", etype, f"v{i}", f"v{(i + jump) % n}")
    return b.build()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_circulant_keys_agree_with_networkx(seed):
    # circulants are vertex-transitive, so refinement never splits them and
    # the search meets their automorphisms; a circulant with other jumps, or
    # two half-size ones, gives every node the same typed degrees
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    etypes = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
    g = _circulant(n, [(rng.randrange(1, n), t) for t in etypes])
    others = [_circulant(n, [(rng.randrange(1, n), t) for t in etypes])]
    if n % 2 == 0:
        half = _circulant(n // 2, [(rng.randrange(1, n // 2), t) for t in etypes])
        others.append(_union(half, half))
    for h in (shuffled_copy(rng, g), *(shuffled_copy(rng, o) for o in others)):
        iso = find_isomorphism(g, h)
        same = canonical_key(g) == canonical_key(h)
        assert same == (iso is not None) == networkx_isomorphic(g, h)
        if iso is not None:
            assert iso.is_total() and iso.is_injective()


def test_shuffled_rings_are_told_apart_quickly():
    # a ring of 2k nodes and two rings of k share every signature; the
    # pairwise search took 13-100 s at k = 10 with shuffled ids
    tg = linked_list_tg()
    start = time.perf_counter()
    for k in range(3, 11):
        rng = random.Random(k)
        ring = shuffled_copy(rng, _cycles(tg, (2 * k,)))
        rings = shuffled_copy(rng, _cycles(tg, (k, k)))
        assert find_isomorphism(ring, rings) is None
        assert find_isomorphism(ring, shuffled_copy(rng, ring)) is not None
    rng = random.Random(30)
    ring = shuffled_copy(rng, _cycles(tg, (30,)))
    rings = shuffled_copy(rng, _cycles(tg, (10, 10, 10)))
    members = IsoSet()
    assert members.add(ring) and members.add(rings)
    assert not members.add(shuffled_copy(rng, rings))
    assert time.perf_counter() - start < 2.0


def test_keys_decide_enumeration_and_the_fixture_oracles(capsys):
    # no key on these inputs runs over budget: enumeration would raise, and
    # `oracle` exits 5 only when the isomorphism search budget is exhausted
    for bound, size in ((4, 6), (5, 34), (6, 188), (7, 1061)):
        assert len(enumerate_language(syntax_grammar(), bound).graphs) == size
    codes = []
    for diagram in sorted(FIXTURES.glob("*.diagram.json")):
        for model in sorted(FIXTURES.glob("*.model.json")):
            nodes = json.loads(model.read_text(encoding="utf-8"))["nodes"]
            for this in sorted(node["id"] for node in nodes):
                for strategy in ("conservative", "optimistic"):
                    argv = ["oracle", str(diagram), str(model), "--this", this]
                    argv += ["--max-steps", "200", "--strategy", strategy]
                    codes.append(main(argv))
    capsys.readouterr()
    assert 5 not in codes and codes.count(0) > 100


def test_a_graph_over_another_type_graph_is_no_member():
    # iso_signature ignores the type graph, so both graphs share a bucket
    other = TypeGraph("other", {"Object": None}, {})
    g = GraphBuilder(linked_list_tg()).node("a", "Object").build()
    foreign = GraphBuilder(other).node("a", "Object").build()
    members = IsoSet()
    members.add(g)
    assert foreign not in members
    assert not members.add(GraphBuilder(linked_list_tg()).node("b", "Object").build())
    assert foreign not in members
    with pytest.raises(GraphError):
        find_isomorphism(g, foreign)
    assert members.add(foreign) and foreign in members and len(members) == 2


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


# names json must escape: a quote, a backslash, control characters, DEL,
# non-ASCII, a line separator and an astral character (a surrogate pair)
AWKWARD = ['q"uote', "back\\slash", "\x00\t\n\x1f", "\x7fü", "\u2028", "\U0001d538x"]


def _awkward_graph() -> TypedGraph:
    types = {f"T{name}": None for name in AWKWARD}
    tg = TypeGraph(
        "tg " + "".join(AWKWARD),
        types,
        {f"E{name}": EdgeType(t, t) for name, t in zip(AWKWARD, types)},
    )
    b = GraphBuilder(tg)
    for name, t in zip(AWKWARD, types):
        b.node(f"n{name}", t)
        b.edge(f"e{name}", f"E{name}", f"n{name}", f"n{name}")
    return b.build()


def _fixture_runs():
    """(diagram, model, this, strategy) for every fixture run that starts."""
    for path in sorted(FIXTURES.glob("*.diagram.json")):
        try:
            d = load_story_diagram(path)
        except (FormatError, DiagramError):
            continue
        for model_path in sorted(FIXTURES.glob("*.model.json")):
            model = parse_graph(model_path.read_text(encoding="utf-8"), d.tg)
            for this in model.node_ids():
                for strategy in ("conservative", "optimistic"):
                    yield d, model, this, strategy


def test_serialize_equals_the_json_dumps_reference():
    tg = linked_list_tg()
    parallel = (
        GraphBuilder(tg)
        .node("a", "Object")
        .node("b", "Object")
        .edge("e2", "next", "a", "b")
        .edge("e1", "next", "a", "b")
        .edge("e3", "next", "b", "b")
        .build()
    )
    graphs = [
        TypedGraph(tg, {}, {}),
        make_list(tg, 1),
        TypedGraph(tg, {"b": "Object", "a": "Object"}, {}),
        parallel,
        _awkward_graph(),
    ]
    rng = random.Random(5)
    graphs += [random_graph(rng, zoo_tg(), 8, 14) for _ in range(50)]
    runs = 0
    for d, model, this, strategy in _fixture_runs():
        c, _ = run(initialize(d, model, this, strategy=strategy), max_steps=200)
        graphs += [c.state_graph(), c.model]
        runs += 1
    assert runs > 100
    for g in graphs:
        text = serialize_graph(g)
        assert text == reference_serialize_graph(g)
        assert text.isascii()
        assert parse_graph(text, g.tg) == g


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
