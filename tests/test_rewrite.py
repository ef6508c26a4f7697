"""SPO engine: matching, NACs, application, language enumeration."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdm.diagram import load_story_diagram
from sdm.graph import (
    Edge,
    GraphBuilder,
    GraphError,
    PartialMorphism,
    TypedGraph,
    find_isomorphism,
    iso_signature,
    parse_graph,
    serialize_graph,
    validate_typing,
)
from sdm.rewrite import (
    NAC,
    ApplyResult,
    GraphGrammar,
    Match,
    Rule,
    StaleMatchError,
    apply_rule,
    check_nac,
    enumerate_language,
    find_matches,
    rule_from_dict,
    rule_to_dict,
)
from sdm.syntax import syntax_grammar

from .builders import FIXTURES
from .conftest import (
    as_networkx,
    linked_list_tg,
    make_list,
    random_graph,
    shuffled_copy,
    zoo_tg,
)
from .oracles import (
    brute_force_matches,
    naive_pushout,
    networkx_isomorphic,
    reference_enumerate_language,
    reference_matches,
    reference_next_fresh,
)


def _identity_rule(tg, *node_types: str) -> Rule:
    """Rule whose lhs is a discrete graph of the given types, no effect."""
    b = GraphBuilder(tg)
    for i, t in enumerate(node_types):
        b.node(f"x{i}", t)
    lhs = b.build()
    b2 = GraphBuilder(tg)
    for i, t in enumerate(node_types):
        b2.node(f"x{i}", t)
    rhs = b2.build()
    mapping = PartialMorphism(lhs, rhs, {n: n for n in lhs.nodes}, {})
    return Rule("probe", lhs, rhs, mapping)


def _edge_pattern_rule(tg) -> Rule:
    lhs = (
        GraphBuilder(tg)
        .node("x", "Object")
        .node("y", "Object")
        .edge("xy", "next", "x", "y")
        .build()
    )
    rhs = (
        GraphBuilder(tg)
        .node("x", "Object")
        .node("y", "Object")
        .edge("xy", "next", "x", "y")
        .build()
    )
    mapping = PartialMorphism(
        lhs, rhs, {"x": "x", "y": "y"}, {"xy": "xy"}
    )
    return Rule("edge-probe", lhs, rhs, mapping)


def _append_rule(tg) -> Rule:
    lhs = GraphBuilder(tg).node("x", "Object").build()
    rhs = (
        GraphBuilder(tg)
        .node("x", "Object")
        .node("y", "Object")
        .edge("xy", "next", "x", "y")
        .build()
    )
    mapping = PartialMorphism(lhs, rhs, {"x": "x"}, {})
    return Rule("append", lhs, rhs, mapping)


def _delete_rule(tg) -> Rule:
    lhs = GraphBuilder(tg).node("x", "Object").build()
    rhs = GraphBuilder(tg).build()
    mapping = PartialMorphism(lhs, rhs, {}, {})
    return Rule("delete", lhs, rhs, mapping)


def test_single_node_pattern_matches_each_candidate():
    tg = linked_list_tg()
    host = GraphBuilder(tg).node("a", "Object").node("b", "Object").build()
    rule = _identity_rule(tg, "Object")
    matches = find_matches(rule, host)
    assert [m.node_map["x0"] for m in matches] == ["a", "b"]


def test_edge_pattern_on_two_node_list():
    tg = linked_list_tg()
    host = make_list(tg, 2)
    matches = find_matches(_edge_pattern_rule(tg), host)
    assert len(matches) == 1
    assert matches[0].node_map == {"x": "o1", "y": "o2"}
    assert matches[0].edge_map == {"xy": "l1"}


def test_match_order_is_lexicographic_and_stable():
    tg = linked_list_tg()
    host = make_list(tg, 4)
    rule = _edge_pattern_rule(tg)
    first = find_matches(rule, host)
    second = find_matches(rule, host)
    keys = [tuple(sorted(m.node_map.items())) for m in first]
    assert keys == sorted(keys)
    assert keys == [tuple(sorted(m.node_map.items())) for m in second]


def test_partial_assignment_pins_nodes():
    tg = linked_list_tg()
    host = make_list(tg, 4)
    rule = _edge_pattern_rule(tg)
    matches = find_matches(rule, host, partial={"x": "o2"})
    assert len(matches) == 1
    assert matches[0].node_map == {"x": "o2", "y": "o3"}


def test_partial_assignment_errors():
    tg = zoo_tg()
    host = GraphBuilder(tg).node("a", "Animal").node("c", "Cat").build()
    rule = _identity_rule(tg, "Cat", "Cat")
    with pytest.raises(GraphError):
        find_matches(rule, host, partial={"ghost": "a"})
    with pytest.raises(GraphError):
        find_matches(rule, host, partial={"x0": "missing"})
    with pytest.raises(GraphError):
        find_matches(rule, host, partial={"x0": "a"})  # Animal is not a Cat
    with pytest.raises(GraphError):
        find_matches(rule, host, partial={"x0": "c", "x1": "c"})


def test_subtype_nodes_match_abstract_pattern():
    tg = zoo_tg()
    host = GraphBuilder(tg).node("c", "Cat").node("d", "Dog").build()
    rule = _identity_rule(tg, "Animal")
    matches = find_matches(rule, host)
    assert [m.node_map["x0"] for m in matches] == ["c", "d"]


def test_matches_agree_with_exhaustive_enumeration():
    rng = random.Random(41)
    tg = zoo_tg()
    for round_ in range(40):
        pattern = random_graph(rng, tg, 3, 3)
        host = random_graph(rng, tg, 5, 7)
        rhs_builder = GraphBuilder(tg)
        for n, t in sorted(pattern.nodes.items()):
            rhs_builder.node(n, t)
        for e, d in sorted(pattern.edges.items()):
            rhs_builder.edge(e, d.type, d.src, d.trg)
        rhs = rhs_builder.build()
        rule = Rule(
            "probe",
            pattern,
            rhs,
            PartialMorphism(
                pattern,
                rhs,
                {n: n for n in pattern.nodes},
                {e: e for e in pattern.edges},
            ),
        )
        got = sorted(
            (
                tuple(sorted(m.node_map.items())),
                tuple(sorted(m.edge_map.items())),
            )
            for m in find_matches(rule, host)
        )
        want = brute_force_matches(pattern, host)
        assert got == want, f"round {round_}"


def _subgraph_pattern(rng: random.Random, host: TypedGraph) -> TypedGraph:
    """Up to three host nodes and three of the edges among them, renamed
    and with some node types generalized, so the host holds a match."""
    tg = host.tg
    picked = rng.sample(host.node_ids(), rng.randint(1, min(3, len(host.nodes))))
    rename = {n: f"p{i}" for i, n in enumerate(rng.sample(picked, len(picked)))}
    nodes = {}
    for n in picked:
        ntype = host.nodes[n]
        if tg.node_types[ntype] is not None and rng.random() < 0.4:
            ntype = tg.node_types[ntype]
        nodes[rename[n]] = ntype
    inside = [
        e
        for _, e in sorted(host.edges.items())
        if e.src in rename and e.trg in rename and rng.random() < 0.7
    ]
    edges = {
        f"q{i}": Edge(e.type, rename[e.src], rename[e.trg])
        for i, e in enumerate(inside[:3])  # parallel edges multiply matches
    }
    return TypedGraph(tg, nodes, edges)


def _rule_with_random_nacs(rng: random.Random, host: TypedGraph) -> Rule:
    """Identity rule on a random lhs, guarded by up to two random NACs.

    The lhs is a random graph or, more often, a pattern the host holds.
    Each NAC graph copies the lhs and adds nodes and edges, parallel ones
    and self-loops included, between any of its nodes.
    """
    tg = host.tg
    if rng.random() < 0.3:
        lhs = random_graph(rng, tg, 3, 4)
    else:
        lhs = _subgraph_pattern(rng, host)
    nacs = []
    for _ in range(rng.randint(0, 2)):
        nodes = dict(lhs.nodes)
        for i in range(rng.randint(0, 2)):
            nodes[f"w{i}"] = rng.choice(sorted(tg.node_types))
        edges = dict(lhs.edges)
        for i in range(rng.randint(0, 3)):
            etype = rng.choice(sorted(tg.edge_types))
            decl = tg.edge_types[etype]
            srcs = [v for v, t in sorted(nodes.items()) if tg.conforms(t, decl.src)]
            trgs = [v for v, t in sorted(nodes.items()) if tg.conforms(t, decl.trg)]
            if srcs and trgs:
                edges[f"f{i}"] = Edge(etype, rng.choice(srcs), rng.choice(trgs))
        graph = TypedGraph(tg, nodes, edges)
        embedding = PartialMorphism(
            lhs, graph, {n: n for n in lhs.nodes}, {e: e for e in lhs.edges}
        )
        nacs.append(NAC(graph, embedding))
    mapping = PartialMorphism(
        lhs, lhs, {n: n for n in lhs.nodes}, {e: e for e in lhs.edges}
    )
    return Rule("guarded", lhs, lhs, mapping, tuple(nacs))


def _random_pins(rng: random.Random, lhs: TypedGraph, host: TypedGraph) -> dict:
    """Pin a random subset of lhs nodes to distinct type-conforming images."""
    pins: dict[str, str] = {}
    for ln in lhs.node_ids():
        if rng.random() < 0.5:
            continue
        images = [
            hn
            for hn in host.node_ids()
            if hn not in pins.values()
            and host.tg.conforms(host.nodes[hn], lhs.nodes[ln])
        ]
        if images:
            pins[ln] = rng.choice(images)
    return pins


def _maps(matches) -> list[tuple[dict, dict]]:
    return [(m.node_map, m.edge_map) for m in matches]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_match_list_equals_the_reference_matcher_in_order(seed):
    # the reference lists every match and sorts; the package must yield
    # the same list in the same order, and `first` must give its head
    rng = random.Random(seed)
    tg = zoo_tg()
    host = random_graph(rng, tg, 6, 12)
    rule = _rule_with_random_nacs(rng, host)
    partial = _random_pins(rng, rule.lhs, host)
    want = _maps(reference_matches(rule, host, partial))
    assert _maps(find_matches(rule, host, partial)) == want
    assert _maps(find_matches(rule, host, partial, first=True)) == want[:1]


def _chase_rule(tg) -> Rule:
    """Identity rule on a -chases-> b -owns-> t, forbidden where b chases a
    back or where a owns a toy, which may be t unless NACs are injective."""
    lhs = (
        GraphBuilder(tg)
        .node("a", "Animal")
        .node("b", "Animal")
        .node("t", "Toy")
        .edge("ab", "chases", "a", "b")
        .edge("bt", "owns", "b", "t")
        .build()
    )
    back = TypedGraph(tg, lhs.nodes, {**lhs.edges, "ba": Edge("chases", "b", "a")})
    toy = TypedGraph(
        tg, {**lhs.nodes, "w": "Toy"}, {**lhs.edges, "aw": Edge("owns", "a", "w")}
    )

    def identity(g: TypedGraph) -> PartialMorphism:
        return PartialMorphism(
            lhs, g, {n: n for n in lhs.nodes}, {e: e for e in lhs.edges}
        )

    nacs = (NAC(back, identity(back)), NAC(toy, identity(toy)))
    return Rule("chase", lhs, lhs, identity(lhs), nacs)


def test_plans_reused_across_hosts_and_pin_sets_keep_every_match(plan_builds):
    # one rule serves many hosts under changing pin sets, so each pattern's
    # plan for a set of pinned nodes is built once and reused; the match
    # lists must still be the reference's, and pin sets that share their
    # images but pin different nodes must not share a plan
    rng = random.Random(14)
    tg = zoo_tg()
    rule = _chase_rule(tg)
    bare = Rule("bare", rule.lhs, rule.rhs, rule.mapping)
    pin_keys = set()
    listed = forbidden = 0
    for i in range(60):
        host = random_graph(rng, tg, 6, 12)
        animals = [n for n in host.node_ids() if host.nodes[n] != "Toy"]
        toys = [n for n in host.node_ids() if host.nodes[n] == "Toy"]
        pin_sets = [{}]
        if animals:
            x = rng.choice(animals)
            pin_sets += [{"a": x}, {"b": x}]
        unguarded = reference_matches(bare, host)
        if unguarded:
            pin_sets.append(dict(rng.choice(unguarded).node_map))
        elif len(animals) > 1 and toys:
            pin_sets.append({"a": animals[0], "b": animals[1], "t": toys[0]})
        for pins in pin_sets:
            pin_keys.add(frozenset(pins))
            want = _maps(reference_matches(rule, host, pins))
            assert _maps(find_matches(rule, host, pins)) == want, (i, pins)
            listed += len(want)
        forbidden += len(unguarded) - len(reference_matches(rule, host))
    assert listed and forbidden
    assert len(pin_keys) == 4
    assert sum(p is rule.lhs for p in plan_builds) == len(pin_keys)
    assert all(sum(p is nac.graph for p in plan_builds) == 1 for nac in rule.nacs)
    # the same graphs as patterns of an isomorphism, every node pinned
    for g in (rule.lhs, *(nac.graph for nac in rule.nacs)):
        copy = shuffled_copy(rng, g)
        iso = find_isomorphism(g, copy)
        assert iso is not None and iso.is_total() and iso.is_injective()
        assert networkx_isomorphic(g, copy)


def _networkx_node_maps(pattern: TypedGraph, host: TypedGraph) -> set:
    """Node maps of the pattern's monomorphisms into the host, by networkx:
    a node matches a node whose type conforms to its own, and each pattern
    edge bundle needs as many host edges of every type it carries."""
    tg = host.tg

    def node_match(host_node: dict, pattern_node: dict) -> bool:
        return tg.conforms(host_node["type"], pattern_node["type"])

    def edge_match(host_bundle: dict, pattern_bundle: dict) -> bool:
        def per_type(bundle: dict) -> dict:
            counts: dict = {}
            for data in bundle.values():
                counts[data["type"]] = counts.get(data["type"], 0) + 1
            return counts

        have = per_type(host_bundle)
        return all(have.get(t, 0) >= n for t, n in per_type(pattern_bundle).items())

    matcher = nx.isomorphism.MultiDiGraphMatcher(
        as_networkx(host), as_networkx(pattern), node_match, edge_match
    )
    return {
        frozenset((p, h) for h, p in found.items())
        for found in matcher.subgraph_monomorphisms_iter()
    }


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_match_node_maps_equal_networkx_monomorphisms(seed):
    # NAC-free rules on zoo multigraphs with inheritance, parallel edges
    # and self-loops; networkx knows nothing of the package's search
    rng = random.Random(seed)
    tg = zoo_tg()
    host = random_graph(rng, tg, 6, 12)
    if rng.random() < 0.3:
        lhs = random_graph(rng, tg, 3, 4)
    else:
        lhs = _subgraph_pattern(rng, host)
    rule = Rule(
        "probe",
        lhs,
        lhs,
        PartialMorphism(lhs, lhs, {n: n for n in lhs.nodes}, {e: e for e in lhs.edges}),
    )
    got = {frozenset(m.node_map.items()) for m in find_matches(rule, host)}
    assert got == _networkx_node_maps(lhs, host)


def _nac_edge_rule(tg) -> Rule:
    lhs = GraphBuilder(tg).node("this", "Object").node("next", "Object").build()
    rhs = GraphBuilder(tg).node("this", "Object").node("next", "Object").build()
    mapping = PartialMorphism(
        lhs, rhs, {"this": "this", "next": "next"}, {}
    )
    nac_graph = (
        GraphBuilder(tg)
        .node("this", "Object")
        .node("next", "Object")
        .edge("tn", "next", "this", "next")
        .build()
    )
    embedding = PartialMorphism(
        lhs, nac_graph, {"this": "this", "next": "next"}, {}
    )
    return Rule("no-edge", lhs, rhs, mapping, (NAC(nac_graph, embedding),))


def test_nac_forbids_existing_edge():
    tg = linked_list_tg()
    rule = _nac_edge_rule(tg)
    host = make_list(tg, 2)
    pairs = {(m.node_map["this"], m.node_map["next"]) for m in find_matches(rule, host)}
    # (o1, o2) carries the forbidden edge; the reverse pair does not
    assert pairs == {("o2", "o1")}


def test_nac_allows_when_witness_absent():
    tg = linked_list_tg()
    rule = _nac_edge_rule(tg)
    host = GraphBuilder(tg).node("a", "Object").node("b", "Object").build()
    assert len(find_matches(rule, host)) == 2


def test_nac_witnesses_are_injective():
    tg = linked_list_tg()
    lhs = GraphBuilder(tg).node("x", "Object").build()
    rhs = GraphBuilder(tg).node("x", "Object").build()
    mapping = PartialMorphism(lhs, rhs, {"x": "x"}, {})
    nac_graph = (
        GraphBuilder(tg).node("x", "Object").node("other", "Object").build()
    )
    embedding = PartialMorphism(lhs, nac_graph, {"x": "x"}, {})
    rule = Rule("lonely", lhs, rhs, mapping, (NAC(nac_graph, embedding),))
    host = GraphBuilder(tg).node("a", "Object").build()
    [match] = find_matches(rule, host)  # injective witness impossible
    assert check_nac(rule.nacs[0], match)


def test_apply_deletes_node_with_incident_edges():
    tg = linked_list_tg()
    host = make_list(tg, 3)
    rule = _delete_rule(tg)
    match = find_matches(rule, host, partial={"x": "o2"})[0]
    out = apply_rule(rule, match, host)
    assert set(out.result.nodes) == {"o1", "o3"}
    assert out.result.edges == {}
    assert out.deleted == {"o2", "l1", "l2"}
    assert out.created == set()


def test_apply_creates_fresh_ids_deterministically():
    tg = linked_list_tg()
    host = make_list(tg, 1)
    rule = _append_rule(tg)
    out1 = apply_rule(rule, find_matches(rule, host)[0], host)
    assert out1.created == {"n#1", "e#1"}
    g2 = out1.result
    match = find_matches(rule, g2, partial={"x": "n#1"})[0]
    out2 = apply_rule(rule, match, g2)
    assert out2.created == {"n#2", "e#2"}
    assert out2.rhs_node_map["y"] == "n#2"


def test_deleting_the_highest_fresh_ids_frees_their_numbers():
    # ids come from the survivors' highest n#k / e#k, so deleting the
    # holder of a mark hands its number out again
    tg = linked_list_tg()
    append, delete = _append_rule(tg), _delete_rule(tg)

    def apply_at(rule, host, node):
        return apply_rule(rule, find_matches(rule, host, {"x": node})[0], host)

    host = make_list(tg, 1)
    for _ in range(2):
        host = apply_at(append, host, "o1").result
    assert set(host.nodes) == {"o1", "n#1", "n#2"}
    host = apply_at(delete, host, "n#2").result
    assert apply_at(append, host, "o1").created == {"n#2", "e#2"}


def _ids(g: TypedGraph) -> set[str]:
    return set(g.nodes) | set(g.edges)


def test_apply_rule_returns_the_host_when_nothing_changes():
    # a graph never changes, so an application that deletes and creates
    # nothing needs no copy: its result is the host, and every host id
    # survives
    tg = linked_list_tg()
    host = make_list(tg, 3)
    link = GraphBuilder(tg).node("x", "Object").node("y", "Object")
    lhs = link.edge("xy", "next", "x", "y").build()
    identity = PartialMorphism(lhs, lhs, {"x": "x", "y": "y"}, {"xy": "xy"})
    rule = Rule("read", lhs, lhs, identity)
    match = find_matches(rule, host)[1]
    out = apply_rule(rule, match, host)
    assert out.result is host
    assert out.created == set() and out.deleted == set()
    assert _ids(host) - out.deleted == _ids(host) & _ids(out.result) == _ids(host)
    assert out.rhs_node_map == {"x": "o2", "y": "o3"}


def test_apply_rejects_stale_match():
    tg = linked_list_tg()
    host = make_list(tg, 2)
    rule = _append_rule(tg)
    match = find_matches(rule, host)[0]
    copy = parse_graph(serialize_graph(host), tg)
    with pytest.raises(StaleMatchError):
        apply_rule(rule, match, copy)


def test_comorphism_covers_exactly_survivors():
    tg = linked_list_tg()
    host = make_list(tg, 3)
    rule = _delete_rule(tg)
    match = find_matches(rule, host, partial={"x": "o1"})[0]
    out = apply_rule(rule, match, host)
    # survivors keep their ids: the host ids outside `deleted` are exactly
    # the host ids left in the result
    survivors = _ids(host) - out.deleted
    assert survivors == _ids(host) & _ids(out.result) == {"o2", "o3", "l2"}


def _random_rule(rng: random.Random, tg) -> Rule:
    lhs = random_graph(rng, tg, 3, 3)
    preserved_nodes = sorted(
        n for n in lhs.nodes if rng.random() < 0.65
    )
    preserved_edges = sorted(
        e
        for e, d in lhs.edges.items()
        if d.src in preserved_nodes and d.trg in preserved_nodes and rng.random() < 0.8
    )
    b = GraphBuilder(tg)
    for n in preserved_nodes:
        b.node(n, lhs.nodes[n])
    extra = rng.randint(0, 2)
    concrete = sorted(tg.node_types)
    for i in range(extra):
        b.node(f"fresh{i}", rng.choice(concrete))
    rhs_partial = b.build()
    rhs_builder = GraphBuilder(tg)
    for n, t in rhs_partial.nodes.items():
        rhs_builder.node(n, t)
    for e in preserved_edges:
        d = lhs.edges[e]
        rhs_builder.edge(e, d.type, d.src, d.trg)
    eid = 0
    for _ in range(rng.randint(0, 3)):
        etype = rng.choice(sorted(tg.edge_types))
        decl = tg.edge_types[etype]
        srcs = [v for v, t in rhs_partial.nodes.items() if tg.conforms(t, decl.src)]
        trgs = [v for v, t in rhs_partial.nodes.items() if tg.conforms(t, decl.trg)]
        if not srcs or not trgs:
            continue
        rhs_builder.edge(
            f"newe{eid}", etype, rng.choice(srcs), rng.choice(trgs)
        )
        eid += 1
    rhs = rhs_builder.build()
    mapping = PartialMorphism(
        lhs,
        rhs,
        {n: n for n in preserved_nodes},
        {e: e for e in preserved_edges},
    )
    return Rule("random", lhs, rhs, mapping)


def test_apply_matches_naive_pushout_on_random_cases():
    rng = random.Random(97)
    tg = zoo_tg()
    compared = 0
    dangling_seen = 0
    while compared < 60:
        rule = _random_rule(rng, tg)
        host = random_graph(rng, tg, 6, 8)
        matches = find_matches(rule, host)
        if not matches:
            continue
        match = matches[rng.randrange(len(matches))]
        out = apply_rule(rule, match, host)
        reference = naive_pushout(rule, match.node_map, match.edge_map, host)
        assert find_isomorphism(out.result, reference) is not None
        report = validate_typing(out.result, tg)
        assert report.ok
        dead_nodes = {match.node_map[n] for n in rule.deleted_lhs_nodes()}
        if any(
            e.src in dead_nodes or e.trg in dead_nodes
            for e in host.edges.values()
        ):
            dangling_seen += 1
        compared += 1
    assert dangling_seen > 5


def _fresh_shaped(rng: random.Random, g: TypedGraph) -> TypedGraph:
    """A copy of g whose ids look like the ids rule application creates."""
    numbers = rng.sample(range(1, 60), len(g.nodes) + len(g.edges))
    rename = {n: f"n#{k}" for n, k in zip(sorted(g.nodes), numbers)}
    edges = {
        f"e#{k}": Edge(e.type, rename[e.src], rename[e.trg])
        for k, e in zip(numbers[len(g.nodes) :], g.edges.values())
    }
    return TypedGraph(g.tg, {rename[n]: t for n, t in g.nodes.items()}, edges)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_derived_graphs_equal_graphs_built_from_scratch(seed):
    # a result derives its adjacency index and fresh-id marks from its
    # host; chains of random rules, many deleting n#k / e#k elements,
    # must leave both as a from-scratch build and a full id scan give them
    rng = random.Random(seed)
    tg = zoo_tg()
    g = random_graph(rng, tg, 7, 10)
    if rng.random() < 0.6:
        g = _fresh_shaped(rng, g)
    applied = 0
    for _ in range(40):
        rule = _random_rule(rng, tg)
        matches = find_matches(rule, g)
        if not matches:
            continue
        before = {n: (list(g.out_edges(n)), list(g.in_edges(n))) for n in g.nodes}
        iso_signature(g)  # cached on the host, never carried to the result
        out = apply_rule(rule, rng.choice(matches), g)
        h = out.result
        scratch = TypedGraph(h.tg, h.nodes, h.edges)
        for n in h.nodes:
            assert h.out_edges(n) == scratch.out_edges(n)
            assert h.in_edges(n) == scratch.in_edges(n)
        assert iso_signature(h) == iso_signature(scratch)
        assert tuple(mark + 1 for mark in h._fresh_marks()) == reference_next_fresh(h)
        assert {n: (g.out_edges(n), g.in_edges(n)) for n in g.nodes} == before
        assert _ids(g) - out.deleted == _ids(g) & _ids(h)
        g = h
        applied += 1
        if applied == 6:
            break


def test_enumerate_language_counts_rooted_trees():
    tg = linked_list_tg()
    start = GraphBuilder(tg).node("o1", "Object").build()
    grammar = GraphGrammar(start, (_append_rule(tg),))
    result = enumerate_language(grammar, 4)
    # rooted unlabeled trees with 1..4 nodes: 1 + 1 + 2 + 4
    assert len(result.graphs) == 8
    assert result.warnings == []


def test_enumerate_language_rejects_tight_bound():
    tg = linked_list_tg()
    start = make_list(tg, 2)
    grammar = GraphGrammar(start, (_append_rule(tg),))
    with pytest.raises(GraphError):
        enumerate_language(grammar, 1)


def test_enumerate_language_warns_on_node_deletion():
    tg = linked_list_tg()
    start = make_list(tg, 2)
    grammar = GraphGrammar(start, (_delete_rule(tg),))
    result = enumerate_language(grammar, 2)
    assert result.warnings


def _split_rule(tg) -> Rule:
    # deletes x and creates y -> z: one node deleted, yet a growth of +1
    lhs = GraphBuilder(tg).node("x", "Object").build()
    rhs = (
        GraphBuilder(tg)
        .node("y", "Object")
        .node("z", "Object")
        .edge("yz", "next", "y", "z")
        .build()
    )
    return Rule("split", lhs, rhs, PartialMorphism(lhs, rhs, {}, {}))


def _insert_rule(tg) -> Rule:
    # replaces x -next-> y by x -next-> z -next-> y
    lhs = GraphBuilder(tg).node("x", "Object").node("y", "Object")
    lhs = lhs.edge("xy", "next", "x", "y").build()
    rhs = GraphBuilder(tg).node("x", "Object").node("y", "Object").node("z", "Object")
    rhs = rhs.edge("xz", "next", "x", "z").edge("zy", "next", "z", "y").build()
    return Rule("insert", lhs, rhs, PartialMorphism(lhs, rhs, {"x": "x", "y": "y"}, {}))


@pytest.mark.parametrize("bound", [2, 3, 4, 5])
def test_enumeration_skips_only_rules_past_the_bound(bound):
    # node growth is created minus deleted: -1 for delete, +1 for append,
    # for insert and for split, which deletes a node too; append, delete
    # and split share their left side, and so one search per graph
    tg = linked_list_tg()
    rules = (_append_rule(tg), _delete_rule(tg), _split_rule(tg), _insert_rule(tg))
    grammar = GraphGrammar(make_list(tg, 2), rules)
    got = enumerate_language(grammar, bound)
    want = reference_enumerate_language(grammar, bound)
    assert [g.to_dict() for g in got.graphs] == [g.to_dict() for g in want.graphs]
    assert got.warnings == want.warnings


def test_enumeration_honours_nacs():
    # append only at a node with no successor yet, so the trees are chains
    tg = linked_list_tg()
    append = _append_rule(tg)
    nac_graph = (
        GraphBuilder(tg)
        .node("x", "Object")
        .node("w", "Object")
        .edge("xw", "next", "x", "w")
        .build()
    )
    nac = NAC(nac_graph, PartialMorphism(append.lhs, nac_graph, {"x": "x"}, {}))
    rule = Rule("append-last", append.lhs, append.rhs, append.mapping, (nac,))
    start = GraphBuilder(tg).node("o1", "Object").build()
    grammar = GraphGrammar(start, (rule,))
    got = enumerate_language(grammar, 4)
    want = reference_enumerate_language(grammar, 4)
    assert [g.to_dict() for g in got.graphs] == [g.to_dict() for g in want.graphs]
    # chains of 1..4 nodes, where ignoring the NAC gives 8 rooted trees
    assert [find_isomorphism(g, make_list(tg, n)) is not None
            for n, g in enumerate(got.graphs, 1)] == [True] * 4


def test_enumerate_is_deterministic():
    tg = linked_list_tg()
    start = GraphBuilder(tg).node("o1", "Object").build()
    grammar = GraphGrammar(start, (_append_rule(tg),))
    a = [serialize_graph(g) for g in enumerate_language(grammar, 4).graphs]
    b = [serialize_graph(g) for g in enumerate_language(grammar, 4).graphs]
    assert a == b


def test_rule_constants_equal_a_recomputation():
    rules = list(syntax_grammar().rules)
    for path in sorted(FIXTURES.glob("*.diagram.json")):
        if path.name != "invalid_cfg.diagram.json":
            rules += [p.rule for p in load_story_diagram(path).patterns.values()]
    assert any(r.deleted_lhs_nodes() for r in rules)
    assert any(r.created_rhs_nodes() for r in rules)
    for rule in rules:
        image = set(rule.mapping.node_map.values())
        deleted = [n for n in rule.lhs.node_ids() if n not in rule.mapping.node_map]
        created = [n for n in rule.rhs.node_ids() if n not in image]
        for method, want in (
            (rule.deleted_lhs_nodes, deleted),
            (rule.created_rhs_nodes, created),
        ):
            got = method()
            assert got == want
            got.append("mutated")
            assert method() == want


def test_rule_serialization_round_trip():
    tg = linked_list_tg()
    rule = _nac_edge_rule(tg)
    data = rule_to_dict(rule)
    back = rule_from_dict(data, tg)
    assert back.name == rule.name
    assert back.lhs == rule.lhs
    assert back.rhs == rule.rhs
    assert back.mapping.node_map == rule.mapping.node_map
    assert len(back.nacs) == 1
    assert back.nacs[0].graph == rule.nacs[0].graph


def test_replay_comorphism_chain_reproduces_final_graph():
    tg = linked_list_tg()
    g = make_list(tg, 2)
    rule = _append_rule(tg)
    survivors = {n: n for n in g.nodes}
    current = g
    for _ in range(3):
        match = find_matches(rule, current)[0]
        out = apply_rule(rule, match, current)
        survivors = {n: v for n, v in survivors.items() if v not in out.deleted}
        assert set(survivors.values()) <= set(out.result.nodes)
        current = out.result
    # no deletions happened, so the original nodes all survive unrenamed
    assert survivors == {n: n for n in g.nodes}
    assert set(g.nodes) <= set(current.nodes)
