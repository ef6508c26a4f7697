"""Independent reference implementations used only by the test suite.

These deliberately share no code with the package: isomorphism by
exhaustive bijection search, matching by exhaustive injective map
enumeration, rewriting by a naive delete-then-glue construction, and the
package's earlier backtracking matcher, which scans the sorted edge set
for every adjacency query and sorts its full match list, the earlier
fresh-id scan over every id of a graph, and the graph writer that runs
`json.dumps` with `indent`.

Four more are the package's earlier versions of a fast path, kept to
check that the fast path changes no result. They share the package's
matcher and rewriting, and differ only in what the fast path changed:
the control-flow validator that matches each inverse rule unpinned and
scans every host edge to test exactness, language enumeration that
builds every application before pruning by the node bound and
deduplicates with networkx instead of canonical keys, node
classification that finds loops and joins by dominator analysis instead
of reading them off the derivation witness, and a rule's pair set that
applies every match and deduplicates by brute-force isomorphism instead
of applying one match per twin orbit.

`replay_derivation` runs a validator's derivation witness forward with
the package's matcher and rewriting, to check that witnesses replay.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Iterator, Optional

import networkx as nx

from sdm.graph import (
    Edge,
    GraphError,
    IsoSet,
    PartialMorphism,
    TypedGraph,
    _enumerate_monos,
    find_isomorphism,
    iso_signature,
    validate_typing,
)
from sdm.rewrite import (
    GraphGrammar,
    LanguageResult,
    Match,
    Rule,
    apply_rule,
    find_matches,
)
from sdm.syntax import (
    ABSTRACT,
    CF_NODE,
    COND_JOINING,
    COND_NONJOINING,
    FAILURE,
    LOOP_HEAD_FAILURE,
    LOOP_HEAD_SUCCESS,
    NEXT,
    SEQUENTIAL,
    START_NODE,
    SUCCESS,
    SYNTAX_TYPE_GRAPH,
    CfgValidation,
    DerivationStep,
    NodeClassification,
    _reach,
    start_graph,
    syntax_rules,
)

from .conftest import as_networkx


def brute_force_isomorphic(g: TypedGraph, h: TypedGraph) -> bool:
    """Try every type-respecting node bijection and check edge multisets."""
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return False
    g_nodes = sorted(g.nodes)
    for perm in itertools.permutations(sorted(h.nodes)):
        mapping = dict(zip(g_nodes, perm))
        if any(g.nodes[a] != h.nodes[mapping[a]] for a in g_nodes):
            continue
        g_multiset = sorted(
            (e.type, mapping[e.src], mapping[e.trg]) for e in g.edges.values()
        )
        h_multiset = sorted((e.type, e.src, e.trg) for e in h.edges.values())
        if g_multiset == h_multiset:
            return True
    return False


def networkx_isomorphic(g: TypedGraph, h: TypedGraph) -> bool:
    """Isomorphism with node and edge types kept exactly, decided by networkx."""
    return nx.is_isomorphic(
        as_networkx(g),
        as_networkx(h),
        node_match=nx.isomorphism.categorical_node_match("type", None),
        edge_match=nx.isomorphism.categorical_multiedge_match("type", None),
    )


def brute_force_matches(
    pattern: TypedGraph, host: TypedGraph, partial: dict[str, str] | None = None
) -> list[tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]]:
    """Every injective occurrence of pattern in host, as sorted map pairs.

    Node images may specialize types through the host type graph's
    inheritance. Returns canonical (node_map, edge_map) tuples.
    """
    partial = partial or {}
    p_nodes = sorted(pattern.nodes)
    h_nodes = sorted(host.nodes)
    found = []
    for images in itertools.permutations(h_nodes, len(p_nodes)):
        node_map = dict(zip(p_nodes, images))
        if any(node_map[k] != v for k, v in partial.items()):
            continue
        if any(
            not host.tg.conforms(host.nodes[node_map[p]], pattern.nodes[p])
            for p in p_nodes
        ):
            continue
        p_edges = sorted(pattern.edges)
        candidates_per_edge = []
        for pe in p_edges:
            e = pattern.edges[pe]
            candidates_per_edge.append(
                [
                    he
                    for he, hedge in sorted(host.edges.items())
                    if hedge.type == e.type
                    and hedge.src == node_map[e.src]
                    and hedge.trg == node_map[e.trg]
                ]
            )
        for combo in itertools.product(*candidates_per_edge):
            if len(set(combo)) != len(combo):
                continue
            edge_map = dict(zip(p_edges, combo))
            found.append(
                (
                    tuple(sorted(node_map.items())),
                    tuple(sorted(edge_map.items())),
                )
            )
    return sorted(set(found))


def naive_pushout(
    rule,
    node_map: dict[str, str],
    edge_map: dict[str, str],
    host: TypedGraph,
) -> TypedGraph:
    """Reference SPO application: delete, drop dangling edges, glue rhs.

    Fresh elements get oracle-local ids, so results compare to the
    engine's output only up to isomorphism.
    """
    preserved_l_nodes = set(rule.mapping.node_map)
    preserved_l_edges = set(rule.mapping.edge_map)
    dead_nodes = {
        node_map[n] for n in rule.lhs.nodes if n not in preserved_l_nodes
    }
    dead_edges = {
        edge_map[e] for e in rule.lhs.edges if e not in preserved_l_edges
    }
    nodes = {
        n: t for n, t in host.nodes.items() if n not in dead_nodes
    }
    edges = {}
    for eid, e in host.edges.items():
        if eid in dead_edges:
            continue
        if e.src in dead_nodes or e.trg in dead_nodes:
            continue
        edges[eid] = e

    where: dict[str, str] = {}
    for ln, rn in rule.mapping.node_map.items():
        where[rn] = node_map[ln]
    for rn in rule.rhs.nodes:
        if rn not in where:
            fresh = f"oracle_node_{rn}"
            nodes[fresh] = rule.rhs.nodes[rn]
            where[rn] = fresh
    glued_rhs_edges = set(rule.mapping.edge_map.values())
    for reid, redge in rule.rhs.edges.items():
        if reid in glued_rhs_edges:
            continue
        edges[f"oracle_edge_{reid}"] = Edge(
            redge.type, where[redge.src], where[redge.trg]
        )
    return TypedGraph(host.tg, nodes, edges)


def _sorted_out_edges(g: TypedGraph, node: str) -> list[tuple[str, Edge]]:
    return [(eid, e) for eid, e in sorted(g.edges.items()) if e.src == node]


def _reference_count(g: TypedGraph, src: str, trg: str, etype: str) -> int:
    return sum(
        1 for _, e in _sorted_out_edges(g, src) if e.trg == trg and e.type == etype
    )


def _reference_monos(
    pattern: TypedGraph,
    host: TypedGraph,
    forced_nodes: dict[str, str],
    forced_edges: Optional[dict[str, str]] = None,
) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
    """Backtracking over sorted pattern ids, trying every host node in turn
    and re-checking every pair of assigned nodes for each candidate."""
    pnodes = pattern.node_ids()
    pedges = pattern.edge_ids()
    forced_edges = forced_edges or {}

    def node_ok(pn: str, hn: str, assigned: dict[str, str]) -> bool:
        if hn not in host.nodes:
            return False
        if not host.tg.conforms(host.nodes[hn], pattern.nodes[pn]):
            return False
        if hn in assigned.values():
            return False
        trial = dict(assigned)
        trial[pn] = hn
        for a in trial:
            for b in trial:
                for etype in {
                    e.type for _, e in _sorted_out_edges(pattern, a) if e.trg == b
                }:
                    need = _reference_count(pattern, a, b, etype)
                    have = _reference_count(host, trial[a], trial[b], etype)
                    if have < need:
                        return False
        return True

    for pn in forced_nodes:
        if pn not in pattern.nodes:
            raise GraphError(f"forced assignment names unknown pattern node {pn!r}")

    def assign_nodes(i: int, assigned: dict[str, str]) -> Iterator[dict[str, str]]:
        if i == len(pnodes):
            yield dict(assigned)
            return
        pn = pnodes[i]
        if pn in forced_nodes:
            hn = forced_nodes[pn]
            if node_ok(pn, hn, {k: v for k, v in assigned.items() if k != pn}):
                assigned[pn] = hn
                yield from assign_nodes(i + 1, assigned)
                del assigned[pn]
            return
        for hn in host.node_ids():
            if node_ok(pn, hn, assigned):
                assigned[pn] = hn
                yield from assign_nodes(i + 1, assigned)
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
            candidates = [
                hid
                for hid, he in _sorted_out_edges(host, want_src)
                if he.trg == want_trg and he.type == e.type
            ]
        for hid in candidates:
            if hid in used:
                continue
            he = host.edges.get(hid)
            if he is None or he.src != want_src or he.trg != want_trg:
                continue
            emap[pe] = hid
            used.add(hid)
            yield from assign_edges(nodes, i + 1, emap, used)
            del emap[pe]
            used.discard(hid)

    for nodes in assign_nodes(0, {}):
        for emap in assign_edges(nodes, 0, {}, set()):
            yield nodes, emap


def reference_matches(
    rule,
    host: TypedGraph,
    partial: Optional[dict[str, str]] = None,
    first: bool = False,
) -> list[Match]:
    """Every NAC-respecting match, listed in full and then sorted
    lexicographically; `first` keeps only the head of that list."""
    if rule.lhs.tg != host.tg:
        raise GraphError("rule and host must share one type graph")
    partial = dict(partial or {})
    if len(set(partial.values())) != len(partial):
        raise GraphError("partial assignment must be injective")
    for ln, hn in partial.items():
        if ln not in rule.lhs.nodes or hn not in host.nodes:
            raise GraphError(f"partial assignment {ln!r} -> {hn!r} is unknown")
        if not host.tg.conforms(host.nodes[hn], rule.lhs.nodes[ln]):
            raise GraphError(f"partial assignment {ln!r} -> {hn!r} is ill-typed")

    def nac_ok(nac, match: Match) -> bool:
        forced_nodes = {
            nac.embedding.node_map[l]: match.node_map[l] for l in match.node_map
        }
        forced_edges = {
            nac.embedding.edge_map[l]: match.edge_map[l] for l in match.edge_map
        }
        witnesses = _reference_monos(nac.graph, host, forced_nodes, forced_edges)
        return next(witnesses, None) is None

    matches = []
    for node_map, edge_map in _reference_monos(rule.lhs, host, partial):
        # re-checks the typing, domain and commutation the matcher promises
        PartialMorphism(rule.lhs, host, node_map, edge_map)
        match = Match(rule, node_map, edge_map, host)
        if all(nac_ok(nac, match) for nac in rule.nacs):
            matches.append(match)
    lhs_nodes = rule.lhs.node_ids()
    lhs_edges = rule.lhs.edge_ids()
    matches.sort(
        key=lambda m: (
            tuple(m.node_map[n] for n in lhs_nodes),
            tuple(m.edge_map[e] for e in lhs_edges),
        )
    )
    return matches[:1] if first else matches


def reference_next_fresh(g: TypedGraph) -> tuple[int, int]:
    """The numbers of the next n#k node id and e#k edge id rule application
    creates, by scanning every id of the graph."""
    n = max(
        (int(m.group(1)) for nid in g.nodes if (m := re.match(r"^n#(\d+)$", nid))),
        default=0,
    )
    e = max(
        (int(m.group(1)) for eid in g.edges if (m := re.match(r"^e#(\d+)$", eid))),
        default=0,
    )
    return n + 1, e + 1


def reference_serialize_graph(g: TypedGraph) -> str:
    """The graph file text as `json.dumps` formats it, whose `indent` runs
    the pure-Python encoder."""
    return json.dumps(g.to_dict(), indent=2, sort_keys=True)


def reference_validate_control_flow(g: TypedGraph) -> CfgValidation:
    """Membership by backtracking reduction to the start graph, matching
    each inverse rule's right-hand side unpinned and testing exactness by
    counting each created-node image's incident edges over all host edges."""
    report = validate_typing(g, SYNTAX_TYPE_GRAPH)
    if not report.ok:
        return CfgValidation(False, "; ".join(report.violations))
    if ABSTRACT in g.nodes.values():
        return CfgValidation(False, "abstract node type instantiated")

    target = start_graph()
    rules = sorted(
        syntax_rules(), key=lambda r: (-len(r.rhs.nodes), -len(r.rhs.edges), r.name)
    )
    failed = IsoSet()
    restore_counter = [0]

    def search(cur: TypedGraph) -> Optional[tuple[TypedGraph, list[DerivationStep]]]:
        if len(cur.nodes) == len(target.nodes):
            if find_isomorphism(cur, target):
                return cur, []
            return None
        if len(cur.nodes) < len(target.nodes) or cur in failed:
            return None
        for rule in rules:
            created = [n for n in rule.rhs.node_ids() if n not in ("a", "b")]
            for node_map, edge_map in _enumerate_monos(rule.rhs, cur, {}):
                exact = True
                for rn in created:
                    image = node_map[rn]
                    incident = sum(
                        1
                        for e in cur.edges.values()
                        if e.src == image or e.trg == image
                    )
                    wanted = sum(
                        1
                        for e in rule.rhs.edges.values()
                        if e.src == rn or e.trg == rn
                    )
                    if incident != wanted:
                        exact = False
                        break
                if not exact:
                    continue
                drop = {node_map[n] for n in created} | set(edge_map.values())
                kept = (set(cur.nodes) | set(cur.edges)) - drop
                restore_counter[0] += 1
                while f"r#{restore_counter[0]}" in kept:
                    restore_counter[0] += 1
                restore = Edge(NEXT, node_map["a"], node_map["b"])
                reduced = TypedGraph._derive(
                    cur, drop, {}, {f"r#{restore_counter[0]}": restore}
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


def replay_derivation(validation: CfgValidation) -> TypedGraph:
    """Re-run a derivation witness forward from its embedded base graph.

    Re-application mints fresh node ids, so step anchors recorded against
    the validated graph are translated through the created-node images as
    the replay goes.
    """
    if not validation.ok or validation.base is None:
        raise GraphError("cannot replay an invalid derivation")
    by_name = {r.name: r for r in syntax_rules()}
    g = validation.base
    rename = {n: n for n in g.nodes}
    for step in validation.derivation:
        rule = by_name[step.rule]
        anchors = {"a": rename[step.a], "b": rename[step.b]}
        matches = find_matches(rule, g, partial=anchors, first=True)
        if not matches:
            raise GraphError(f"derivation step {step} does not apply")
        out = apply_rule(rule, matches[0], g)
        g = out.result
        for rhs_id, original in step.created.items():
            rename[original] = out.rhs_node_map[rhs_id]
    return g


def reference_enumerate_language(grammar: GraphGrammar, max_nodes: int) -> LanguageResult:
    """Breadth-first closure that applies every rule at every match and
    only then drops results above the node bound. Graphs are kept once per
    isomorphism class, found with networkx within `iso_signature` buckets,
    so the result lists them as an `IsoSet` would; its `members` is None."""
    if max_nodes < len(grammar.start.nodes):
        raise GraphError("max_nodes is below the start graph's node count")
    warnings = [
        f"rule {rule.name!r} deletes nodes; pruning may drop members"
        for rule in grammar.rules
        if rule.deleted_lhs_nodes()
    ]
    buckets = {iso_signature(grammar.start): [grammar.start]}
    frontier = [grammar.start]
    rules = sorted(grammar.rules, key=lambda r: r.name)
    while frontier:
        next_frontier: list[TypedGraph] = []
        for g in frontier:
            for rule in rules:
                for match in find_matches(rule, g):
                    h = apply_rule(rule, match, g).result
                    if len(h.nodes) > max_nodes:
                        continue
                    bucket = buckets.setdefault(iso_signature(h), [])
                    if not any(networkx_isomorphic(h, k) for k in bucket):
                        bucket.append(h)
                        next_frontier.append(h)
        frontier = next_frontier
    graphs = [g for bucket in buckets.values() for g in bucket]
    graphs.sort(key=iso_signature)
    return LanguageResult(graphs, None, warnings)


def reference_sem_node(
    rule: Rule, g: TypedGraph
) -> list[tuple[TypedGraph, TypedGraph]]:
    """`sem_node`'s pairs from every match: each result in lex match order
    is kept unless a kept one is isomorphic to it by brute force. They are
    listed as a `SemSet` lists them: grouped by signature, groups in order
    of first arrival."""
    matches = find_matches(rule, g)
    if not matches:
        return [(g, g)]
    kept: list[TypedGraph] = []
    for match in matches:
        h = apply_rule(rule, match, g).result
        types = sorted(h.nodes.values())
        if not any(
            sorted(k.nodes.values()) == types and brute_force_isomorphic(h, k)
            for k in kept
        ):
            kept.append(h)
    first: dict[tuple, int] = {}
    for i, h in enumerate(kept):
        first.setdefault(iso_signature(h), i)
    return [(g, h) for h in sorted(kept, key=lambda h: first[iso_signature(h)])]


def reference_classify_nodes(g: TypedGraph) -> NodeClassification:
    """Every story node's role found from the graph alone: loops as natural
    loops over iterative dominator sets, joins as the one common node
    both branches enter first."""
    starts = [n for n, t in g.nodes.items() if t == START_NODE]
    if len(starts) != 1:
        raise GraphError("classification needs exactly one start node")
    start = starts[0]
    start_out = [e for _, e in g.out_edges(start)]
    if len(start_out) != 1 or start_out[0].type != NEXT:
        raise GraphError("start node must have one outgoing next edge")
    first = start_out[0].trg

    preds: dict[str, set[str]] = {n: set() for n in g.nodes}
    for e in g.edges.values():
        preds[e.trg].add(e.src)

    # iterative dominator sets over the flow from the start node
    order = sorted(_reach(g, [start], set()))
    dom: dict[str, set[str]] = {n: set(order) for n in order}
    dom[start] = {start}
    changed = True
    while changed:
        changed = False
        for n in order:
            if n == start:
                continue
            incoming = [dom[p] for p in preds[n] if p in dom]
            new = set.intersection(*incoming) | {n} if incoming else {n}
            if new != dom[n]:
                dom[n] = new
                changed = True

    kinds: dict[str, str] = {}
    joins: dict[str, str] = {}
    branch_members: dict[str, dict[str, set[str]]] = {}

    def cf_only(nodes: set[str]) -> set[str]:
        return {n for n in nodes if g.nodes[n] == CF_NODE}

    for n in sorted(g.nodes):
        if g.nodes[n] != CF_NODE:
            continue
        outs = list(g.out_edges(n))
        types = sorted(e.type for _, e in outs)
        if types == [NEXT]:
            kinds[n] = SEQUENTIAL
            continue
        if types != [FAILURE, SUCCESS]:
            raise GraphError(f"node {n!r} has malformed outgoing edges {types}")
        succ_target = next(e.trg for _, e in outs if e.type == SUCCESS)
        fail_target = next(e.trg for _, e in outs if e.type == FAILURE)

        back_sources = [u for u in preds[n] if n in dom.get(u, set())]
        if back_sources:
            # natural loop: n plus everything reaching a back-edge
            # source against the flow without crossing n
            natural = {n}
            worklist = [u for u in back_sources if u != n]
            while worklist:
                w = worklist.pop()
                if w in natural:
                    continue
                natural.add(w)
                worklist.extend(p for p in preds[w] if p != n)
            in_loop_succ = succ_target in natural
            in_loop_fail = fail_target in natural
            if in_loop_succ == in_loop_fail:
                raise GraphError(f"cannot orient loop at {n!r}")
            polarity = SUCCESS if in_loop_succ else FAILURE
            other = FAILURE if in_loop_succ else SUCCESS
            kinds[n] = (
                LOOP_HEAD_SUCCESS if polarity == SUCCESS else LOOP_HEAD_FAILURE
            )
            branch_members[n] = {
                polarity: cf_only(natural - {n}),
                other: set(),
            }
            continue

        r_succ = _reach(g, [succ_target], {n})
        r_fail = _reach(g, [fail_target], {n})
        common = r_succ & r_fail
        if not common:
            kinds[n] = COND_NONJOINING
            branch_members[n] = {
                SUCCESS: cf_only(r_succ),
                FAILURE: cf_only(r_fail),
            }
        else:
            # the join is the common node both branches reach before any
            # other common node; a loop around the conditional may make
            # the join's other predecessors common too
            def entries(target: str) -> set[str]:
                before = _reach(g, [target], common | {n})
                after = {e.trg for m in before for _, e in g.out_edges(m)}
                return ({target} | after) & common

            candidates = sorted(entries(succ_target) & entries(fail_target))
            if len(candidates) != 1:
                raise GraphError(f"no unique join node for conditional {n!r}")
            join = candidates[0]
            kinds[n] = COND_JOINING
            joins[n] = join
            branch_members[n] = {
                SUCCESS: cf_only(_reach(g, [succ_target], {n, join})),
                FAILURE: cf_only(_reach(g, [fail_target], {n, join})),
            }

    return NodeClassification(
        kinds=kinds, joins=joins, branch_members=branch_members, first=first
    )
