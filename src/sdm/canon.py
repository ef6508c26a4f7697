"""Canonical forms of typed multigraphs given as indexed node types and edges.

Colour refinement (Weisfeiler and Leman, 1968), then individualization
and refinement (McKay and Piperno, "Practical graph isomorphism, II",
J. Symb. Comput. 2014), with the search pruned by the automorphisms its
leaves reveal. Nodes are positions in a list, so this module knows
nothing of ids; `sdm.graph.canonical_key` adapts typed graphs.
"""

from __future__ import annotations

from typing import Callable, Optional

# leaves that reveal no automorphism the search may reach per graph; each
# other leaf ends a branch above a counted one, so n² at most per counted leaf
_LEAF_BUDGET = 512


class SearchBudgetError(Exception):
    """A canonical form needs more search leaves than `_LEAF_BUDGET`."""


def canonical_form(
    types: list[str],
    edges: list[tuple[int, int, str]],
    twins: Callable[[], list[int]],
) -> tuple[tuple, list[int]]:
    """A key that two graphs share exactly when they are isomorphic, and a
    labelling: the nodes in key order.

    `types` holds each node's type and `edges` each edge's (source,
    target, type); `twins()` gives each node's twin class, as
    `sdm.graph.twin_classes` groups them, and is called only if the
    search branches. Nodes start coloured by type, self-loops and typed
    links, and are refined by their typed links to each colour, with
    multiplicity, until stable. If that leaves a cell of several nodes,
    each weakly connected component is searched on its own: each twin
    class of its first such cell is individualized in turn, the whole
    class at once, since swapping twins is an automorphism, and the
    colouring is refined again. Every leaf orders the nodes, and a part's
    key is the least serialization over its leaves: the node types by
    position and the sorted (source position, target position, type)
    edges. The key holds the edge types and the sorted tuple of part keys,
    the parts being the components, or the whole graph when refinement
    alone ordered it.

    A leaf that serializes like the least one maps each node there to the
    node at its position here, an automorphism, and the search goes back
    to where the two paths part. A search node skips the classes in the
    orbits of those searched there, under the automorphisms found below
    it. Pruned branches hold only keys already seen, so the key and the
    labelling do not change. Past `_LEAF_BUDGET` leaves that yield no
    automorphism, it raises `SearchBudgetError`.
    """
    etypes = sorted({t for _, _, t in edges})
    ecode = {t: k for k, t in enumerate(etypes)}
    radix = max(len(etypes), 1)
    # per node: its links as (neighbour, 2 * edge type code, plus 1 for an
    # in-edge), and those codes with each self-loop's type code less radix
    links: list[list[tuple[int, int]]] = [[] for _ in types]
    codes: list[list[int]] = [[] for _ in types]
    coded = []
    for i, j, t in edges:
        k = ecode[t]
        coded.append((i, j, k))
        if i == j:
            codes[i].append(k - radix)
        else:
            links[i].append((j, 2 * k))
            links[j].append((i, 2 * k + 1))
            codes[i].append(2 * k)
            codes[j].append(2 * k + 1)
    start = [(t, sorted(c)) for t, c in zip(types, codes)]
    refined, cells = _refine(links, start, None)
    if len(cells) == len(types):
        part, order = _part(types, refined, coded, radix)
        return (tuple(etypes), (part,)), order
    twin: list[int] = []  # filled once a search branches
    budget = [_LEAF_BUDGET]

    def component_key(comp: list[int]) -> tuple[tuple, list[int]]:
        size = len(comp)
        local = {i: a for a, i in enumerate(comp)}
        adj = [[(local[j], c) for j, c in links[i]] for i in comp]
        inner = [(local[i], local[j], k) for i, j, k in coded if i in local]
        inner_types = [types[i] for i in comp]
        best: list = []  # the least leaf's key, order and path
        autos: list[list[int]] = []  # each maps a position to its image

        def search(sigs: list, pivots: list[int], path: list[int]) -> int:
            # path: a member of each class individualized on the way; returns
            # the depth to go on at, less than here once the rest is mirrored
            colour, cells = _refine(adj, sigs, pivots)
            if len(cells) == size:
                key, order = _part(inner_types, colour, inner, radix)
                if best and key == best[0]:
                    autos.append([b for _, b in sorted(zip(best[1], order))])
                    depth = 0
                    while path[depth] == best[2][depth]:
                        depth += 1
                    return depth
                budget[0] -= 1
                if budget[0] < 0:
                    raise SearchBudgetError(
                        f"isomorphism search budget of {_LEAF_BUDGET} leaves exhausted"
                    )
                if not best or key < best[0]:
                    best[:] = key, order, path
                return len(path)
            target = min(s for s, members in cells.items() if len(members) > 1)
            if not twin:
                twin.extend(twins())
            classes: dict[int, list[int]] = {}
            for a in cells[target]:
                classes.setdefault(twin[comp[a]], []).append(a)
            # automorphisms found below here fix each class on the path, as
            # their two leaves share it; orbits closes the searched classes
            first, orbits = len(autos), set()
            for t, members in classes.items():
                if t in orbits:
                    continue
                k = len(members)
                split = [c * (k + 1) + k for c in colour]
                for r, a in enumerate(sorted(members)):
                    split[a] = target * (k + 1) + r
                depth = search(split, members, path + [members[0]])
                if depth < len(path):
                    return depth
                orbits.add(t)
                stack = list(orbits)
                while stack:
                    rep = classes[stack.pop()][0]
                    for auto in autos[first:]:
                        image = twin[comp[auto[rep]]]
                        if image not in orbits:
                            orbits.add(image)
                            stack.append(image)
            return len(path)

        search([refined[i] for i in comp], [], [])
        return best[0], [comp[a] for a in best[1]]

    parts = []
    seen = [False] * len(types)
    for root in range(len(types)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for i in comp:
            for j, _ in links[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
        parts.append(component_key(sorted(comp)))
    parts.sort(key=lambda part: part[0])
    key = (tuple(etypes), tuple([key for key, _ in parts]))
    return key, [i for _, order in parts for i in order]


def _part(
    types: list[str], colour: list[int], edges: list, radix: int
) -> tuple[tuple, list[int]]:
    """The key of a part under a colouring that orders its nodes, and its
    nodes in that order, all by the part's own positions."""
    size = len(colour)
    found = sorted([(colour[a] * size + colour[b]) * radix + k for a, b, k in edges])
    order = [0] * size
    for a, c in enumerate(colour):
        order[c] = a
    return (tuple([types[a] for a in order]), tuple(found)), order


def _refine(
    adj: list, sigs: list, pivots: Optional[list[int]]
) -> tuple[list[int], dict]:
    """The coarsest equitable partition refining the order of sigs: each
    node's cell, and the cells keyed by their first position.

    A splitter cell splits each cell by its members' links into it,
    members without any first. The nodes of a cell have the same links by
    type, so links into all cells but one fix those into the last: the
    queue starts with the pivots' cells, where the partition was equitable
    before they were split off, or else with all cells but the largest,
    and a split cell queues all its parts if it was queued, else all but
    the largest (Hopcroft).
    """
    size = len(sigs)
    colour, cells = [0] * size, {}
    ranked = sorted(range(size), key=sigs.__getitem__)
    first = 0
    for p, a in enumerate(ranked):
        if p and sigs[a] != sigs[ranked[p - 1]]:
            first = p
        colour[a] = first
        cells.setdefault(first, []).append(a)
    if pivots is not None:
        queue = sorted({colour[a] for a in pivots})
    else:
        largest = max(cells.values(), key=len, default=None)
        queue = [s for s, members in cells.items() if members is not largest]
    queued = set(queue)
    for w in queue:
        if len(cells) == size:
            break
        queued.discard(w)
        into: dict[int, list[int]] = {}
        for x in cells[w]:
            for b, c in adj[x]:
                into.setdefault(b, []).append(c)
        touched: dict[int, list[int]] = {}
        for b in into:
            touched.setdefault(colour[b], []).append(b)
        for s in sorted(touched):
            members, hit = cells[s], touched[s]
            if len(members) == 1:
                continue
            sig = {a: sorted(into[a]) for a in hit}
            hit.sort(key=sig.__getitem__)
            if len(hit) < len(members):
                parts = [[a for a in members if a not in into]]
            elif sig[hit[0]] == sig[hit[-1]]:
                continue
            else:
                parts = []
            p = 0
            for q in range(1, len(hit) + 1):
                if q == len(hit) or sig[hit[q]] != sig[hit[q - 1]]:
                    parts.append(hit[p:q])
                    p = q
            largest, requeue = max(parts, key=len), s in queued
            for part in parts:
                for a in part:
                    colour[a] = s
                cells[s] = part
                if (requeue or part is not largest) and s not in queued:
                    queue.append(s)
                    queued.add(s)
                s += len(part)
    return colour, cells
