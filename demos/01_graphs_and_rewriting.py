"""Build a typed graph, apply a rule by hand, watch dangling edges go.

Run from the repository root:  python3 demos/01_graphs_and_rewriting.py
"""

from sdm import (
    EdgeType,
    GraphBuilder,
    PartialMorphism,
    Rule,
    TypeGraph,
    apply_rule,
    find_matches,
    serialize_graph,
)

tg = TypeGraph(
    "linked-list",
    {"Object": None},
    {"next": EdgeType("Object", "Object")},
)

b = GraphBuilder(tg)
for name in ("a", "b", "c"):
    b.node(name, "Object")
b.edge("ab", "next", "a", "b")
b.edge("bc", "next", "b", "c")
host = b.build()
print("host graph:")
print(serialize_graph(host))

# a rule that deletes the middle of any chain x -> y -> z and bridges it
lb = GraphBuilder(tg)
for name in ("x", "y", "z"):
    lb.node(name, "Object")
lb.edge("e1", "next", "x", "y")
lb.edge("e2", "next", "y", "z")
lhs = lb.build()

rb = GraphBuilder(tg)
rb.node("x", "Object")
rb.node("z", "Object")
rb.edge("e3", "next", "x", "z")
rhs = rb.build()

bridge = Rule(
    "bridge-over-middle",
    lhs,
    rhs,
    PartialMorphism(lhs, rhs, {"x": "x", "z": "z"}, {}),
)

matches = find_matches(bridge, host)
print(f"{len(matches)} match(es) for {bridge.name}")
out = apply_rule(bridge, matches[0], host)
print(f"deleted {sorted(out.deleted)}, created {sorted(out.created)}")
print("result (the edges at b went with it):")
print(serialize_graph(out.result))
