"""Seeded inputs for the benchmark, each op paired with its expected answer.

Every input is built here from a `random.Random(seed)`: models (stars and
lists), story diagrams (the `while_star` fixture, a NAC variant of it, and
control-flow graphs grown rule by rule from the 16-rule grammar) and
non-member mutants. The seed varies ids and the order of nodes and edges
in the files, never sizes, shapes, mutation sites or the relative order
of ids, so runs with different seeds cost the same.

Expected answers come from the construction, never from sdm's output:

- `run` of `while_star` on a star with N spokes: lex order makes each
  head evaluation take the smallest spoke id left, and the body cuts it.
  Conservatively the loop cuts every spoke, so 2N+3 steps and N+1 nodes
  with no edges remain; under a step budget of 2k steps the run exits 5
  with the k smallest spokes cut. Optimistically the loop join adopts the
  body's binding of `x`, so the second head evaluation pins `x` to the
  spoke already cut and fails: 5 steps, one spoke cut. The NAC variant
  forbids `x -> this`, which no star has, so it behaves the same.
- `validate`: graphs grown by grammar rules are members (exit 0). A
  mutant redirects one `next` edge past its target, leaving that target
  unreachable from the start node; every rule keeps all nodes reachable,
  so the mutant is no member (exit 2).
- `enumerate --max-nodes 6` lists 188 graphs; `--max-nodes 3` lists only
  the start graph, since every rule adds a node.
- `oracle` (no bindings in the denotational semantics, results deduped by
  isomorphism): `while_star` conservatively yields the single pair (star,
  N+1 isolated nodes); `delete_next_object` on a k-list yields one pair,
  since dropping any inner node leaves a (k-1)-list; `join_policy`
  conservatively deletes any one node of the k-list, leaving two paths
  whose lengths sum to k-1, which gives (k+1)//2 pairs. Optimistically
  `while_star` fails its head under the adopted binding and `join_policy`
  fails its sequential join on the deleted partner: both are documented
  divergences.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

TYPEGRAPH = {
    "name": "linked-list",
    "node_types": [{"name": "Object"}],
    "edge_types": [{"name": "next", "src": "Object", "trg": "Object"}],
}

STAR_SIZES = (25, 50, 100, 200)
# a whole conservative run on star-200 takes longer than the rest of the
# round together; above star-100 it stops at a step budget instead, which
# still times the per-step cost on the big star. Optimistic runs stop after
# 5 steps and mostly time loading, so the NAC variant runs optimistically
# on the biggest star only.
FULL_RUN_MAX = 100
STEP_BUDGET = 40
# Chains stop at 11 nodes because a 13-node chain takes as long to validate
# as a quarter of the round. Nested mixes stop at 11 nodes because from 13
# on they put an if-then at the end of a loop body inside another loop, and
# there `sdm validate` exits 1 with a traceback: classify_nodes finds no
# unique join node for that if-then, although the graph is a member.
CFG_SIZES = {
    "chain": (7, 9, 11),
    "ifthen": (7, 9, 11, 13),
    "while": (7, 9, 11, 13),
    "nested": (7, 9, 11),
}
MUTANT_SIZES = (7, 9)
ORACLE_STAR_SIZES = (5, 8, 10, 12)
ORACLE_LIST_SIZES = (5, 8, 10)
ORACLE_MODEL_BOUND = 16
ENUMERATE_BOUND = 6
ENUMERATE_COUNT = 188
STRATEGIES = ("conservative", "optimistic")


@dataclass
class Op:
    """One CLI invocation and what it must produce.

    `stdout` is a prefix of the first line of standard output,
    `stdout_line` a line it must contain, `lines` its line count and
    `stderr` a prefix of standard error. For `run`, `files` names the
    final model and trace files, `model` the node ids and edge ids the
    final model must have, and `steps` the trace length. `curve` places
    the op on a scaling curve: the curve's name, the input size, and the
    span whose time is plotted.
    """

    name: str
    argv: list[str]
    exit_code: int = 0
    stdout: Optional[str] = None
    stdout_line: Optional[str] = None
    stderr: Optional[str] = None
    lines: Optional[int] = None
    model: Optional[tuple[set, set]] = None
    steps: Optional[int] = None
    curve: Optional[tuple[str, int, str]] = None
    files: dict[str, str] = field(default_factory=dict)


class Namer:
    """Random ids whose order is the order they were drawn in.

    The seed picks the id values, but ids sort in creation order, so the
    order-dependent searches in sdm (lexicographic matching, the
    validator's backtracking) explore the same way for every seed; with
    freely ordered ids a mutant's rejection time varies twofold across
    seeds.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.last = 0

    def __call__(self, prefix: str) -> str:
        self.last += self.rng.randrange(1, 1000)
        return f"{prefix}{self.last:08d}"


def _graph(rng: random.Random, typegraph: str, nodes, edges) -> dict:
    nodes = [{"id": n, "type": t} for n, t in nodes]
    edges = [{"id": e, "type": t, "src": s, "trg": d} for e, t, s, d in edges]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return {"typegraph": typegraph, "nodes": nodes, "edges": edges}


def star_model(rng: random.Random, n: int) -> tuple[dict, str, list[str], dict]:
    """A center with n `next` spokes: (model, center, spokes, spoke -> edge id)."""
    name = Namer(rng)
    center = name("o")
    spokes = [name("o") for _ in range(n)]
    edge_of = {s: name("e") for s in spokes}
    model = _graph(
        rng,
        "linked-list",
        [(center, "Object")] + [(s, "Object") for s in spokes],
        [(edge_of[s], "next", center, s) for s in spokes],
    )
    return model, center, spokes, edge_of


def list_model(rng: random.Random, k: int) -> tuple[dict, str]:
    """A `next` path of k nodes: (model, head)."""
    name = Namer(rng)
    path = [name("o") for _ in range(k)]
    model = _graph(
        rng,
        "linked-list",
        [(n, "Object") for n in path],
        [(name("l"), "next", a, b) for a, b in zip(path, path[1:])],
    )
    return model, path[0]


def with_head_nac(diagram: dict) -> dict:
    """`while_star` whose head pattern forbids an edge x -> this."""
    out = json.loads(json.dumps(diagram))
    head = next(p for p in out["patterns"] if p["node"] == "head")
    lhs = head["rule"]["lhs"]
    nac_graph = json.loads(json.dumps(lhs))
    nac_graph["edges"].append({"id": "back", "type": "next", "src": "x", "trg": "t"})
    embed = [{"l": n["id"], "n": n["id"]} for n in lhs["nodes"]]
    embed += [{"l": e["id"], "n": e["id"]} for e in lhs["edges"]]
    head["rule"]["nacs"] = [{"graph": nac_graph, "embed": embed}]
    return out


# -- control-flow graphs ------------------------------------------------------


class Cfg:
    """A control-flow graph grown by applying grammar rules to `next` edges."""

    def __init__(self, rng: random.Random) -> None:
        self.name = Namer(rng)
        self.rng = rng
        self.nodes: dict[str, str] = {}
        self.edges: dict[str, tuple[str, str, str]] = {}
        start, story = self._node("StartNode"), self._node("CFNode")
        stop = self._node("StopNode")
        self._edge("next", start, story)
        self.tail = self._edge("next", story, stop)

    def _node(self, ntype: str) -> str:
        nid = self.name("c")
        self.nodes[nid] = ntype
        return nid

    def _edge(self, etype: str, src: str, trg: str) -> str:
        eid = self.name("f")
        self.edges[eid] = (etype, src, trg)
        return eid

    def insert_node(self, eid: str) -> tuple[str, str]:
        """a -> b becomes a -> n -> b; returns the two new next edges."""
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

    def to_json(self) -> dict:
        return _graph(
            self.rng,
            "ControlFlowSyntax",
            sorted(self.nodes.items()),
            [(e, t, s, d) for e, (t, s, d) in sorted(self.edges.items())],
        )


def _grow(g: Cfg, size: int, blocks, pick: int) -> None:
    # apply the blocks in turn, each at the edge the previous one returned;
    # an odd leftover node becomes one plain story node
    site = g.tail
    turn = 0
    while size - len(g.nodes) >= 2:
        site = blocks[turn % len(blocks)](site)[pick]
        turn += 1
    while len(g.nodes) < size:
        site = g.insert_node(site)[0]


# ladders put each block before the previous one (pick the edge a -> c);
# the nested mix puts a loop in an if-then branch, an if-then in that
# loop's body, and so on
SHAPES = {
    "chain": lambda g, n: _grow(g, n, [g.insert_node], 0),
    "ifthen": lambda g, n: _grow(g, n, [g.if_then], 0),
    "while": lambda g, n: _grow(g, n, [g.while_body], 0),
    "nested": lambda g, n: _grow(g, n, [g.if_then, g.while_body], 1),
}


def cfg_of_shape(rng: random.Random, shape: str, size: int) -> Cfg:
    g = Cfg(rng)
    SHAPES[shape](g, size)
    return g


def mutate(g: Cfg) -> None:
    """Redirect the `next` edge into the first story node past it.

    The first story node has the start node as its only predecessor and
    one `next` successor in every shape built here, so it ends up
    unreachable.
    """
    eid, (_, start, first) = next(
        (eid, e) for eid, e in g.edges.items() if g.nodes[e[1]] == "StartNode"
    )
    (after,) = [d for t, s, d in g.edges.values() if s == first]
    g.edges[eid] = ("next", start, after)


def trivial_diagram(cfg: dict, story_nodes: list[str]) -> dict:
    """Every story node gets the same one-node pattern on `this`."""
    side = {"typegraph": "linked-list", "nodes": [{"id": "t", "type": "Object"}], "edges": []}
    rule = {"name": "touch-this", "lhs": side, "rhs": side, "map": [{"l": "t", "r": "t"}]}
    this = {"elem": "t", "name": "this", "bound": True}
    return {
        "typegraph": TYPEGRAPH,
        "cfg": cfg,
        "params": [{"name": "this", "type": "Object"}],
        "patterns": [{"node": n, "rule": rule, "vars": [this]} for n in sorted(story_nodes)],
    }


# -- workloads ----------------------------------------------------------------


class Builder:
    """The seeded random source, and input files written under `work`."""

    def __init__(self, work: Path, seed: int, fixtures: Path) -> None:
        self.work = work
        self.rng = random.Random(seed)
        self.fixtures = fixtures

    def write(self, name: str, data: dict) -> str:
        path = self.work / name
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.work / name)

    def fixture(self, name: str) -> dict:
        return json.loads((self.fixtures / name).read_text(encoding="utf-8"))


def run_star_ops(b: Builder) -> list[Op]:
    plain = b.write("while_star.json", b.fixture("while_star.diagram.json"))
    nac = b.write("while_star_nac.json", with_head_nac(b.fixture("while_star.diagram.json")))
    ops = []
    for variant, diagram in (("plain", plain), ("nac", nac)):
        for n in STAR_SIZES:
            model, center, spokes, edge_of = star_model(b.rng, n)
            path = b.write(f"star{n}_{variant}.json", model)
            nodes = {center, *spokes}
            for strategy in STRATEGIES:
                if variant == "nac" and strategy == "optimistic" and n != STAR_SIZES[-1]:
                    continue
                name = f"run/{variant}/star{n}/{strategy}"
                tag = name.replace("/", "_")
                argv = ["run", diagram, path, "--this", center, "--strategy", strategy,
                        "--out", b.out(tag + ".out.json"), "--trace", b.out(tag + ".trace.jsonl")]
                exit_code = 0
                if strategy == "optimistic":
                    steps, cut = 5, 1
                    stdout = f"terminated after {steps} steps"
                elif n <= FULL_RUN_MAX:
                    steps, cut = 2 * n + 3, n
                    stdout = f"terminated after {steps} steps"
                else:
                    # head and body alternate, each head taking the smallest spoke left
                    steps, cut, exit_code = STEP_BUDGET, STEP_BUDGET // 2, 5
                    stdout = f"step budget of {steps} exhausted"
                    argv += ["--max-steps", str(steps)]
                edges = {edge_of[s] for s in sorted(spokes)[cut:]}
                ops.append(Op(
                    name,
                    argv,
                    exit_code=exit_code,
                    stdout=stdout,
                    model=(nodes, edges),
                    steps=steps,
                    files={"out": b.out(tag + ".out.json"), "trace": b.out(tag + ".trace.jsonl")},
                    curve=(f"run.{variant}.step_ms", n, "interp.step")
                    if strategy == "conservative" else None,
                ))
    return ops


def validate_cfg_ops(b: Builder) -> list[Op]:
    ops = []
    for shape in SHAPES:
        for size in CFG_SIZES[shape]:
            g = cfg_of_shape(b.rng, shape, size)
            story = [n for n, t in g.nodes.items() if t == "CFNode"]
            path = b.write(f"{shape}{size}.json", trivial_diagram(g.to_json(), story))
            ops.append(Op(
                f"validate/{shape}{size}",
                ["validate", path],
                stdout=f"valid: control flow graph with {size} nodes",
                curve=("validate_ms", size, "syntax.validate_control_flow"),
            ))
        for size in MUTANT_SIZES:
            g = cfg_of_shape(b.rng, shape, size)
            story = [n for n, t in g.nodes.items() if t == "CFNode"]
            mutate(g)
            path = b.write(f"{shape}{size}_mutant.json", trivial_diagram(g.to_json(), story))
            ops.append(Op(
                f"validate/{shape}{size}-mutant",
                ["validate", path],
                exit_code=2,
                stderr="invalid diagram: control flow graph is invalid",
            ))
    return ops


def enumerate_ops(b: Builder, bound: int = ENUMERATE_BOUND) -> list[Op]:
    count = {3: 1, ENUMERATE_BOUND: ENUMERATE_COUNT}[bound]
    return [Op(
        f"enumerate/{bound}",
        ["enumerate", "--max-nodes", str(bound)],
        stdout_line=f"count: {count}",
        lines=count + 1,
    )]


def oracle_ops(b: Builder) -> list[Op]:
    diagrams = {
        name: b.write(f"{name}.json", b.fixture(f"{name}.diagram.json"))
        for name in ("while_star", "delete_next_object", "join_policy")
    }
    divergence = {
        "while_star": "documented divergence: conditional 'head' failed only under",
        "join_policy": "documented divergence: sequential pattern failed at 'join'",
    }
    cases = [("while_star", k) for k in ORACLE_STAR_SIZES]
    cases += [(d, k) for d in ("delete_next_object", "join_policy") for k in ORACLE_LIST_SIZES]
    ops = []
    for diagram, k in cases:
        if diagram == "while_star":
            model, this, _, _ = star_model(b.rng, k)
            pairs = 1
        else:
            model, this = list_model(b.rng, k)
            pairs = 1 if diagram == "delete_next_object" else (k + 1) // 2
        path = b.write(f"oracle_{diagram}{k}.json", model)
        for strategy in STRATEGIES:
            diverges = strategy == "optimistic" and diagram in divergence
            ops.append(Op(
                f"oracle/{diagram}{k}/{strategy}",
                ["oracle", diagrams[diagram], path, "--this", this, "--strategy", strategy,
                 "--model-bound", str(ORACLE_MODEL_BOUND)],
                stdout=divergence[diagram] if diverges else None,
                stdout_line=None if diverges else f"semantics size: {pairs} pairs",
                curve=(f"oracle.{diagram}.{strategy}.op_ms", k, "cli.main"),
            ))
    return ops
