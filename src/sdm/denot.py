"""Denotational semantics of story diagrams as a brute-force oracle.

The meaning of a construct is a finite set of (input, output) graph
pairs: one pair per rule application chain, with inapplicable rules
passing the graph through unchanged. Conditionals pick their branch by
applicability, while loops unroll to a bound and admit being
incomplete. Bindings and scopes do not exist at this level, which is
exactly what makes the comparison against the step interpreter
interesting: the two semantics agree on all-success runs and diverge
in documented ways around failures. A rule is applied once per twin
orbit of its matches, and a condition's one search picks its branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagram import StoryDiagram
from .graph import GraphError, IsoSet, TypedGraph, twin_classes
from .interp import Configuration, Trace, replay
from .rewrite import Match, Rule, apply_rule, find_matches
from .syntax import (
    COND_JOINING,
    COND_NONJOINING,
    LOOP_HEAD_FAILURE,
    LOOP_HEAD_SUCCESS,
    SEQUENTIAL,
    STOP_NODE,
    branch_targets,
    next_target,
)

DEFAULT_MODEL_BOUND = 6
DEFAULT_UNROLL_DEPTH = 20


class OracleError(GraphError):
    """The oracle refuses the instance (too large, or out of scope)."""


class SemSet:
    """Pairs of (input, output) graphs, deduplicated componentwise.

    Two pairs collide when their inputs are isomorphic and their
    outputs are isomorphic. `incomplete` records that some while-loop
    unrolling hit the depth bound, so absence from the set proves
    nothing. `matched` records, on a set `sem_node` built, that its rule
    was applicable.
    """

    def __init__(self, incomplete: bool = False) -> None:
        self.incomplete = incomplete
        self.matched = False
        self._pairs = IsoSet()

    def add(self, g: TypedGraph, h: TypedGraph) -> None:
        self._pairs.add((g, h))

    def contains(self, g: TypedGraph, h: TypedGraph) -> bool:
        return (g, h) in self._pairs

    def pairs(self) -> list[tuple[TypedGraph, TypedGraph]]:
        return list(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        flag = ", incomplete" if self.incomplete else ""
        return f"SemSet({len(self)} pairs{flag})"


# -- denotational expressions ------------------------------------------------


@dataclass(slots=True)
class NodeExpr:
    rule: Rule


@dataclass(slots=True)
class SeqExpr:
    parts: list["DenotExpr"]


@dataclass(slots=True)
class IfExpr:
    cond: Rule
    then: "DenotExpr"
    orelse: "DenotExpr"


@dataclass(slots=True)
class WhileExpr:
    cond: Rule
    body: "DenotExpr"


DenotExpr = Union[NodeExpr, SeqExpr, IfExpr, WhileExpr]


def compile_diagram(d: StoryDiagram) -> DenotExpr:
    """Turn a classified diagram into a denotational expression tree."""
    cls = d.classification
    cfg = d.cfg

    def rule_at(node: str) -> Rule:
        return d.pattern_at(node).rule

    def region(node: str, stop_at: Optional[str]) -> SeqExpr:
        parts: list[DenotExpr] = []
        while node != stop_at and cfg.nodes[node] != STOP_NODE:
            kind = cls.kinds[node]
            if kind == SEQUENTIAL:
                parts.append(NodeExpr(rule_at(node)))
                node = next_target(cfg, node)
            elif kind == COND_JOINING:
                join = cls.joins[node]
                succ, fail = branch_targets(cfg, node)
                parts.append(
                    IfExpr(rule_at(node), region(succ, join), region(fail, join))
                )
                node = join
            elif kind == COND_NONJOINING:
                succ, fail = branch_targets(cfg, node)
                parts.append(
                    IfExpr(rule_at(node), region(succ, None), region(fail, None))
                )
                break  # both branches end at their own stop nodes
            elif kind == LOOP_HEAD_SUCCESS:
                succ, fail = branch_targets(cfg, node)
                parts.append(WhileExpr(rule_at(node), region(succ, node)))
                node = fail
            elif kind == LOOP_HEAD_FAILURE:
                raise OracleError(
                    f"loop at {node!r} recurs along failure; the denotational "
                    "while formula only handles looping along success"
                )
            else:
                raise GraphError(f"unclassified node {node!r}")
        return SeqExpr(parts)

    return region(cls.first, None)


def _compose(left: SemSet, expr: DenotExpr, depth: int) -> SemSet:
    out = SemSet(incomplete=left.incomplete)
    for g, h in left.pairs():
        right = evaluate(expr, h, depth)
        out.incomplete = out.incomplete or right.incomplete
        for _, h2 in right.pairs():
            out.add(g, h2)
    return out


def evaluate(expr: DenotExpr, g: TypedGraph, depth: int = DEFAULT_UNROLL_DEPTH) -> SemSet:
    """The pair set of expr on input g, unrolling loops at most depth
    times; a loop cut off at that bound marks the set incomplete."""
    if depth < 0:
        raise GraphError("depth must be nonnegative")
    if isinstance(expr, NodeExpr):
        return sem_node(expr.rule, g)
    if isinstance(expr, SeqExpr):
        out = SemSet()
        out.add(g, g)
        for part in expr.parts:
            out = _compose(out, part, depth)
        return out
    if isinstance(expr, IfExpr):
        entry = sem_node(expr.cond, g)  # {(g,g)} when inapplicable
        branch = expr.then if entry.matched else expr.orelse
        return _compose(entry, branch, depth)
    if isinstance(expr, WhileExpr):
        entry = sem_node(expr.cond, g)
        if not entry.matched:
            return entry
        if depth == 0:
            return SemSet(incomplete=True)
        one_pass = _compose(entry, expr.body, depth)
        return _compose(one_pass, expr, depth - 1)
    raise GraphError(f"unknown expression {expr!r}")


# -- single-rule operator forms ----------------------------------------------


def sem_node(r: Rule, g: TypedGraph) -> SemSet:
    """One pair per match of r in g; {(g,g)} when r is inapplicable.

    Matches whose lhs nodes, in id order, land in the same twin classes
    differ by an automorphism of g, parallel edges being interchangeable
    too, so only the first in lex order of each such orbit is applied."""
    out = SemSet()
    matches = find_matches(r, g)
    out.matched = bool(matches)
    if not matches:
        out.add(g, g)
        return out
    rep = {n: twins[0] for twins in twin_classes(g) for n in twins}
    lhs = r.lhs.node_ids()
    orbits: dict[tuple, Match] = {}
    for m in matches:
        orbits.setdefault(tuple(rep[m.node_map[n]] for n in lhs), m)
    for m in orbits.values():
        out.add(g, apply_rule(r, m, g).result)
    return out


# -- cross-checking the step interpreter -------------------------------------


@dataclass(slots=True)
class Verdict:
    ok: bool
    notes: list[str] = field(default_factory=list)
    divergences: list[str] = field(default_factory=list)
    pair_checked: bool = False
    pair_found: Optional[bool] = None
    sem_size: int = 0
    incomplete: bool = False


def cross_check(
    c: Configuration,
    trace: Trace,
    model_bound: int = DEFAULT_MODEL_BOUND,
) -> Verdict:
    """Replay a run from its freshly initialized configuration `c`, and
    compare it against the denotational pair set.

    All-success runs must produce a pair in the set. A failed
    sequential invocation and a conditional whose failure was caused
    only by pinned bindings are documented divergences, reported but
    not failures. A trace that `step` does not give back raises
    GraphError. The model size bound keeps the brute force honest.
    """
    d, model = c.diagram, c.model
    if len(model.nodes) > model_bound:
        raise OracleError(
            f"model has {len(model.nodes)} nodes, oracle bound is {model_bound}"
        )
    expr = compile_diagram(d)  # refuses failure-recurring loops

    v = Verdict(ok=True)
    terminated = False
    for ts, g in replay(c, trace):
        if ts.outcome == "terminated":
            terminated = True
        elif ts.outcome == "failed":
            # a failed step leaves the model as it was, so g is its input
            if d.classification.kinds[ts.node] == SEQUENTIAL:
                v.divergences.append(
                    f"sequential pattern failed at {ts.node!r}: the step "
                    "semantics aborts, the denotational semantics passes the "
                    "graph through"
                )
            elif find_matches(d.pattern_at(ts.node).rule, g, first=True):
                v.divergences.append(
                    f"conditional {ts.node!r} failed only under its pinned "
                    "bindings; the denotational semantics, which has no "
                    "bindings, would take the success branch"
                )

    if v.divergences:
        v.notes.append("documented divergence; membership not required")
        return v
    if not terminated:
        v.notes.append("run did not terminate; no final pair to check")
        return v

    sem = evaluate(expr, model, DEFAULT_UNROLL_DEPTH)
    v.sem_size = len(sem)
    v.incomplete = sem.incomplete
    v.pair_checked = True
    v.pair_found = sem.contains(model, g)
    if v.pair_found:
        v.notes.append("pair is in the composed semantics")
    elif sem.incomplete:
        v.pair_checked = False
        v.notes.append(
            "pair not found but the semantics is incomplete at this depth"
        )
    else:
        v.ok = False
        v.notes.append("pair missing from the composed semantics")
    return v
