"""Step interpreter for story diagrams.

Execution walks the position token over the control-flow graph. Each
step invokes the pattern at the token's node against the model,
applies one semantic transition (token shift, branch-scope creation,
binding updates, join policy), and appends one trace record. The whole
run is deterministic for a fixed match-order mode and seed. Replay
re-runs `step` with each record's match as the choice, and requires
every step to give the record back.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .diagram import ROOT_SCOPE, CFVariable, StoryDiagram, StoryPattern
from .graph import (
    Edge,
    EdgeType,
    FormatError,
    GraphError,
    TypedGraph,
    TypeGraph,
    _check_names,
)
from .rewrite import Match, apply_rule, find_matches
from .syntax import (
    ABSTRACT,
    CF_NODE,
    FAILURE,
    SEQUENTIAL,
    STOP_NODE,
    SUCCESS,
    SYNTAX_TYPE_GRAPH,
    branch_targets,
    next_target,
)

RUNNING = "running"
TERMINATED = "terminated"
ERROR = "error"
NONTERMINATING = "nonterminating"

CONSERVATIVE = "conservative"
OPTIMISTIC = "optimistic"

SCOPE_TYPE = "Scope"
CFVAR_TYPE = "CFVariable"
BINDING_TYPE = "VariableBinding"
VARIABLE_TYPE = "Variable"
TOKEN_TYPE = "PositionToken"
INVOCATION_TYPE = "PatternInvocation"


# the control-flow syntax plus the execution state's runtime types
SEMANTIC_TYPE_GRAPH = TypeGraph(
    "ExecutionState",
    SYNTAX_TYPE_GRAPH.node_types
    | {
        SCOPE_TYPE: None,
        CFVAR_TYPE: None,
        BINDING_TYPE: None,
        VARIABLE_TYPE: None,
        TOKEN_TYPE: None,
        INVOCATION_TYPE: None,
    },
    SYNTAX_TYPE_GRAPH.edge_types
    | {
        "at": EdgeType(TOKEN_TYPE, ABSTRACT),
        "parentScope": EdgeType(SCOPE_TYPE, SCOPE_TYPE),
        "nodes": EdgeType(SCOPE_TYPE, ABSTRACT),
        "variables": EdgeType(SCOPE_TYPE, CFVAR_TYPE),
        "instanceOf": EdgeType(SCOPE_TYPE, SCOPE_TYPE),
        "inScope": EdgeType(BINDING_TYPE, SCOPE_TYPE),
        "forVariable": EdgeType(BINDING_TYPE, CFVAR_TYPE),
        "boundTo": EdgeType(BINDING_TYPE, VARIABLE_TYPE),
        "invocation": EdgeType(CF_NODE, INVOCATION_TYPE),
        "constructedVariables": EdgeType(INVOCATION_TYPE, CFVAR_TYPE),
        "destructedVariables": EdgeType(INVOCATION_TYPE, CFVAR_TYPE),
    },
)


@dataclass(slots=True)
class BindingRec:
    id: str
    cfvar: CFVariable
    model_node: str


@dataclass(slots=True)
class ScopeInstance:
    id: str
    template: str
    bindings: dict[str, BindingRec] = field(default_factory=dict)


@dataclass(slots=True)
class InvocationRec:
    id: str
    constructed: list[CFVariable]
    destructed: list[CFVariable]


@dataclass(slots=True)
class TraceStep:
    step: int
    node: str
    outcome: str  # matched | failed | terminated
    match: dict[str, str]  # variable name -> model node id
    constructed: list[str]
    destructed: list[str]
    scope_events: list[dict]
    model_rev: int
    rule: Optional[str]  # None on a terminating step
    edges: dict[str, str]  # lhs edge -> model edge id, {} unless matched

    def to_record(self) -> dict:
        return {
            "step": self.step,
            "node": self.node,
            "outcome": self.outcome,
            "match": [
                {"var": var, "model_node": node}
                for var, node in sorted(self.match.items())
            ],
            "constructed": self.constructed,
            "destructed": self.destructed,
            "scope_events": self.scope_events,
            "model_rev": self.model_rev,
            "rule": self.rule,
            "edges": self.edges,
        }


@dataclass(slots=True)
class Trace:
    steps: list[TraceStep]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(s.to_record(), sort_keys=True) + "\n" for s in self.steps
        )

    @classmethod
    def from_jsonl(cls, text: str) -> Trace:
        """Parse what `to_jsonl` writes; FormatError on a malformed line."""
        steps = []
        for number, line in enumerate(text.splitlines(), 1):
            try:
                rec = json.loads(line)
                match = {m["var"]: m["model_node"] for m in rec["match"]}
                edges = rec["edges"]
                names = [rec["node"], *match, *match.values(), *edges, *edges.values()]
                _check_names("trace record", *names)
                if rec["outcome"] not in ("matched", "failed", "terminated"):
                    raise FormatError(f"unknown outcome {rec['outcome']!r}")
                steps.append(TraceStep(**{**rec, "match": match}))
            except (ValueError, KeyError, TypeError, AttributeError, FormatError,
                    RecursionError) as e:  # RecursionError: nesting too deep
                raise FormatError(f"trace line {number}: {e!r}") from e
        return cls(steps)


class Configuration:
    """Mutable execution state for one story-diagram run.

    The live scope instances form `stack`, root first: a branch pushes
    an instance and a join pops the top. The token is attached to
    `token_at` while the run is neither terminated nor in error; under
    error, `token_at` is the node whose pattern failed. `len(trace)`
    is the number of steps taken.
    """

    def __init__(
        self,
        diagram: StoryDiagram,
        model: TypedGraph,
        strategy: str,
        rng: Optional[random.Random],  # None under lex match order
    ):
        self.diagram = diagram
        self.scopes = diagram.scopes
        self.model = model
        self.strategy = strategy
        self.rng = rng
        self.status = RUNNING
        self.token_at: str = diagram.classification.first
        self._counters = {"s": 0, "b": 0, "p": 0}
        self.stack = [ScopeInstance(self._fresh("s"), ROOT_SCOPE)]
        # model node -> its Variable proxy, numbered on its first binding
        self.proxies: dict[str, str] = {}
        self.invocations: dict[str, InvocationRec] = {}  # by control flow node
        self.trace: list[TraceStep] = []
        self.model_rev = 0

    def _fresh(self, kind: str) -> str:
        self._counters[kind] += 1
        return f"{kind}{self._counters[kind]}"

    # -- scope bookkeeping -------------------------------------------------

    def _bind(self, instance: ScopeInstance, name: str, model_node: str) -> None:
        cfvar = self.scopes.resolve(instance.template, name)
        if cfvar is None:
            raise GraphError(
                f"no control flow variable {name!r} in scope of {instance.template!r}"
            )
        self.proxies.setdefault(model_node, f"v{len(self.proxies) + 1}")
        instance.bindings[name] = BindingRec(self._fresh("b"), cfvar, model_node)

    def _push_instance(self, template: str) -> ScopeInstance:
        """Push an instance of `template` holding copies of the top's bindings."""
        inst = ScopeInstance(self._fresh("s"), template)
        for name, rec in sorted(self.stack[-1].bindings.items()):
            inst.bindings[name] = BindingRec(
                self._fresh("b"), rec.cfvar, rec.model_node
            )
        self.stack.append(inst)
        return inst

    def _pop_instance(self, events: list[dict]) -> None:
        exited = self.stack.pop()
        parent = self.stack[-1]
        event = {
            "event": "exit",
            "scope": exited.id,
            "template": exited.template,
        }
        if self.strategy == CONSERVATIVE:
            removed = sorted(
                name for name in parent.bindings if name not in exited.bindings
            )
            for name in removed:
                del parent.bindings[name]
            event["removed"] = removed
        else:
            adopted = []
            for name, rec in sorted(exited.bindings.items()):
                parent.bindings[name] = BindingRec(
                    self._fresh("b"), rec.cfvar, rec.model_node
                )
                adopted.append(name)
            event["adopted"] = adopted
        events.append(event)

    # -- views -------------------------------------------------------------

    def state_graph(self) -> TypedGraph:
        """Materialize the execution state as a typed graph.

        The static scope templates appear alongside the runtime scope
        instances; instances point at their template and at the instance
        below them on the stack, bindings at scope, control flow
        variable, and model proxy. Discarded instances and their
        bindings are absent. Raises
        GraphError when a runtime id is also an id of the control flow
        graph, since the two share the state graph's one namespace.
        """
        cfg = self.diagram.cfg
        nodes: dict[str, str] = {"token": TOKEN_TYPE}
        edges: dict[str, Edge] = {}
        if self.status not in (TERMINATED, ERROR):
            edges["at"] = Edge("at", "token", self.token_at)
        for template in self.scopes.templates.values():
            nodes[template.id] = SCOPE_TYPE
            if template.parent is not None:
                edges[f"pt:{template.id}"] = Edge(
                    "parentScope", template.id, template.parent
                )
            for member in template.members:
                edges[f"m:{template.id}:{member}"] = Edge(
                    "nodes", template.id, member
                )
            for cfvar in template.declared.values():
                nodes[cfvar.id] = CFVAR_TYPE
                edges[f"v:{cfvar.id}"] = Edge("variables", template.id, cfvar.id)
        live_vars = set()
        for below, inst in zip([None, *self.stack], self.stack):
            nodes[inst.id] = SCOPE_TYPE
            edges[f"io:{inst.id}"] = Edge("instanceOf", inst.id, inst.template)
            if below is not None:
                edges[f"ps:{inst.id}"] = Edge("parentScope", inst.id, below.id)
            for rec in inst.bindings.values():
                var = self.proxies[rec.model_node]
                nodes[rec.id] = BINDING_TYPE
                live_vars.add(var)
                edges[f"in:{rec.id}"] = Edge("inScope", rec.id, inst.id)
                edges[f"for:{rec.id}"] = Edge("forVariable", rec.id, rec.cfvar.id)
                edges[f"to:{rec.id}"] = Edge("boundTo", rec.id, var)
        for var in sorted(live_vars):
            nodes[var] = VARIABLE_TYPE
        for node, inv in self.invocations.items():
            nodes[inv.id] = INVOCATION_TYPE
            edges[f"of:{inv.id}"] = Edge("invocation", node, inv.id)
            for cfvar in inv.constructed:
                edges[f"c:{inv.id}:{cfvar.id}"] = Edge(
                    "constructedVariables", inv.id, cfvar.id
                )
            for cfvar in inv.destructed:
                edges[f"d:{inv.id}:{cfvar.id}"] = Edge(
                    "destructedVariables", inv.id, cfvar.id
                )
        clash = (nodes.keys() | edges.keys()) & (cfg.nodes.keys() | cfg.edges.keys())
        if clash:
            raise GraphError(
                f"control flow graph id {min(clash)!r} is also a runtime id "
                "of the execution state graph"
            )
        return TypedGraph(
            SEMANTIC_TYPE_GRAPH, cfg.nodes | nodes, cfg.edges | edges
        )


def initialize(
    d: StoryDiagram,
    model: TypedGraph,
    this_node: str,
    strategy: str = CONSERVATIVE,
    seed: Optional[int] = None,
) -> Configuration:
    """Create the initial configuration: root scope, this binding, token.

    Matches are taken in lex order, or in a random order drawn from
    `seed` when one is given.
    """
    if model.tg != d.tg:
        raise GraphError("model is typed over a different type graph")
    if strategy not in (CONSERVATIVE, OPTIMISTIC):
        raise GraphError(f"unknown strategy {strategy!r}")
    name, this_type = d.params[0]
    if this_node not in model.nodes:
        raise GraphError(f"this node {this_node!r} is not in the model")
    if not model.tg.conforms(model.nodes[this_node], this_type):
        raise GraphError(
            f"this node {this_node!r} has type {model.nodes[this_node]!r}, "
            f"expected {this_type!r}"
        )
    rng = None if seed is None else random.Random(seed)
    c = Configuration(d, model, strategy, rng)
    c._bind(c.stack[0], name, this_node)
    return c


def _choose(
    c: Configuration, pattern: StoryPattern, pins: dict, recorded: Optional[TraceStep]
) -> Optional[Match]:
    """The step's match, or None when the pattern has none.

    A matched record pins every left side node to its recorded image on
    top of the binding pins in `pins`, and the choice is the candidate
    with the recorded edge images. Otherwise it is the head of the lex
    order, or an `rng` pick from every candidate.
    """
    pinned = dict(pins)
    chosen = recorded is not None and recorded.outcome == "matched"
    for lhs_node, name in sorted(pattern.lhs_names.items()) if chosen else ():
        if name not in recorded.match:
            raise GraphError(f"the record has no image for {name!r}")
        if pinned.setdefault(lhs_node, recorded.match[name]) != recorded.match[name]:
            raise GraphError(
                f"variable {name!r} is bound to {pinned[lhs_node]!r}, "
                f"the record has {recorded.match[name]!r}"
            )
    matches = find_matches(
        pattern.rule, c.model, partial=pinned, first=not chosen and c.rng is None
    )
    if chosen:
        matches = [m for m in matches if m.edge_map == recorded.edges]
        if not matches:
            raise GraphError("no match has the recorded images")
    elif c.rng is not None and matches:
        return matches[c.rng.randrange(len(matches))]
    return matches[0] if matches else None


def step(c: Configuration, recorded: Optional[TraceStep] = None) -> Configuration:
    """Execute one semantic step at the token's node.

    The pattern's match pins every variable whose name currently has a
    binding, whether or not it is statically marked bound: an existing
    binding means the variable is bound at runtime. A binding whose
    model node was deleted fails the invocation outright. Given the
    `recorded` step, the match is the record's (see `_choose`).
    """
    if c.status != RUNNING:
        raise GraphError(f"cannot step a configuration in status {c.status!r}")
    node = c.token_at
    number = len(c.trace) + 1
    node_type = c.diagram.cfg.nodes[node]

    if node_type == STOP_NODE:
        c.status = TERMINATED
        c.trace.append(
            TraceStep(number, node, "terminated", {}, [], [], [], c.model_rev, None, {})
        )
        return c

    # exiting branches: pop until the node's own template is on top
    events: list[dict] = []
    target_template = c.scopes.node_template[node]
    while c.stack[-1].template != target_template:
        if not c.scopes.is_strict_ancestor(target_template, c.stack[-1].template):
            raise GraphError(
                f"token at {node!r} in scope {target_template!r}, which is not "
                f"an ancestor of {c.stack[-1].template!r}"
            )
        c._pop_instance(events)

    pattern = c.diagram.pattern_at(node)
    env = c.stack[-1].bindings
    partial: dict[str, str] = {}
    for lhs_node, name in sorted(pattern.lhs_names.items()):
        rec = env.get(name)
        if rec is None:
            if name in pattern.bound:
                raise GraphError(
                    f"bound variable {name!r} has no binding at node {node!r}"
                )
            continue
        partial[lhs_node] = rec.model_node
        if partial[lhs_node] not in c.model.nodes:
            match = None  # a dangling binding fails the invocation
            break
    else:
        match = _choose(c, pattern, partial, recorded)
    matched = match is not None
    kind_branches = c.diagram.classification.kinds[node] != SEQUENTIAL

    match_by_name: dict[str, str] = {}
    constructed: list[str] = []
    destructed: list[str] = []
    if matched:
        out = apply_rule(pattern.rule, match, c.model)
        c.model = out.result
        c.model_rev += 1
        match_by_name = {pattern.lhs_names[l]: h for l, h in match.node_map.items()}
        # every variable the rewrite leaves, at its model node; the unpinned
        # ones are constructed
        images = {pattern.rhs_names[r]: h for r, h in out.rhs_node_map.items()}
        pinned = {pattern.lhs_names[l] for l in partial}
        destructed = sorted(pattern.deleted_names())
        constructed = sorted(images.keys() - pinned)

    if kind_branches:
        polarity = SUCCESS if matched else FAILURE
        succ, fail = branch_targets(c.diagram.cfg, node)
        target = succ if matched else fail
        inst = c._push_instance(f"{node}:{polarity}")
        events.append(
            {"event": "enter", "scope": inst.id, "template": inst.template}
        )
    else:
        target = next_target(c.diagram.cfg, node) if matched else None
    update_in = c.stack[-1]

    constructed_vars: list[CFVariable] = []
    destructed_vars: list[CFVariable] = []
    if matched:
        for name in constructed:
            c._bind(update_in, name, images[name])
            constructed_vars.append(update_in.bindings[name].cfvar)
        for name in destructed:
            rec = update_in.bindings.pop(name, None)
            cfvar = rec.cfvar if rec else c.scopes.resolve(
                update_in.template, name
            )
            if cfvar is not None:
                destructed_vars.append(cfvar)

    c.invocations[node] = InvocationRec(
        c._fresh("p"), constructed_vars, destructed_vars
    )

    if matched or kind_branches:
        c.token_at = target
    else:
        c.status = ERROR  # the token stays at the failed node

    c.trace.append(
        TraceStep(
            number,
            node,
            "matched" if matched else "failed",
            match_by_name,
            constructed,
            destructed,
            events,
            c.model_rev,
            rule=pattern.rule.name,
            edges=dict(match.edge_map) if matched else {},
        )
    )
    return c


def run(c: Configuration, max_steps: int = 10000) -> tuple[Configuration, Trace]:
    """Step until termination, error, or budget exhaustion."""
    if max_steps <= 0:
        raise GraphError("max_steps must be positive")
    while c.status == RUNNING and len(c.trace) < max_steps:
        step(c)
    if c.status == RUNNING:
        c.status = NONTERMINATING
    return c, Trace(c.trace)


def replay(c: Configuration, trace: Trace) -> Iterator[tuple[TraceStep, TypedGraph]]:
    """Re-run the recorded steps from the freshly initialized `c`,
    yielding each step with the model after it.

    Each record must sit where the token is, and `step`, given the
    record's match as its choice, must append the record itself: the
    same token path, pins, scope events, bindings, rule and model
    revision. `c` is stepped in place.
    """
    for ts in trace.steps:
        try:
            if c.status == RUNNING and ts.node != c.token_at:
                raise GraphError(f"the token is at {c.token_at!r}")
            step(c, ts)
            got, want = c.trace[-1].to_record(), ts.to_record()
            if got != want:
                k = next(f for f in got if got[f] != want[f])
                raise GraphError(f"the step gives {k} {got[k]!r}, not {want[k]!r}")
        except GraphError as exc:
            raise GraphError(
                f"trace replay: recorded match at step {ts.step} "
                f"(node {ts.node!r}) no longer applies: {exc}"
            ) from exc
        yield ts, c.model


def replay_trace(c: Configuration, trace: Trace) -> TypedGraph:
    """Re-run the trace from the freshly initialized `c`; the final model."""
    for _ in replay(c, trace):
        pass
    return c.model
