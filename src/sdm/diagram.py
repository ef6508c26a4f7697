"""Story diagrams: control flow plus patterns, scopes, and binding checks.

A story diagram pairs a validated control-flow graph with one story
pattern per story node. Before execution the diagram is analyzed
statically: every control-flow node is assigned to a scope template
(root, or one template per conditional branch), every pattern variable
is resolved to a control-flow variable declared in some template, and
bound marks are checked by a must-be-bound dataflow that models the
conservative join policy.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .graph import (
    FormatError,
    GraphError,
    TypedGraph,
    TypeGraph,
    ValidationReport,
    _check_names,
    graph_from_dict,
)
from .rewrite import Rule, rule_from_dict
from .syntax import (
    CF_NODE,
    FAILURE,
    NEXT,
    SUCCESS,
    CfgValidation,
    NodeClassification,
    classify_nodes,
    validate_control_flow,
)


class DiagramError(GraphError):
    """A structurally well-formed file describing an invalid diagram."""


@dataclass(slots=True)
class StoryPattern:
    """A rule with its variable names and static bound marks.

    `lhs_names` and `rhs_names` assign one variable name to every node
    of the rule's two sides; preserved nodes carry the same name on
    both. `bound` lists the names statically promised to have a prior
    binding.
    """

    rule: Rule
    lhs_names: dict[str, str]
    rhs_names: dict[str, str]
    bound: frozenset[str]

    def __post_init__(self) -> None:
        if set(self.lhs_names) != set(self.rule.lhs.nodes):
            raise DiagramError(
                f"pattern {self.rule.name!r}: every lhs node needs a variable name"
            )
        if set(self.rhs_names) != set(self.rule.rhs.nodes):
            raise DiagramError(
                f"pattern {self.rule.name!r}: every rhs node needs a variable name"
            )
        for l, r in self.rule.mapping.node_map.items():
            if self.lhs_names[l] != self.rhs_names[r]:
                raise DiagramError(
                    f"pattern {self.rule.name!r}: preserved node {l!r} renamed"
                )
        if len(set(self.lhs_names.values())) != len(self.lhs_names):
            raise DiagramError(
                f"pattern {self.rule.name!r}: duplicate variable name in lhs"
            )
        created = self.created_names()
        if len(created) != len(set(created)):
            raise DiagramError(
                f"pattern {self.rule.name!r}: duplicate created variable name"
            )
        if set(created) & set(self.lhs_names.values()):
            raise DiagramError(
                f"pattern {self.rule.name!r}: created variable shadows an lhs one"
            )
        unknown = set(self.bound) - set(self.lhs_names.values())
        if unknown:
            raise DiagramError(
                f"pattern {self.rule.name!r}: bound marks on non-lhs variables "
                f"{sorted(unknown)}"
            )

    def created_names(self) -> list[str]:
        return [self.rhs_names[n] for n in self.rule.created_rhs_nodes()]

    def deleted_names(self) -> list[str]:
        return [self.lhs_names[n] for n in self.rule.deleted_lhs_nodes()]

    def var_types(self) -> dict[str, str]:
        """Variable name to model node type, across both sides."""
        types = {
            name: self.rule.lhs.nodes[node]
            for node, name in self.lhs_names.items()
        }
        for node, name in self.rhs_names.items():
            types.setdefault(name, self.rule.rhs.nodes[node])
        return types


@dataclass(slots=True)
class StoryDiagram:
    """A diagram's parts and its scope tree, built once from them by
    `analyze_scopes`."""

    tg: TypeGraph  # the model type graph the patterns transform
    cfg: TypedGraph
    patterns: dict[str, StoryPattern]
    params: list[tuple[str, str]]  # ordered (name, model type)
    validation: CfgValidation
    classification: NodeClassification
    scopes: ScopeTree = field(init=False)

    def __post_init__(self) -> None:
        self.scopes = analyze_scopes(self)

    def pattern_at(self, node: str) -> StoryPattern:
        return self.patterns[node]


ROOT_SCOPE = "root"


@dataclass(slots=True)
class CFVariable:
    name: str
    type: str
    scope: str  # owning template id

    @property
    def id(self) -> str:
        return f"cfv:{self.scope}:{self.name}"


@dataclass(slots=True)
class ScopeTemplate:
    id: str
    parent: Optional[str]
    conditional: Optional[str]  # the conditional node opening this branch
    polarity: Optional[str]
    members: list[str] = field(default_factory=list)
    declared: dict[str, CFVariable] = field(default_factory=dict)


@dataclass(slots=True)
class ScopeTree:
    templates: dict[str, ScopeTemplate]
    node_template: dict[str, str]  # CFNode id -> template id

    @property
    def root(self) -> ScopeTemplate:
        return self.templates[ROOT_SCOPE]

    def chain(self, template_id: str) -> list[str]:
        """Template and its ancestors, innermost first."""
        out = [template_id]
        while self.templates[out[-1]].parent is not None:
            out.append(self.templates[out[-1]].parent)
        return out

    def resolve(self, template_id: str, name: str) -> Optional[CFVariable]:
        for tid in self.chain(template_id):
            var = self.templates[tid].declared.get(name)
            if var is not None:
                return var
        return None

    def is_strict_ancestor(self, ancestor: str, descendant: str) -> bool:
        return ancestor in self.chain(descendant)[1:]


def _execution_order(cfg: TypedGraph, first: str) -> list[str]:
    """Breadth-first node order from the first story node."""
    order: list[str] = []
    seen = {first}
    queue = deque([first])
    while queue:
        n = queue.popleft()
        order.append(n)
        targets = sorted((e.type, e.trg) for _, e in cfg.out_edges(n))
        for _, trg in targets:
            if trg not in seen:
                seen.add(trg)
                queue.append(trg)
    return order


def analyze_scopes(d: StoryDiagram) -> ScopeTree:
    """Build the scope-template tree and declare all control-flow variables.

    Each conditional branch (per the node classification) opens one
    template; a node lives in the smallest branch containing it, or in
    the root. Loop heads get an empty template on their exit polarity so
    both polarities of every conditional open a scope uniformly. A
    variable is declared at its first occurrence, in execution order,
    whose name no enclosing template already declares; re-declaring an
    enclosing name with a different type is rejected as shadowing.
    """
    cls = d.classification
    member_sets: dict[tuple[str, str], set[str]] = {}
    for cond, per_polarity in cls.branch_members.items():
        for polarity in (SUCCESS, FAILURE):
            member_sets[(cond, polarity)] = set(per_polarity.get(polarity, set()))
            if cond in member_sets[(cond, polarity)]:
                raise DiagramError(f"conditional {cond!r} is in its own branch")

    def home(node: str) -> Optional[tuple[str, str]]:
        holding = [key for key, members in member_sets.items() if node in members]
        if not holding:
            return None
        holding.sort(key=lambda key: (len(member_sets[key]), key))
        for bigger in holding[1:]:
            if not member_sets[holding[0]] <= member_sets[bigger]:
                raise DiagramError(
                    f"branch scopes of {holding[0][0]!r} and {bigger[0]!r} overlap "
                    f"without nesting at node {node!r}"
                )
        return holding[0]

    templates: dict[str, ScopeTemplate] = {
        ROOT_SCOPE: ScopeTemplate(ROOT_SCOPE, None, None, None)
    }
    node_template: dict[str, str] = {}
    cf_nodes = sorted(n for n, t in d.cfg.nodes.items() if t == CF_NODE)
    homes = {n: home(n) for n in cf_nodes}

    def template_id(key: Optional[tuple[str, str]]) -> str:
        return ROOT_SCOPE if key is None else f"{key[0]}:{key[1]}"

    for cond in sorted(cls.branch_members):
        for polarity in (SUCCESS, FAILURE):
            key = (cond, polarity)
            templates[template_id(key)] = ScopeTemplate(
                template_id(key),
                parent=template_id(homes[cond]),
                conditional=cond,
                polarity=polarity,
            )
    for tid in templates:  # unless parents cycle, this many steps end `chain`
        for _ in templates:
            tid = None if tid is None else templates[tid].parent
        if tid is not None:
            raise DiagramError(f"branch scopes nest in a cycle through {tid!r}")
    for n in cf_nodes:
        tid = template_id(homes[n])
        node_template[n] = tid
        templates[tid].members.append(n)
    for t in templates.values():
        t.members.sort()

    tree = ScopeTree(templates, node_template)
    for name, type_ in d.params:
        tree.root.declared[name] = CFVariable(name, type_, ROOT_SCOPE)

    for n in _execution_order(d.cfg, cls.first):
        if d.cfg.nodes[n] != CF_NODE:
            continue
        pattern = d.patterns[n]
        tid = node_template[n]
        for name, type_ in sorted(pattern.var_types().items()):
            existing = tree.resolve(tid, name)
            if existing is None:
                templates[tid].declared[name] = CFVariable(name, type_, tid)
            elif existing.type != type_:
                raise DiagramError(
                    f"node {n!r}: variable {name!r} of type {type_!r} shadows "
                    f"{existing.type!r} from scope {existing.scope!r}"
                )
    return tree


def validate_binding_marks(d: StoryDiagram) -> ValidationReport:
    """Check every bound mark against a must-be-bound, all-paths dataflow.

    A name counts as bound at a node only if every control-flow path
    reaching it matched or created the name earlier and no conservative
    join discarded it; names declared in a branch template die when flow
    leaves the branch, exactly as the conservative runtime policy
    removes them.
    """
    cfg, cls, tree = d.cfg, d.classification, d.scopes
    universe = frozenset(
        name for p in d.patterns.values() for name in p.var_types()
    ) | frozenset(name for name, _ in d.params)

    def visible(node: str, names: frozenset[str]) -> frozenset[str]:
        tid = tree.node_template[node]
        return frozenset(
            n for n in names if tree.resolve(tid, n) is not None
        )

    def after_success(node: str, before: frozenset[str]) -> frozenset[str]:
        p = d.patterns[node]
        deleted = frozenset(p.deleted_names())
        gained = (frozenset(p.lhs_names.values()) - deleted) | frozenset(
            p.created_names()
        )
        return (before - deleted) | gained

    initial = visible(cls.first, frozenset(name for name, _ in d.params))
    entry: dict[str, frozenset[str]] = {
        n: universe for n, t in cfg.nodes.items() if t == CF_NODE
    }
    entry[cls.first] = initial

    changed = True
    while changed:
        changed = False
        for n in sorted(entry):
            contributions = []
            for _, e in cfg.in_edges(n):
                if cfg.nodes[e.src] != CF_NODE:
                    continue
                if e.type in (NEXT, SUCCESS):
                    out = after_success(e.src, entry[e.src])
                else:  # failure: the pattern applied no updates
                    out = entry[e.src]
                contributions.append(visible(n, out))
            if n == cls.first:
                contributions.append(initial)
            if contributions:
                new = frozenset.intersection(*contributions)
                if new != entry[n]:
                    entry[n] = new
                    changed = True

    violations = []
    for n in sorted(d.patterns):
        p = d.patterns[n]
        for name in sorted(p.bound):
            if name not in entry[n]:
                violations.append(
                    f"node {n!r}: variable {name!r} is marked bound but has no "
                    "binding on every path reaching it"
                )
    return ValidationReport(not violations, violations)


def _patterns_from_entries(
    entries: list, cfg: TypedGraph, tg: TypeGraph
) -> dict[str, StoryPattern]:
    try:
        rows = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise FormatError(f"pattern entry {entry!r} is not an object")
            vars_ = entry.get("vars", [])
            marks = [(v["elem"], v["name"], v.get("bound")) for v in vars_]
            for elem, name, _ in marks:
                _check_names("pattern variable", elem, name)
            _check_names("pattern node", entry.get("node"))
            rows.append((entry.get("node"), entry["rule"], marks))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad pattern entry: {exc!r}") from exc
    patterns: dict[str, StoryPattern] = {}
    for node, raw_rule, marks in rows:
        if node not in cfg.nodes:
            raise DiagramError(f"pattern references unknown node {node!r}")
        if cfg.nodes[node] != CF_NODE:
            raise DiagramError(
                f"pattern attached to {node!r}, which is not a story node"
            )
        if node in patterns:
            raise DiagramError(f"node {node!r} has two patterns")
        rule = rule_from_dict(raw_rule, tg)
        lhs_names: dict[str, str] = {}
        rhs_names: dict[str, str] = {}
        bound: set[str] = set()
        for elem, name, marked in marks:
            hit = False
            if elem in rule.lhs.nodes:
                lhs_names[elem] = name
                hit = True
            if elem in rule.rhs.nodes:
                rhs_names[elem] = name
                hit = True
            if not hit:
                raise DiagramError(
                    f"node {node!r}: variable entry names unknown element {elem!r}"
                )
            if marked:
                if elem not in rule.lhs.nodes:
                    raise DiagramError(
                        f"node {node!r}: bound mark on created element {elem!r}"
                    )
                bound.add(name)
        # preserved nodes listed once under a shared id name both sides
        for l, r in rule.mapping.node_map.items():
            if l in lhs_names and r not in rhs_names:
                rhs_names[r] = lhs_names[l]
            if r in rhs_names and l not in lhs_names:
                lhs_names[l] = rhs_names[r]
        patterns[node] = StoryPattern(rule, lhs_names, rhs_names, frozenset(bound))
    return patterns


def diagram_from_dict(data: dict) -> StoryDiagram:
    from .syntax import SYNTAX_TYPE_GRAPH

    if not isinstance(data, dict):
        raise FormatError("story diagram must be an object")
    for key in ("typegraph", "cfg", "params", "patterns"):
        if key not in data:
            raise FormatError(f"story diagram is missing {key!r}")
    tg = TypeGraph.from_dict(data["typegraph"])
    cfg = graph_from_dict(data["cfg"], SYNTAX_TYPE_GRAPH)

    try:
        params = [(p["name"], p["type"]) for p in data["params"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad params entry: {exc!r}") from exc
    for param in params:
        _check_names("params entry", *param)
    if len(params) != 1 or params[0][0] != "this":
        raise DiagramError("params must be exactly [this]")
    if params[0][1] not in tg.node_types:
        raise DiagramError(f"this has unknown model type {params[0][1]!r}")

    verdict = validate_control_flow(cfg)
    if not verdict.ok:
        raise DiagramError(f"control flow graph is invalid: {verdict.reason}")
    classification = classify_nodes(cfg, verdict)

    patterns = _patterns_from_entries(data["patterns"], cfg, tg)
    story_nodes = {n for n, t in cfg.nodes.items() if t == CF_NODE}
    missing = story_nodes - set(patterns)
    if missing:
        raise DiagramError(f"story nodes without patterns: {sorted(missing)}")

    diagram = StoryDiagram(tg, cfg, patterns, params, verdict, classification)
    report = validate_binding_marks(diagram)
    if not report.ok:
        raise DiagramError("; ".join(report.violations))
    return diagram


def load_story_diagram(path: str) -> StoryDiagram:
    """Parse, validate, and statically analyze a story-diagram file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep
            raise FormatError(f"{path}: {exc}") from exc
    return diagram_from_dict(data)
