"""Acceptance gate: one test per criterion, one printed verdict line each.

The verdict lines print with capture disabled so they survive pytest's
default fd-level capture; run with plain `pytest -v` and read them off
the output.
"""

from __future__ import annotations

import json
import random

from sdm.cli import main
from sdm.denot import cross_check
from sdm.diagram import load_story_diagram
from sdm.graph import (
    Edge,
    TypedGraph,
    find_isomorphism,
    parse_graph,
    serialize_graph,
)
from sdm.interp import (
    ERROR,
    OPTIMISTIC,
    RUNNING,
    TERMINATED,
    Trace,
    initialize,
    replay_trace,
    run,
    step,
)
from sdm.rewrite import apply_rule, enumerate_language, find_matches
from sdm.syntax import (
    rule_kinds,
    syntax_grammar,
    syntax_rules,
    validate_control_flow,
)

from .builders import FIXTURES, bindings_in_scope, seq_cfg
from .conftest import random_graph, zoo_tg
from .oracles import naive_pushout
from .test_rewrite import _random_rule


def _report(capsys, n: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {n}: {verdict} - {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def _diagram(name):
    return load_story_diagram(FIXTURES / name)


def _model(name, tg):
    return parse_graph((FIXTURES / name).read_text(encoding="utf-8"), tg)


def _cli_run(tmp_path, diagram, model, *extra):
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "run",
            str(FIXTURES / diagram),
            str(FIXTURES / model),
            "--out",
            str(out),
            "--trace",
            str(trace),
            *extra,
        ]
    )
    return code, out, trace


# -- criterion 1: grammar sanity ---------------------------------------------


def _mutate(rng: random.Random, members) -> TypedGraph:
    base = members[rng.randrange(len(members))]
    nodes = dict(base.nodes)
    edges = dict(base.edges)
    ops = ["drop_edge", "add_edge", "redirect", "retype", "add_node"]
    op = rng.choice(ops)
    if op == "drop_edge" and edges:
        del edges[rng.choice(sorted(edges))]
    elif op == "add_edge":
        etype = rng.choice(["next", "success", "failure"])
        src = rng.choice(sorted(nodes))
        trg = rng.choice(sorted(nodes))
        edges[f"mx{len(edges)}"] = Edge(etype, src, trg)
    elif op == "redirect" and edges:
        eid = rng.choice(sorted(edges))
        e = edges[eid]
        others = sorted(n for n in nodes if n != e.trg)
        if others:
            edges[eid] = Edge(e.type, e.src, rng.choice(others))
    elif op == "retype":
        nid = rng.choice(sorted(nodes))
        choices = [
            t
            for t in ("StartNode", "CFNode", "StopNode", "AbstractNode")
            if t != nodes[nid]
        ]
        nodes[nid] = rng.choice(choices)
    elif op == "add_node" and len(nodes) < 7:
        nodes[f"stray{len(nodes)}"] = rng.choice(
            ["StartNode", "CFNode", "StopNode"]
        )
    return TypedGraph(base.tg, nodes, edges)


def test_criterion_1_grammar_sanity(capsys):
    code = main(["enumerate", "--max-nodes", "3"])
    lines = capsys.readouterr().out.splitlines()
    start_shape = seq_cfg("story")
    smallest_ok = (
        code == 0
        and lines[-1] == "count: 1"
        and find_isomorphism(parse_graph(lines[0], start_shape.tg), start_shape)
        is not None
    )

    language = enumerate_language(syntax_grammar(), 7)
    disagreements = []
    for g in language.graphs:
        if not validate_control_flow(g).ok:
            disagreements.append(f"member rejected: {sorted(g.nodes)}")

    rng = random.Random(20260823)
    for i in range(100):
        mutant = _mutate(rng, language.graphs)
        member = mutant in language.members
        valid = validate_control_flow(mutant).ok
        if member != valid:
            disagreements.append(
                f"mutant {i}: membership={member} validator={valid}"
            )

    _report(
        capsys,
        1,
        smallest_ok and not disagreements,
        f"enumerate(3) is exactly the start graph; {len(language.graphs)} "
        f"members at bound 7 and 100 mutants, "
        f"{len(disagreements)} disagreements",
    )


# -- criterion 2: rule count -------------------------------------------------


def test_criterion_2_rule_partition(capsys):
    rules = syntax_rules()
    kinds = rule_kinds()
    partition = {
        kind: sum(1 for k in kinds.values() if k == kind)
        for kind in ("sequential", "joining", "non-joining", "while")
    }
    expected = {"sequential": 1, "joining": 1, "non-joining": 4, "while": 10}
    ok = len(rules) == 16 and partition == expected
    _report(capsys, 2, ok, f"16 rules, partition {partition}")


# -- criterion 3: SPO vs naive pushout ---------------------------------------


def test_criterion_3_pushout_agreement(capsys):
    rng = random.Random(5003)
    tg = zoo_tg()
    compared = 0
    dangling = 0
    mismatches = 0
    while compared < 50:
        rule = _random_rule(rng, tg)
        host = random_graph(rng, tg, 6, 8)
        matches = find_matches(rule, host)
        if not matches:
            continue
        match = matches[rng.randrange(len(matches))]
        engine = apply_rule(rule, match, host).result
        reference = naive_pushout(
            rule, match.node_map, match.edge_map, host
        )
        if find_isomorphism(engine, reference) is None:
            mismatches += 1
        dead = {match.node_map[n] for n in rule.deleted_lhs_nodes()}
        if any(
            e.src in dead or e.trg in dead for e in host.edges.values()
        ):
            dangling += 1
        compared += 1
    ok = mismatches == 0 and dangling >= 5
    _report(
        capsys,
        3,
        ok,
        f"50 cases, {dangling} with dangling edges, {mismatches} mismatches",
    )


# -- criterion 4: DeleteNextObject end to end --------------------------------


def test_criterion_4_delete_next_object(capsys, tmp_path):
    d = _diagram("delete_next_object.diagram.json")
    problems = []
    for length in range(1, 6):
        sub = tmp_path / f"len{length}"
        sub.mkdir()
        code, out_path, trace_path = _cli_run(
            sub,
            "delete_next_object.diagram.json",
            f"list{length}.model.json",
            "--this",
            "o1",
        )
        if code != 0:
            problems.append(f"len {length}: exit {code}")
            continue
        final = parse_graph(out_path.read_text(encoding="utf-8"), d.tg)
        if not any(
            e.type == "next" and e.src == "o1" for e in final.edges.values()
        ):
            problems.append(f"len {length}: this is still the last one")

        model = _model(f"list{length}.model.json", d.tg)
        replayed = replay_trace(
            initialize(d, model, "o1"),
            Trace.from_jsonl(trace_path.read_text(encoding="utf-8")),
        )
        if serialize_graph(replayed) + "\n" != out_path.read_text(
            encoding="utf-8"
        ):
            problems.append(f"len {length}: trace replay diverges")

        c, trace = run(initialize(d, model, "o1"))
        in_memory = replay_trace(initialize(d, model, "o1"), trace)
        if in_memory.to_dict() != c.model.to_dict():
            problems.append(f"len {length}: in-memory replay diverges")
        if serialize_graph(c.model) + "\n" != out_path.read_text(
            encoding="utf-8"
        ):
            problems.append(f"len {length}: cli and library runs differ")

        took_top = trace.steps[0].outcome == "matched"
        if length >= 3:
            if not took_top:
                problems.append(f"len {length}: expected the top branch")
            if len(final.nodes) != length - 1:
                problems.append(
                    f"len {length}: {len(final.nodes)} nodes, "
                    f"wanted {length - 1}"
                )
        else:
            if took_top:
                problems.append(f"len {length}: expected the bottom branches")
            fresh = set(replayed.nodes) - set(model.nodes)
            if not fresh:
                problems.append(f"len {length}: no fresh follower")
            elif not any(
                e.type == "next" and e.src == "o1" and e.trg in fresh
                for e in replayed.edges.values()
            ):
                problems.append(
                    f"len {length}: fresh follower not linked to this"
                )
    _report(
        capsys,
        4,
        not problems,
        "lengths 1-5 terminate, keep a follower, and replay cleanly"
        if not problems
        else "; ".join(problems),
    )


# -- criterion 5: determinism ------------------------------------------------


def test_criterion_5_byte_identical_traces(capsys, tmp_path):
    cases = [
        ("delete_next_object.diagram.json", "list4.model.json", "o1", []),
        (
            "while_star.diagram.json",
            "star5.model.json",
            "o0",
            ["--match-order", "random", "--seed", "7"],
        ),
        ("join_policy.diagram.json", "pair.model.json", "o1", []),
        (
            "join_policy.diagram.json",
            "pair.model.json",
            "o1",
            ["--strategy", "optimistic"],
        ),
    ]
    stable = 0
    for i, (diagram, model, this, flags) in enumerate(cases):
        blobs = []
        for attempt in ("a", "b"):
            sub = tmp_path / f"{i}{attempt}"
            sub.mkdir()
            _, _, trace_path = _cli_run(
                sub, diagram, model, "--this", this, *flags
            )
            blobs.append(trace_path.read_bytes())
        if blobs[0] == blobs[1]:
            stable += 1
    _report(
        capsys,
        5,
        stable == len(cases),
        f"{stable}/{len(cases)} fixture reruns byte-identical",
    )


# -- criterion 6: scope hygiene ----------------------------------------------


def test_criterion_6_loop_scope_hygiene(capsys):
    d = _diagram("while_star.diagram.json")
    model = _model("star5.model.json", d.tg)
    c = initialize(d, model, "o0")
    iterations = []  # (branch instance id, x binding) per loop pass
    problems = []
    while c.status == RUNNING:
        step(c)
        ts = c.trace[-1]
        if ts.node == "head" and ts.outcome == "matched":
            for old_inst, _ in iterations:
                if old_inst in {i.id for i in c.stack}:
                    problems.append(f"instance {old_inst} survived its pass")
            iterations.append((c.stack[-1].id, bindings_in_scope(c)["x"]))
    if c.status != TERMINATED:
        problems.append(f"run ended {c.status}")
    if len(iterations) != 5:
        problems.append(f"{len(iterations)} iterations, wanted 5")
    picks = [x for _, x in iterations]
    if len(set(picks)) != len(picks):
        problems.append(f"a binding leaked between iterations: {picks}")

    state = c.state_graph()
    live = {i.id for i in c.stack}
    stale = [
        e.trg
        for e in state.edges.values()
        if e.type == "inScope" and e.trg not in live
    ]
    if stale:
        problems.append(f"bindings reference discarded scopes: {stale}")
    _report(
        capsys,
        6,
        not problems,
        "5 iterations, distinct picks, no stale scope references"
        if not problems
        else "; ".join(problems),
    )


# -- criterion 7: join policies ----------------------------------------------


def test_criterion_7_join_policies_diverge(capsys):
    d = _diagram("join_policy.diagram.json")
    model = _model("pair.model.json", d.tg)

    cons, cons_trace = run(initialize(d, model, "o1"))
    join = next(t for t in cons_trace.steps if t.node == "join")
    conservative_ok = (
        cons.status == TERMINATED
        and join.outcome == "matched"
        and "p" in join.match  # the join re-matched the removed variable
    )

    opt, opt_trace = run(initialize(d, model, "o1", strategy=OPTIMISTIC))
    optimistic_ok = (
        opt.status == ERROR
        and opt.token_at == "join"
        and opt_trace.steps[-1].outcome == "failed"
    )
    _report(
        capsys,
        7,
        conservative_ok and optimistic_ok,
        f"conservative {cons.status}, optimistic {opt.status} at "
        f"{opt.token_at}",
    )


# -- criterion 8: oracle agreement -------------------------------------------


def test_criterion_8_oracle_agreement(capsys):
    all_success = [
        ("minimal.diagram.json", "single.model.json", "o1"),
        ("two_node_seq.diagram.json", "pair.model.json", "o1"),
        ("delete_next_object.diagram.json", "list1.model.json", "o1"),
        ("delete_next_object.diagram.json", "list2.model.json", "o1"),
        ("delete_next_object.diagram.json", "list3.model.json", "o1"),
        ("delete_next_object.diagram.json", "list4.model.json", "o1"),
        ("delete_next_object.diagram.json", "list5.model.json", "o1"),
        ("while_star.diagram.json", "star5.model.json", "o0"),
        ("join_policy.diagram.json", "pair.model.json", "o1"),
    ]
    problems = []
    for diagram_name, model_name, this in all_success:
        d = _diagram(diagram_name)
        model = _model(model_name, d.tg)
        c, trace = run(initialize(d, model, this))
        v = cross_check(initialize(d, model, this), trace)
        if not (v.ok and v.pair_checked and v.pair_found):
            problems.append(f"{diagram_name}+{model_name}: {v.notes}")

    d = _diagram("two_node_seq.diagram.json")
    model = _model("single.model.json", d.tg)
    c, trace = run(initialize(d, model, "o1"))
    v = cross_check(initialize(d, model, "o1"), trace)
    if not (v.ok and len(v.divergences) == 1 and not v.pair_checked):
        problems.append(f"sequential failure misreported: {v}")
    _report(
        capsys,
        8,
        not problems,
        f"{len(all_success)} all-success pairs found, sequential failure "
        "reported as a documented divergence"
        if not problems
        else "; ".join(problems),
    )


# -- criterion 9: error semantics --------------------------------------------


def test_criterion_9_error_state(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    code, _, _ = _cli_run(
        tmp_path,
        "two_node_seq.diagram.json",
        "single.model.json",
        "--this",
        "o1",
        "--state",
        str(state_path),
    )
    out = capsys.readouterr().out
    state = json.loads(state_path.read_text(encoding="utf-8"))
    token_nodes = [n for n in state["nodes"] if n["type"] == "PositionToken"]
    attached = [e for e in state["edges"] if e["type"] == "at"]

    d = _diagram("two_node_seq.diagram.json")
    c, _ = run(initialize(d, _model("single.model.json", d.tg), "o1"))

    ok = (
        code == 4
        and "pattern failed at node second" in out
        and len(token_nodes) == 1
        and attached == []
        and c.status == ERROR
        and c.token_at == "second"
    )
    _report(
        capsys,
        9,
        ok,
        "status error names 'second'; serialized token is detached",
    )
