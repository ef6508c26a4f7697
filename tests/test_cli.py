"""Command line contract: outputs, files, and exit codes."""

from __future__ import annotations

import json
import sys

import pytest

import sdm.canon
import sdm.cli
import sdm.diagram
import sdm.interp
from sdm.cli import main
from sdm.graph import GraphError
from sdm.interp import Trace

from .builders import FIXTURES

DNO = str(FIXTURES / "delete_next_object.diagram.json")
MINIMAL = str(FIXTURES / "minimal.diagram.json")
SEQ2 = str(FIXTURES / "two_node_seq.diagram.json")
STAR = str(FIXTURES / "while_star.diagram.json")
LIST3 = str(FIXTURES / "list3.model.json")
SINGLE = str(FIXTURES / "single.model.json")
STAR5 = str(FIXTURES / "star5.model.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ----------------------------------------------------------------


def test_validate_accepts_a_valid_diagram(capsys):
    code, out, _ = run_cli(capsys, "validate", DNO)
    assert code == 0
    assert "valid: control flow graph with 8 nodes" in out
    assert "derivation witness:" in out


def test_validate_reports_the_trivial_witness(capsys):
    code, out, _ = run_cli(capsys, "validate", MINIMAL)
    assert code == 0
    assert "derivation witness: the start graph itself" in out


def test_validate_rejects_an_invalid_control_flow_graph(capsys):
    code, _, err = run_cli(
        capsys, "validate", str(FIXTURES / "invalid_cfg.diagram.json")
    )
    assert code == 2
    assert "invalid diagram" in err


def test_validate_rejects_malformed_json(capsys):
    code, _, err = run_cli(capsys, "validate", str(FIXTURES / "malformed.json"))
    assert code == 3
    assert "error" in err


def test_validate_reports_a_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/d.json")
    assert code == 3


@pytest.mark.parametrize("renamed", ["e1", "first"])
def test_validate_accepts_cfg_ids_shaped_like_restore_ids(capsys, tmp_path, renamed):
    # the validator names each restored next edge r#k; a CFG edge or node
    # already called r#1 that survives the reduction must not collide
    data = json.loads((FIXTURES / "two_node_seq.diagram.json").read_text())
    if renamed == "e1":
        (edge,) = [e for e in data["cfg"]["edges"] if e["id"] == "e1"]
        edge["id"] = "r#1"
    else:
        data = json.loads(json.dumps(data).replace('"first"', '"r#1"'))
    path = tmp_path / "renamed.diagram.json"
    path.write_text(json.dumps(data))
    _, want, _ = run_cli(capsys, "validate", SEQ2)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert "insert-node at (first, stop)" in want
    assert out == (want if renamed == "e1" else want.replace("first", "r#1"))


def _name_type_graph_with_a_list(d):
    # the pattern sides declare no type graph, so only the name is wrong
    d["typegraph"]["name"] = ["linked-list"]
    for side in ("lhs", "rhs"):
        del d["patterns"][0]["rule"][side]["typegraph"]


# each shape damages one field of the minimal diagram
MALFORMED = {
    "param-without-name": lambda d: d["params"][0].pop("name"),
    "params-as-int": lambda d: d.update(params=3),
    "pattern-without-rule": lambda d: d["patterns"][0].pop("rule"),
    "pattern-entry-as-string": lambda d: d.update(patterns=["story"]),
    "var-without-elem": lambda d: d["patterns"][0]["vars"][0].pop("elem"),
    "map-pair-without-r": lambda d: d["patterns"][0]["rule"]["map"][0].pop("r"),
    "node-type-without-name": lambda d: d["typegraph"]["node_types"][0].pop("name"),
    "edge-types-as-int": lambda d: d["typegraph"].update(edge_types=7),
    # ids and type names that are not strings
    "cfg-node-id-as-list": lambda d: d["cfg"]["nodes"][1].update(id=["story"]),
    "cfg-edge-id-as-int": lambda d: d["cfg"]["edges"][0].update(id=7),
    "cfg-nodes-as-null": lambda d: d["cfg"].update(nodes=None),
    "pattern-node-as-list": lambda d: d["patterns"][0].update(node=["story"]),
    "var-name-as-list": lambda d: d["patterns"][0]["vars"][0].update(name=["this"]),
    "param-type-as-list": lambda d: d["params"][0].update(type=["Object"]),
    "map-pair-l-as-list": lambda d: d["patterns"][0]["rule"]["map"][0].update(l=["t"]),
    "node-type-parent-as-list": lambda d: d["typegraph"]["node_types"][0].update(
        parent=["Object"]
    ),
    "edge-type-src-as-list": lambda d: d["typegraph"]["edge_types"][0].update(
        src=["Object"]
    ),
    "type-graph-name-as-list": _name_type_graph_with_a_list,
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_diagram_shapes_exit_three(capsys, tmp_path, shape, command):
    data = json.loads((FIXTURES / "minimal.diagram.json").read_text())
    MALFORMED[shape](data)
    path = tmp_path / "bad.diagram.json"
    path.write_text(json.dumps(data))
    if command == "validate":
        argv = ["validate", str(path)]
    else:
        argv = run_args(str(path), LIST3, tmp_path, "--this", "o1")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ")


# each shape damages one field of the list3 model, which only `run` reads
MALFORMED_MODEL = {
    "node-id-as-list": lambda m: m["nodes"][0].update(id=["o1"]),
    "edge-src-as-list": lambda m: m["edges"][0].update(src=["o1"]),
    "nodes-as-int": lambda m: m.update(nodes=5),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_MODEL))
def test_malformed_model_shapes_exit_three(capsys, tmp_path, shape):
    data = json.loads((FIXTURES / "list3.model.json").read_text())
    MALFORMED_MODEL[shape](data)
    path = tmp_path / "bad.model.json"
    path.write_text(json.dumps(data))
    argv = run_args(MINIMAL, str(path), tmp_path, "--this", "o1")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ")


DEEP = "[" * 100000 + "]" * 100000  # nested past the parser's recursion limit


@pytest.mark.parametrize("command", ["validate", "run", "oracle"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, command):
    # the diagram of `validate`, the model of `run` and `oracle`
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    if command == "validate":
        argv = ["validate", str(deep)]
    elif command == "run":
        argv = run_args(STAR, str(deep), tmp_path, "--this", "o0")
    else:
        argv = ["oracle", STAR, str(deep), "--this", "o0"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "recursion depth" in err


# -- run ---------------------------------------------------------------------


def run_args(diagram, model, tmp_path, *extra):
    return [
        "run",
        diagram,
        model,
        "--out",
        str(tmp_path / "out.json"),
        "--trace",
        str(tmp_path / "trace.jsonl"),
        *extra,
    ]


def test_run_writes_model_and_trace(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, *run_args(DNO, LIST3, tmp_path, "--this", "o1")
    )
    assert code == 0
    assert "terminated after 3 steps" in out
    final = json.loads((tmp_path / "out.json").read_text())
    ids = {n["id"] for n in final["nodes"]}
    assert ids == {"o1", "o3"}
    assert any(
        e["src"] == "o1" and e["trg"] == "o3" for e in final["edges"]
    )
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["node"] == "hasTwo"


def test_run_reports_a_pattern_failure_but_still_writes(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        *run_args(
            SEQ2,
            SINGLE,
            tmp_path,
            "--this",
            "o1",
            "--state",
            str(tmp_path / "state.json"),
        ),
    )
    assert code == 4
    assert "pattern failed at node second" in out
    assert (tmp_path / "out.json").exists()
    assert (tmp_path / "trace.jsonl").exists()
    state = json.loads((tmp_path / "state.json").read_text())
    assert not any(e["type"] == "at" for e in state["edges"])
    assert any(n["type"] == "PositionToken" for n in state["nodes"])


@pytest.mark.parametrize(
    "cfg_id, runtime_id, extra",
    [
        ("first", "s1", ()),
        ("first", "token", ()),
        ("e1", "at", ("--max-steps", "2")),  # the token is still placed
    ],
)
def test_run_refuses_a_state_graph_whose_ids_clash(
    capsys, tmp_path, cfg_id, runtime_id, extra
):
    # the control flow graph and the runtime elements share the state
    # graph's one namespace, so a clash would merge two elements
    data = json.loads((FIXTURES / "two_node_seq.diagram.json").read_text())
    if cfg_id == "e1":
        (edge,) = [e for e in data["cfg"]["edges"] if e["id"] == "e1"]
        edge["id"] = runtime_id
    else:
        data = json.loads(json.dumps(data).replace(f'"{cfg_id}"', f'"{runtime_id}"'))
    path = tmp_path / "renamed.diagram.json"
    path.write_text(json.dumps(data))
    plain = tmp_path / "plain"
    plain.mkdir()
    want, _, _ = run_cli(
        capsys, *run_args(str(path), LIST3, plain, "--this", "o1", *extra)
    )
    state = tmp_path / "state.json"
    argv = run_args(str(path), LIST3, tmp_path, "--this", "o1", *extra)
    code, out, err = run_cli(capsys, *argv, "--state", str(state))
    assert want == (5 if extra else 0)
    assert (code, out) == (3, "")
    assert err == (
        f"error: control flow graph id {runtime_id!r} is also a runtime id "
        "of the execution state graph\n"
    )
    assert not state.exists()
    for name in ("out.json", "trace.jsonl"):
        assert (tmp_path / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_graph_error_raised_mid_run_is_an_input_error(
    capsys, tmp_path, monkeypatch, command
):
    real_step = sdm.interp.step

    def step_failing_at_3(c, recorded=None):
        if len(c.trace) == 2:
            raise GraphError("created id 'x' is already in use")
        return real_step(c, recorded)

    monkeypatch.setattr(sdm.interp, "step", step_failing_at_3)
    if command == "run":
        argv = run_args(STAR, STAR5, tmp_path, "--this", "o0")
    else:
        argv = ["oracle", STAR, STAR5, "--this", "o0"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: created id 'x' is already in use\n"
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "trace.jsonl").exists()


def test_run_writes_graph_files_without_the_python_json_encoder(
    capsys, tmp_path, monkeypatch
):
    # with `indent`, json.dumps runs the pure-Python encoder, which is
    # several times slower than the writer `serialize_graph` uses
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    state = tmp_path / "state.json"
    argv = run_args(STAR, STAR5, tmp_path, "--this", "o0", "--state", str(state))
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert state.exists()


def test_run_reports_budget_exhaustion(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        *run_args(STAR, STAR5, tmp_path, "--this", "o0", "--max-steps", "3"),
    )
    assert code == 5
    assert "step budget of 3 exhausted" in out
    assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 3


def test_run_reports_a_missing_model_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        *run_args(DNO, "/nonexistent/m.json", tmp_path, "--this", "o1"),
    )
    assert code == 3


def test_run_reports_an_unknown_this_node(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, *run_args(DNO, LIST3, tmp_path, "--this", "zz")
    )
    assert code == 3
    assert "not in the model" in err


def test_run_requires_a_seed_exactly_for_random_order(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(run_args(DNO, LIST3, tmp_path, "--this", "o1", "--match-order", "random"))
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(run_args(DNO, LIST3, tmp_path, "--this", "o1", "--seed", "4"))
    assert exc.value.code == 2


def test_run_with_a_seed_is_reproducible(capsys, tmp_path):
    traces = []
    for name in ("a", "b"):
        sub = tmp_path / name
        sub.mkdir()
        code, _, _ = run_cli(
            capsys,
            *run_args(
                STAR,
                STAR5,
                sub,
                "--this",
                "o0",
                "--match-order",
                "random",
                "--seed",
                "7",
            ),
        )
        assert code == 0
        traces.append((sub / "trace.jsonl").read_bytes())
    assert traces[0] == traces[1]


# -- enumerate ---------------------------------------------------------------


def test_enumerate_three_prints_only_the_start_graph(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-nodes", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 1"
    g = json.loads(lines[0])
    assert {n["type"] for n in g["nodes"]} == {
        "StartNode",
        "CFNode",
        "StopNode",
    }


def test_enumerate_four_lists_six_members(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--max-nodes", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 6"
    sizes = sorted(len(json.loads(l)["nodes"]) for l in lines[:-1])
    assert sizes == [3, 4, 4, 4, 4, 4]


def test_enumerate_rejects_bounds_below_the_start_graph(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--max-nodes", "2"])
    assert exc.value.code == 2


# -- oracle ------------------------------------------------------------------


def test_oracle_confirms_an_all_success_run(capsys):
    code, out, _ = run_cli(capsys, "oracle", DNO, LIST3, "--this", "o1")
    assert code == 0
    assert "pair is in the composed semantics" in out
    assert "semantics size:" in out


def test_oracle_reports_a_documented_divergence(capsys):
    code, out, _ = run_cli(capsys, "oracle", SEQ2, SINGLE, "--this", "o1")
    assert code == 0
    assert "documented divergence: sequential pattern failed" in out
    assert "semantics size:" not in out


def test_oracle_handles_a_terminating_loop(capsys):
    code, out, _ = run_cli(capsys, "oracle", STAR, STAR5, "--this", "o0")
    assert code == 0
    assert "pair is in the composed semantics" in out


def test_oracle_builds_the_scope_tree_once(capsys, monkeypatch):
    # the tree depends on the diagram alone, so one oracle call, which
    # initializes a run and its replay, needs it once
    calls = []
    original = sdm.diagram.analyze_scopes

    def counted(d):
        calls.append(d)
        return original(d)

    for name, module in list(sys.modules.items()):
        if name.startswith("sdm") and getattr(module, "analyze_scopes", None) is original:
            monkeypatch.setattr(module, "analyze_scopes", counted)
    code, _, _ = run_cli(capsys, "oracle", STAR, STAR5, "--this", "o0")
    assert code == 0
    assert len(calls) == 1


def test_oracle_reports_a_run_that_its_own_trace_contradicts(capsys, monkeypatch):
    real_run = sdm.cli.run

    def run_dropping_step_2(c, max_steps):
        c, trace = real_run(c, max_steps=max_steps)
        return c, Trace(trace.steps[:1] + trace.steps[2:])

    monkeypatch.setattr(sdm.cli, "run", run_dropping_step_2)
    code, out, err = run_cli(capsys, "oracle", STAR, STAR5, "--this", "o0")
    assert code == 1
    assert out == ""
    assert err == (
        "undocumented disagreement: trace replay: recorded match at step 3 "
        "(node 'head') no longer applies: the token is at 'body'\n"
    )


def test_oracle_refuses_an_oversized_model(capsys, tmp_path):
    big = {
        "typegraph": "linked-list",
        "nodes": [{"id": f"o{i}", "type": "Object"} for i in range(7)],
        "edges": [],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    code, _, err = run_cli(
        capsys, "oracle", MINIMAL, str(path), "--this", "o0"
    )
    assert code == 6
    assert "oracle refused" in err


def test_oracle_reports_an_exhausted_isomorphism_search_budget(
    capsys, tmp_path, monkeypatch
):
    # two 3-rings: refinement leaves all six nodes in one cell, and each
    # ring's search reaches a leaf of its own, so their key needs two leaves
    edges = []
    for i in range(6):
        trg = i - i % 3 + (i + 1) % 3
        edges.append({"id": f"l{i}", "src": f"o{i}", "trg": f"o{trg}", "type": "next"})
    rings = {
        "typegraph": "linked-list",
        "nodes": [{"id": f"o{i}", "type": "Object"} for i in range(6)],
        "edges": edges,
    }
    path = tmp_path / "rings.json"
    path.write_text(json.dumps(rings))
    argv = ["oracle", DNO, str(path), "--this", "o0", "--model-bound", "6"]
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(sdm.canon, "_LEAF_BUDGET", 1)
    code, _, err = run_cli(capsys, *argv)
    assert code == 5
    assert err.startswith("error: isomorphism search budget of 1 leaves exhausted")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, option",
    [("run", "--max-steps"), ("oracle", "--max-steps"), ("oracle", "--model-bound")],
)
def test_bounds_of_zero_or_less_are_usage_errors(
    capsys, tmp_path, command, option, value
):
    argv = [command, DNO, LIST3, "--this", "o1", f"{option}={value}"]
    if command == "run":
        argv += ["--out", str(tmp_path / "o"), "--trace", str(tmp_path / "t.jsonl")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be positive, got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.jsonl").exists()
