"""Command line front end.

Subcommands: validate a story-diagram file, run one against a model,
enumerate the control-flow language, and cross-check a run against the
denotational oracle. Exit codes are a contract, defined by the table in
README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .canon import SearchBudgetError
from .denot import DEFAULT_MODEL_BOUND, OracleError, cross_check
from .diagram import DiagramError, load_story_diagram
from .graph import FormatError, GraphError, parse_graph, serialize_graph
from .interp import (
    ERROR,
    NONTERMINATING,
    TERMINATED,
    Configuration,
    initialize,
    run,
)
from .rewrite import enumerate_language
from .syntax import syntax_grammar

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INVALID = 2
EXIT_INPUT = 3
EXIT_PATTERN_FAILED = 4
EXIT_BUDGET = 5
EXIT_ORACLE_REFUSED = 6


def _load_diagram(path: str) -> tuple[Optional[object], int]:
    try:
        return load_story_diagram(path), EXIT_OK
    except (OSError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_INPUT
    except DiagramError as exc:
        print(f"invalid diagram: {exc}", file=sys.stderr)
        return None, EXIT_INVALID


def cmd_validate(args: argparse.Namespace) -> int:
    d, code = _load_diagram(args.diagram)
    if d is None:
        return code
    print(f"valid: control flow graph with {len(d.cfg.nodes)} nodes")
    if d.validation.derivation:
        print("derivation witness:")
        for step in d.validation.derivation:
            print(f"  {step.rule} at ({step.a}, {step.b})")
    else:
        print("derivation witness: the start graph itself")
    return EXIT_OK


def _start(args: argparse.Namespace, **options) -> tuple[Optional[Configuration], int]:
    """Load the diagram and the model, and bind `this` in a fresh configuration."""
    d, code = _load_diagram(args.diagram)
    if d is None:
        return None, code
    try:
        with open(args.model, encoding="utf-8") as fh:
            model = parse_graph(fh.read(), d.tg)
        c = initialize(d, model, args.this, strategy=args.strategy, **options)
    except (OSError, FormatError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_INPUT
    return c, EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    c, code = _start(args, seed=args.seed)
    if c is None:
        return code
    c, trace = run(c, max_steps=args.max_steps)

    # outputs are written for every status: error and budget states are
    # just as inspectable as success
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(c.model) + "\n")
    with open(args.trace, "w", encoding="utf-8") as fh:
        fh.write(trace.to_jsonl())
    if args.state:
        state = c.state_graph()  # a clashing id raises GraphError: exit 3
        with open(args.state, "w", encoding="utf-8") as fh:
            fh.write(serialize_graph(state) + "\n")

    if c.status == TERMINATED:
        print(f"terminated after {len(c.trace)} steps")
        return EXIT_OK
    if c.status == ERROR:
        print(f"pattern failed at node {c.token_at}")
        return EXIT_PATTERN_FAILED
    if c.status == NONTERMINATING:
        print(f"step budget of {args.max_steps} exhausted")
        return EXIT_BUDGET
    raise AssertionError(f"unexpected status {c.status!r}")


def cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerate_language(syntax_grammar(), args.max_nodes)
    for g in result.graphs:
        print(json.dumps(g.to_dict(), sort_keys=True))
    print(f"count: {len(result.graphs)}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    c, code = _start(args)
    if c is None:
        return code
    # the replay needs its own start: `run` steps `c` in place
    fresh = initialize(c.diagram, c.model, args.this, strategy=args.strategy)
    c, trace = run(c, max_steps=args.max_steps)
    try:
        verdict = cross_check(fresh, trace, model_bound=args.model_bound)
    except OracleError as exc:
        print(f"oracle refused: {exc}", file=sys.stderr)
        return EXIT_ORACLE_REFUSED
    except GraphError as exc:  # the run and its own record disagree
        print(f"undocumented disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    for note in verdict.divergences:
        print(f"documented divergence: {note}")
    for note in verdict.notes:
        print(note)
    if verdict.pair_checked:
        print(f"semantics size: {verdict.sem_size} pairs")
    if not verdict.ok:
        print("undocumented disagreement", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _positive_int(text: str) -> int:
    """An argparse type: bounds of 0 or less are usage errors."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sdm",
        description="Execute and check story diagrams over typed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # what `run` and `oracle` share; `run`'s match order sits between the
    # parents, so that its usage line keeps its order
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("diagram")
    shared.add_argument("model")
    shared.add_argument("--this", required=True, help="model node bound to `this`")
    shared.add_argument(
        "--strategy", choices=["conservative", "optimistic"], default="conservative"
    )
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--match-order", choices=["lex", "random"], default="lex")
    order.add_argument("--seed", type=int)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-steps", type=_positive_int, default=10000)

    p = sub.add_parser("validate", help="check a story-diagram file")
    p.add_argument("diagram")

    p = sub.add_parser(
        "run",
        parents=[shared, order, budget],
        help="execute a story diagram on a model",
    )
    p.add_argument("--out", default="out.json", help="final model file")
    p.add_argument("--trace", default="trace.jsonl", help="trace file")
    p.add_argument("--state", help="also write the final execution state graph")

    p = sub.add_parser("enumerate", help="list the control-flow language")
    p.add_argument("--max-nodes", type=int, required=True)

    p = sub.add_parser(
        "oracle", parents=[shared, budget], help="cross-check a run denotationally"
    )
    p.add_argument("--model-bound", type=_positive_int, default=DEFAULT_MODEL_BOUND)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        if (args.match_order == "random") != (args.seed is not None):
            parser.error("--seed is required exactly when --match-order random")
    if args.command == "enumerate" and args.max_nodes < 3:
        parser.error("--max-nodes must be at least 3")
    # looked up per call: bench/spans.py wraps cmd_* after the parser is built
    try:
        return globals()[f"cmd_{args.command}"](args)
    except SearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GraphError as exc:  # raised mid-run, or by the state graph
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
