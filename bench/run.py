"""The sdm benchmark: four workloads of CLI ops, driven in-process.

    python3 bench/run.py --workload run-star --seed 1 --seconds 25 --trace 0

Run from the repository root; the workloads are listed in `WORKLOADS` and
explained in `BENCHMARK.json`. Each op is one call of
`sdm.cli.main(argv)` in this process, made by one client in a closed
loop: the next op starts when the previous one returns. Inputs are
generated from `--seed` into a work directory under `bench/.work/`, and
each op's output is checked against the answer known from the
construction (see `inputs.py`). A failed check counts the op as failed
and never stops the run.

A run repeats whole rounds of the workload's fixed op mix until
`--seconds` have passed, so every run measures the same mix.

With `--trace 0` the last line of standard output reports:

- `setup_s`: importing `sdm.cli`, plus the median of three set-ups, each
  generating the inputs and running one untimed warm-up op;
- `ops_per_s`: ops completed per second of time spent in `sdm.cli.main`
  (output checks are not timed);
- `op_p50_ms` and `op_tail_ms`: the median and the workload's tail
  percentile of op latency;
- `peak_rss_mib`: the process's peak resident set size.

With `--trace 1` it reports per-layer metrics instead, taken from spans
around calls into sdm's modules (`spans.py`): counts per round of the
mix, which repeat exactly from run to run, self times as shares of the
traced op time, ratios, and the log-log slopes of two scaling curves.
Untraced and traced rounds alternate, and `trace.overhead_ratio` is the
traced round time over the untraced one.

The line before the last carries the run's details: Python version, CPU
count, git revision (`unknown` outside a git checkout) and a digest of
`src/sdm`, the seed, rounds and samples, the tail percentile and how many
samples lie beyond it, the failure ratio and the failures, interpreter
steps per second of op time, per-op median latencies and, when traced,
self seconds per round of each span and the scaling curves with their
log-log slopes. Failures are not a metric: the result line's `failed`
and `attempted` carry them. The details also go to `bench/results/`,
with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    """A fixed op mix.

    `tail_pct` is the percentile reported as `op_tail_ms`. It is fixed per
    workload, so that a faster program is compared at the same percentile.
    It is chosen to fall inside one op's share of the mix, or among ops of
    about equal cost, not between two ops of different cost, where it would
    jump between them from run to run; and, except on enumerate-grammar,
    whose one op gives about ten samples a run, to leave at least ten
    samples beyond it. `warmup` picks the untimed op of each set-up.
    """

    build: Callable[[inputs.Builder], list[inputs.Op]]
    warmup: Callable[[inputs.Builder, list[inputs.Op]], inputs.Op]
    tail_pct: float


def _first(b: inputs.Builder, ops: list[inputs.Op]) -> inputs.Op:
    return ops[0]


WORKLOADS = {
    "run-star": Workload(inputs.run_star_ops, _first, 75),
    "validate-cfg": Workload(inputs.validate_cfg_ops, _first, 75),
    "enumerate-grammar": Workload(
        inputs.enumerate_ops, lambda b, ops: inputs.enumerate_ops(b, 3)[0], 75
    ),
    "oracle-models": Workload(inputs.oracle_ops, _first, 92.5),
}


class Runner:
    """Runs ops through `sdm.cli`, times them and checks their outputs."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def call(self, op: inputs.Op) -> tuple[float, int]:
        """Time one op; returns (seconds, steps in its trace)."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        # each op starts from a collected heap, as a fresh `sdm` process would
        gc.collect()
        code: object = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        problem, steps = self.check(op, code, out.getvalue(), err.getvalue())
        if problem:
            self.failures.append(f"{op.name}: {problem}")
        return elapsed, steps

    def check(self, op: inputs.Op, code, stdout: str, stderr: str) -> tuple[str, int]:
        """Returns (what is wrong, or "", the trace length of a `run`)."""
        if code != op.exit_code:
            return f"exit {code!r}, expected {op.exit_code}; {stderr[-200:]!r}", 0
        lines = stdout.splitlines()
        if op.stdout is not None and not (lines and lines[0].startswith(op.stdout)):
            return f"first line {lines[:1]!r}, expected {op.stdout!r}", 0
        if op.stdout_line is not None and op.stdout_line not in lines:
            return f"no line {op.stdout_line!r}", 0
        if op.lines is not None and len(lines) != op.lines:
            return f"{len(lines)} lines, expected {op.lines}", 0
        if op.stderr is not None and not stderr.startswith(op.stderr):
            return f"stderr {stderr[:120]!r}, expected {op.stderr!r}", 0
        output = stdout.encode()
        steps = 0
        if op.files:
            trace = Path(op.files["trace"]).read_bytes()
            final = Path(op.files["out"]).read_bytes()
            steps = trace.count(b"\n")
            if steps != op.steps:
                return f"{steps} trace records, expected {op.steps}", 0
            model = json.loads(final)
            nodes = {n["id"] for n in model["nodes"]}
            edges = {e["id"] for e in model["edges"]}
            if (nodes, edges) != op.model:
                return "final model differs from the expected one", 0
            output = trace + final
        digest = hashlib.sha256(output).hexdigest()
        if self.digests.setdefault(op.name, digest) != digest:
            return "output differs from an earlier repetition", 0
        return "", steps


def _git_revision() -> str:
    # the ceiling keeps git from reporting a repository that encloses ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sdm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x in points]
    ys = [math.log(y) for y in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def _percentile(values: list[float], pct: float) -> float:
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(pct * 10) - 1]


def _import_cli():
    src = ROOT / "src"
    if not (src / "sdm" / "cli.py").is_file():
        sys.exit(f"error: no sdm sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("sdm.cli")
    if Path(cli.__file__).resolve().parent != src / "sdm":
        sys.exit(f"error: imported sdm from {cli.__file__}, not from {src}")
    return cli


def _set_up(workload: Workload, seed: int, runner: Runner, work_root: Path):
    """Generate the inputs and run the warm-up op, SETUP_REPEATS times.

    Returns the ops of the last repetition, in the seed's order, and the
    median repetition time.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        work = work_root / f"setup{rep}"
        start = time.perf_counter()
        work.mkdir(parents=True)
        builder = inputs.Builder(work, seed, ROOT / "fixtures")
        ops = workload.build(builder)
        runner.call(workload.warmup(builder, ops))
        times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(work)
    random.Random(seed).shuffle(ops)
    return ops, statistics.median(times)


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run: the result line, the details and the spans."""
    start = time.perf_counter()
    runner = Runner(_import_cli())
    import_s = time.perf_counter() - start
    workload = WORKLOADS[name]
    work_root = BENCH / ".work" / f"{name}-{seed}-{os.getpid()}"
    try:
        ops, setup_s = _set_up(workload, seed, runner, work_root)
        tracer = spans.Tracer()
        latencies: list[float] = []  # untraced ops only
        by_op: dict[str, list[float]] = {}
        steps = 0
        op_time = {False: 0.0, True: 0.0}
        rounds = {False: 0, True: 0}
        start = time.perf_counter()
        while True:
            for tracing in (False, True) if traced else (False,):
                if tracing:
                    tracer.install()
                try:
                    for i, op in enumerate(ops):
                        tracer.op = i
                        elapsed, op_steps = runner.call(op)
                        op_time[tracing] += elapsed
                        if not tracing:
                            latencies.append(elapsed)
                            by_op.setdefault(op.name, []).append(elapsed)
                            steps += op_steps
                finally:
                    tracer.uninstall()
                rounds[tracing] += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failed = len(runner.failures)
    tail = _percentile(latencies, workload.tail_pct)
    detail = {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
        "source_digest": _source_digest(),
        "ops_per_round": len(ops),
        "rounds_untraced": rounds[False],
        "rounds_traced": rounds[True],
        "samples": len(latencies),
        "tail_percentile": workload.tail_pct,
        "tail_samples_beyond": sum(1 for x in latencies if x > tail),
        "fail_ratio": failed / runner.attempted,
        "failures": runner.failures[:20],
        "steps_per_s": steps / op_time[False],
        "op_median_ms": {
            k: statistics.median(v) * 1e3 for k, v in sorted(by_op.items())
        },
    }
    if traced:
        metrics, detail["self_s_per_round"], detail["curves"] = _layer_metrics(
            tracer, ops, rounds[True], op_time[True]
        )
        untraced_round = op_time[False] / rounds[False]
        metrics["trace.overhead_ratio"] = (
            op_time[True] / rounds[True] / untraced_round,
            "ratio",
        )
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (import_s + setup_s, "s"),
            "ops_per_s": (len(latencies) / op_time[False], "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mib": (rss, "MiB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "detail": detail, "spans": tracer.spans}


# span name -> the aggregates reported for it: calls per round, and self
# time as a share of the traced op time
SPAN_METRICS = {
    "rewrite.find_matches": ("calls", "self_share"),
    "rewrite.check_nac": ("calls", "self_share"),
    "rewrite.apply_rule": ("calls", "self_share"),
    "rewrite.enumerate_language": ("self_share",),
    "graph.find_isomorphism": ("calls", "self_share"),
    "graph.iso_signature": ("calls", "self_share"),
    "graph.parse_graph": ("self_share",),
    "graph.serialize_graph": ("self_share",),
    "syntax.validate_control_flow": ("calls", "self_share"),
    "syntax.classify_nodes": ("self_share",),
    "diagram.load_story_diagram": ("self_share",),
    "diagram.analyze_scopes": ("self_share",),
    "diagram.validate_binding_marks": ("self_share",),
    "interp.step": ("calls", "self_share"),
    "interp.Trace.to_jsonl": ("self_share",),
    "denot.cross_check": ("self_share",),
    "denot.evaluate": ("calls", "self_share"),
    "denot.sem_node": ("calls",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(
    tracer: spans.Tracer, ops: list[inputs.Op], rounds: int, op_s: float
):
    """Per-layer metrics, self seconds per round and the scaling curves.

    `op_s` is the total time of the traced ops. Self times are reported as
    shares of it: a share is zero where a workload never enters a layer,
    and it does not move with the host's speed.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    curve_spans = {op.curve[2] for op in ops if op.curve}
    span_s: dict[tuple[int, str], float] = {}  # (op, span name) -> total time
    for _, _, op, name, start, end, own in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name in curve_spans:
            span_s[op, name] = span_s.get((op, name), 0.0) + (end - start)

    metrics: dict[str, tuple[float, str]] = {}
    for name, fields in SPAN_METRICS.items():
        if "calls" in fields:
            metrics[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count/round")
        if "self_share" in fields:
            metrics[f"{name}.self_share"] = (self_s.get(name, 0.0) / op_s, "ratio")
    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
    metrics["cli.self_share"] = (cli_self / op_s, "ratio")
    c = tracer.counts
    for name in ("rewrite.find_matches.listed", "rewrite.apply_rule.host_elems",
                 "denot.sem_pairs"):
        metrics[name] = (c[name] / rounds, "count/round")
    metrics["graph.find_isomorphism.found_ratio"] = (
        _ratio(c["graph.find_isomorphism.found"], calls.get("graph.find_isomorphism", 0)),
        "ratio",
    )
    metrics["syntax.validate_control_flow.accept_ratio"] = (
        _ratio(
            c["syntax.validate_control_flow.accepted"],
            calls.get("syntax.validate_control_flow", 0),
        ),
        "ratio",
    )
    metrics["interp.match_use_ratio"] = (
        _ratio(c["interp.matches_used"], c["interp.matches_listed"]),
        "ratio",
    )

    # scaling curves: ms per round in one span against input size, per step
    # for the interpreter; ops sharing a point (CFG shapes) give their median
    points: dict[str, dict[int, list[float]]] = {}
    for i, op in enumerate(ops):
        if op.curve:
            label, x, span = op.curve
            ms = span_s.get((i, span), 0.0) / rounds * 1e3
            if span == "interp.step":
                ms /= op.steps
            points.setdefault(label, {}).setdefault(x, []).append(ms)
    curves = {
        label: {x: statistics.median(v) for x, v in sorted(by_x.items())}
        for label, by_x in points.items()
    }
    slopes = {k: _slope(v) for k, v in curves.items() if len(v) > 1}
    metrics["interp.step_ms.slope"] = (slopes.get("run.plain.step_ms", 0.0), "ratio")
    metrics["syntax.validate_ms.slope"] = (slopes.get("validate_ms", 0.0), "ratio")
    per_round = {k: v / rounds for k, v in sorted(self_s.items())}
    return metrics, per_round, {"points": curves, "slopes": slopes}


def _write_results(out: dict, traced: bool) -> None:
    d = out["detail"]
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{d['workload']}-seed{d['seed']}-trace{int(traced)}"
    payload = {"detail": d, "result": out["result"]}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (results / f"{stem}.json").write_text(text, encoding="utf-8")
    if traced:
        with gzip.open(results / f"{stem}.spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            fh.write('["id", "parent", "op", "name", "start", "end", "self_s"]\n')
            for span in out["spans"]:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _write_results(out, bool(args.trace))
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
