"""Spans around calls into sdm's layers, recorded from outside the package.

`Tracer.install` wraps each public function listed in `LAYERS` in every
sdm module that holds a reference to it: `from .rewrite import
find_matches` copies the function into the importing module, so wrapping
only the defining module would miss the calls made through the copies.
`Tracer.uninstall` puts the originals back. Nothing under `src/` changes.

A span records its id, its parent's id, the op it belongs to, its name,
start and end, and its self time: its duration minus the durations of its
direct children. The run is single-threaded, so children never overlap.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer module -> public functions to wrap ("Class.method" for methods)
LAYERS = {
    "graph": ("find_isomorphism", "iso_signature", "parse_graph", "serialize_graph"),
    "rewrite": ("find_matches", "check_nac", "apply_rule", "enumerate_language"),
    "syntax": ("validate_control_flow", "classify_nodes"),
    "diagram": ("load_story_diagram", "analyze_scopes", "validate_binding_marks"),
    "interp": ("initialize", "run", "step", "Trace.to_jsonl"),
    "denot": ("cross_check", "evaluate", "sem_node"),
    "cli": ("main", "cmd_validate", "cmd_run", "cmd_enumerate", "cmd_oracle"),
}


class Tracer:
    """Collects spans and per-layer counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self_s)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[list] = []  # [span id, child time so far]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, site: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, self.op, name, start, end, end - start - frame[1]))
            if count is not None:
                count(counts, site, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "sdm" or name.startswith("sdm.")
        }
        for layer, names in LAYERS.items():
            home = modules[f"sdm.{layer}"]
            for qualname in names:
                span = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    self._patch(owner, attr, self._wrap(span, owner.__dict__[attr], layer))
                    continue
                original = getattr(home, qualname)
                for mod_name, mod in sorted(modules.items()):
                    if getattr(mod, qualname, None) is original:
                        site = mod_name.rpartition(".")[2]
                        self._patch(mod, qualname, self._wrap(span, original, site))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _count_find_matches(counts, site, args, result) -> None:
    counts["rewrite.find_matches.listed"] += len(result)
    if site == "interp":
        # the interpreter uses one match per successful invocation
        counts["interp.matches_listed"] += len(result)
        counts["interp.matches_used"] += 1 if result else 0


def _count_apply_rule(counts, site, args, result) -> None:
    host = args[2]
    counts["rewrite.apply_rule.host_elems"] += len(host.nodes) + len(host.edges)


def _count_find_isomorphism(counts, site, args, result) -> None:
    counts["graph.find_isomorphism.found"] += result is not None


def _count_validate(counts, site, args, result) -> None:
    counts["syntax.validate_control_flow.accepted"] += bool(result.ok)


def _count_evaluate(counts, site, args, result) -> None:
    counts["denot.sem_pairs"] += len(result)


_COUNTERS = {
    "rewrite.find_matches": _count_find_matches,
    "rewrite.apply_rule": _count_apply_rule,
    "graph.find_isomorphism": _count_find_isomorphism,
    "syntax.validate_control_flow": _count_validate,
    "denot.evaluate": _count_evaluate,
}
