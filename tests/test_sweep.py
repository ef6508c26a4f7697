"""The command line's observable behaviour on every fixture, pinned by digest.

The sweep runs `sdm.cli.main` in-process on every diagram fixture and
`malformed.json` (`validate`); on every diagram, model, model node (plus
one unknown node) and strategy at `--max-steps 200` (`run` in lex order
with `--out`, `--trace` and `--state`, `run` in random order with seed 7,
and `oracle`); and on `enumerate` at 3 to 7 nodes. Each call's exit
code, stdout, stderr and output files feed one sha256 per subcommand and
diagram, compared with `sweep_digests.json`. Paths are passed relative to
the repository root, since some error messages embed them.

`python -m tests.test_sweep` prints the digests of the current code. The
committed file holds those of the reference behaviour; a change that
alters any output must say why before that file is regenerated.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from sdm.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = pathlib.Path(__file__).with_name("sweep_digests.json")
STRATEGIES = ("conservative", "optimistic")
OUTPUTS = ("out", "trace", "state")


def _calls(outdir: str):
    """(group, argv) for every call of the sweep, in a fixed order."""
    diagrams = sorted(p.name for p in (ROOT / "fixtures").glob("*.diagram.json"))
    models = sorted(p.name for p in (ROOT / "fixtures").glob("*.model.json"))
    files = {k: os.path.join(outdir, k) for k in OUTPUTS}
    for name in diagrams + ["malformed.json"]:
        yield f"validate/{name}", ["validate", f"fixtures/{name}"]
    for name in diagrams:
        for model in models:
            data = json.loads((ROOT / "fixtures" / model).read_text(encoding="utf-8"))
            nodes = sorted(n["id"] for n in data["nodes"]) + ["unknown-node"]
            for node, strategy in ((n, s) for n in nodes for s in STRATEGIES):
                shared = [f"fixtures/{name}", f"fixtures/{model}", "--this", node]
                shared += ["--strategy", strategy, "--max-steps", "200"]
                out = ["--out", files["out"], "--trace", files["trace"]]
                yield f"run-lex/{name}", ["run", *shared, *out, "--state", files["state"]]
                random_order = ["--match-order", "random", "--seed", "7"]
                yield f"run-random/{name}", ["run", *shared, *random_order, *out]
                yield f"oracle/{name}", ["oracle", *shared]
    for bound in range(3, 8):
        yield "enumerate", ["enumerate", "--max-nodes", str(bound)]


def _call(argv: list[str], outdir: str) -> list[bytes]:
    """Exit code, stdout, stderr and output files (`-` if absent) of one call."""
    for k in OUTPUTS:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(outdir, k))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    for k in OUTPUTS:
        path = pathlib.Path(outdir, k)
        parts.append(path.read_bytes() if path.exists() else b"-")
    return parts


def sweep() -> dict[str, str]:
    """The sha256 of every group's calls, in call order."""
    hashes = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as outdir:
        os.chdir(ROOT)
        try:
            for group, argv in _calls(outdir):
                h = hashes.setdefault(group, hashlib.sha256())
                parts = [json.dumps(argv).replace(outdir, "OUT").encode()]
                for part in parts + _call(argv, outdir):
                    h.update(b"%d:%s" % (len(part), part))
        finally:
            os.chdir(cwd)
    return {group: h.hexdigest() for group, h in sorted(hashes.items())}


def test_every_fixture_call_gives_the_reference_bytes():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = sweep()
    assert sorted(got) == sorted(want)
    assert [g for g in got if got[g] != want[g]] == []


if __name__ == "__main__":
    sys.stdout.write(json.dumps(sweep(), indent=2) + "\n")
