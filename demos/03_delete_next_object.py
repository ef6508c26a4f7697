"""Run the DeleteNextObject diagram on lists of different lengths.

A three-way story: long lists lose their second element through the
top branch, short ones gain a fresh follower through the bottom.

Run from the repository root:  python3 demos/03_delete_next_object.py
"""

from pathlib import Path

from sdm import initialize, load_story_diagram, parse_graph, run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

d = load_story_diagram(FIXTURES / "delete_next_object.diagram.json")
print(f"control flow nodes: {sorted(d.cfg.nodes)}")
print(f"scope templates: {sorted(d.scopes.templates)}")

for length in (1, 2, 3, 5):
    model = parse_graph(
        (FIXTURES / f"list{length}.model.json").read_text(), d.tg
    )
    c, trace = run(initialize(d, model, "o1"))
    print(f"\nlist of {length}: {c.status} in {len(trace.steps)} steps")
    for ts in trace.steps:
        binds = ", ".join(f"{k}={v}" for k, v in sorted(ts.match.items()))
        print(f"  {ts.step}. {ts.node}: {ts.outcome}" + (f" ({binds})" if binds else ""))
    survivors = sorted(c.model.nodes)
    print(f"  final model nodes: {survivors}")
