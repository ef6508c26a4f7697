"""Cross-check interpreter runs against the denotational pair semantics.

Run from the repository root:  python3 demos/04_denotational_oracle.py
"""

from pathlib import Path

from sdm import cross_check, initialize, load_story_diagram, parse_graph, run
from sdm.denot import compile_diagram, evaluate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def check(diagram_name, model_name, this):
    d = load_story_diagram(FIXTURES / diagram_name)
    model = parse_graph((FIXTURES / model_name).read_text(), d.tg)
    c, trace = run(initialize(d, model, this))
    verdict = cross_check(initialize(d, model, this), trace)
    print(f"{diagram_name} on {model_name}: run {c.status}")
    for line in verdict.divergences:
        print(f"  divergence: {line}")
    for line in verdict.notes:
        print(f"  {line}")
    return d, model


# the while loop drains a five-armed star; the oracle composes the
# same meaning without ever seeing a binding or a scope
d, model = check("while_star.diagram.json", "star5.model.json", "o0")
sem = evaluate(compile_diagram(d), model)
print(f"  whole-diagram semantics: {sem!r}")
for g, h in sem.pairs():
    print(f"  pair: {len(g.edges)} edges in, {len(h.edges)} edges out")

print()

# a sequential pattern failure is a documented divergence: the step
# semantics aborts where the denotational one passes the graph through
check("two_node_seq.diagram.json", "single.model.json", "o1")
