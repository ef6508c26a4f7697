"""Story-driven modelling: graph rewriting with an executable semantics.

The package is layered: typed graphs and morphisms (`graph`), decided
isomorphic by canonical forms (`canon`), SPO rewriting with NACs
(`rewrite`), the control-flow grammar and validator (`syntax`), story
diagrams with scope analysis (`diagram`), the step interpreter
(`interp`), the denotational oracle (`denot`), and the command line
(`cli`).
"""

from .graph import (
    Edge,
    EdgeType,
    FormatError,
    GraphBuilder,
    GraphError,
    PartialMorphism,
    TypedGraph,
    TypeGraph,
    find_isomorphism,
    parse_graph,
    parse_type_graph,
    serialize_graph,
    serialize_type_graph,
    validate_typing,
)
from .rewrite import (
    NAC,
    ApplyResult,
    GraphGrammar,
    Match,
    Rule,
    StaleMatchError,
    apply_rule,
    enumerate_language,
    find_matches,
    rule_from_dict,
    rule_to_dict,
)
from .syntax import (
    SYNTAX_TYPE_GRAPH,
    classify_nodes,
    replay_derivation,
    start_graph,
    syntax_grammar,
    syntax_rules,
    validate_control_flow,
)
from .diagram import (
    DiagramError,
    StoryDiagram,
    StoryPattern,
    analyze_scopes,
    diagram_from_dict,
    load_story_diagram,
    validate_binding_marks,
)
from .interp import (
    SEMANTIC_TYPE_GRAPH,
    Configuration,
    Trace,
    initialize,
    replay,
    replay_trace,
    run,
    step,
)
from .denot import (
    OracleError,
    SemSet,
    cross_check,
    sem_if,
    sem_node,
    sem_seq,
    sem_while,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
