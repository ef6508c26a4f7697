"""Story-driven modelling: graph rewriting with an executable semantics.

The package is layered: typed graphs and morphisms (`graph`), decided
isomorphic by canonical forms (`canon`), SPO rewriting with NACs
(`rewrite`), the control-flow grammar and validator (`syntax`), story
diagrams with scope analysis (`diagram`), the step interpreter
(`interp`), the denotational oracle (`denot`), and the command line
(`cli`).
"""

from .graph import (
    EdgeType,
    GraphBuilder,
    PartialMorphism,
    TypedGraph,
    TypeGraph,
    parse_graph,
    serialize_graph,
)
from .rewrite import Rule, apply_rule, enumerate_language, find_matches
from .syntax import syntax_grammar, validate_control_flow
from .diagram import load_story_diagram
from .interp import initialize, run
from .denot import cross_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
