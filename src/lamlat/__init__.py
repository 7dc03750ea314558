"""Finite lambda-lattices: posets, completions, property checkers, exhaustive verification."""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    BadChoiceError,
    BudgetError,
    CycleError,
    IncompleteChoiceError,
    InvalidOrderError,
    LamlatError,
    NoTopError,
    NotDirectedError,
    ParseError,
    RangeError,
    UnboundedError,
    UnknownTheoremError,
)
from .verdict import Verdict
from .poset import Chain, Poset, mk_poset
from .lattice import (
    AxiomReport,
    ChoiceSpec,
    LambdaLattice,
    acute,
    check_axioms,
    convex_closed_subsets,
    forced_join,
    forced_meet,
    from_choice,
    idempotency_holds,
    is_distributive,
    is_lattice,
    is_modular,
    is_monotone,
)
from .checkers import (
    AcuteCharacterization,
    AcuteClause,
    PropertyReport,
    acute_characterization,
    classify,
    cond3,
    cond4,
    cond5,
    dcc,
    height_inequality,
    is_semimodular,
    lemma1_refutes,
    mk_isomorphic,
    monotone_wedge,
    satisfies_lcc,
    satisfies_wlcc,
)
from .search import (
    Counterexample,
    EnumerationFilter,
    THEOREMS,
    VerificationResult,
    completion_count,
    enumerate_completions,
    enumerate_posets,
    independence_table,
    verify,
    violates,
)
from .fixtures import FIXTURE_NAMES, catalog, fig6_family, fixture, fixture_poset
from .instances import parse_instance, render_instance
from .dot import export_dot
from .report import ChainSummary, ReportDocument, build_report

__all__ = [
    "AcuteCharacterization", "AcuteClause", "ArgumentError", "AxiomReport", "BadChoiceError",
    "BudgetError", "Chain", "ChainSummary", "ChoiceSpec", "Counterexample",
    "CycleError", "EnumerationFilter", "FIXTURE_NAMES", "IncompleteChoiceError",
    "InvalidOrderError", "LambdaLattice", "LamlatError", "NoTopError",
    "NotDirectedError", "ParseError", "Poset", "PropertyReport", "RangeError",
    "ReportDocument", "THEOREMS", "UnboundedError", "UnknownTheoremError",
    "VerificationResult", "Verdict", "acute", "acute_characterization",
    "build_report", "catalog", "check_axioms", "classify", "completion_count",
    "cond3", "cond4", "cond5", "convex_closed_subsets", "dcc",
    "enumerate_completions", "enumerate_posets", "export_dot", "fig6_family",
    "fixture", "fixture_poset", "forced_join", "forced_meet", "from_choice",
    "height_inequality", "idempotency_holds", "independence_table",
    "is_distributive", "is_lattice", "is_modular", "is_monotone",
    "is_semimodular", "lemma1_refutes", "mk_isomorphic", "mk_poset",
    "monotone_wedge", "parse_instance", "render_instance", "satisfies_lcc",
    "satisfies_wlcc", "verify", "violates",
]
