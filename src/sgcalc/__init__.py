"""Surgery group calculus.

Tracks finitely presented fundamental groups, Euler characteristic,
signature, and minimality flags through Luttinger surgeries, symplectic
sums, and blowups, and machine-verifies the resulting invariants.
"""

from .words import (
    Alphabet,
    Word,
    WordError,
    are_conjugate,
    commutator,
    conjugate,
    cyclic_core,
    invert,
    reduce,
    substitute,
)
from .presentations import (
    Exactness,
    Presentation,
    PresentationError,
    abelianize,
    homology_invariants,
    quotient_by,
    smith_normal_form,
)
from .tietze import DerivationTrace, replay, tietze_simplify
from .coset_enum import (
    EnumResult,
    EnumerationError,
    TrivialityCertificate,
    certify_trivial,
    todd_coxeter,
)
from .manifolds import (
    HomeoType,
    LagrangianTorusMark,
    ManifoldError,
    ManifoldState,
    Minimality,
    Parity,
    SurfaceMark,
    blow_up,
    classify,
    luttinger,
    resolve_intersection,
    symplectic_sum,
)
from .construction import (
    ComplementData,
    ConstructionReport,
    KILL_SCRIPT,
    ReplayError,
    Report,
    build_p,
    build_p1,
    build_p2,
    build_v,
    build_w,
    build_x,
    complement_data,
    replay_kill_order,
    verify_main_theorem,
)
from .script import Budgets, ParseError, Script, execute, parse, parse_word

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
