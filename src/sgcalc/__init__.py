"""Surgery group calculus.

Tracks finitely presented fundamental groups, Euler characteristic,
signature, and minimality flags through Luttinger surgeries, symplectic
sums, and blowups, and machine-verifies the resulting invariants.

The names below are loaded on first use (PEP 562), so ``import sgcalc``
imports no submodule and a command loads only the modules it runs.
"""

import importlib

_EXPORTS = {
    "words": ("Alphabet", "Word", "WordError", "are_conjugate", "commutator", "conjugate", "cyclic_core",
              "invert", "reduce", "substitute"),
    "presentations": ("Exactness", "Presentation", "PresentationError", "abelianize", "homology_invariants",
                      "quotient_by", "smith_normal_form"),
    "tietze": ("DerivationTrace", "replay", "tietze_simplify"),
    "coset_enum": ("EnumResult", "EnumerationError", "TrivialityCertificate", "certify_trivial", "todd_coxeter"),
    "manifolds": ("HomeoType", "LagrangianTorusMark", "ManifoldError", "ManifoldState", "Minimality", "Parity",
                  "SurfaceMark", "blow_up", "classify", "luttinger", "resolve_intersection", "symplectic_sum"),
    "construction": ("ComplementData", "ConstructionReport", "KILL_SCRIPT", "ReplayError", "Report", "build_p",
                     "build_p1", "build_p2", "build_v", "build_w", "build_x", "complement_data",
                     "replay_kill_order", "verify_main_theorem"),
    "script": ("Budgets", "ParseError", "Script", "execute", "parse", "parse_word"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
