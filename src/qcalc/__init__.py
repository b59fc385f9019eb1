"""qcalc: numerical deformed (q-)calculus.

q-algebra and q-special-functions (:mod:`qcalc.qcore`), an expression parser
producing evaluatable functions (:mod:`qcalc.funcexpr`), primal/dual
q-derivatives (:mod:`qcalc.qdiff`), primal/dual q-integrals with independent
oracles (:mod:`qcalc.qquad`), q-line geometry (:mod:`qcalc.qgeom`), and a
deterministic CLI (:mod:`qcalc.cli`).
"""

from . import errors, funcexpr, qcore, qdiff, qgeom, qquad, verify

__version__ = "0.1.0"

# Layer names the package does not re-export: ``compile`` would shadow the
# builtin under ``from qcalc import *``; the rest are parser and evaluator
# internals.
_NOT_EXPORTED = ("compile", "Expr", "CALL_NAMES", "EVAL_ERRORS")

__all__ = []
for _layer in (qcore, funcexpr, qdiff, qquad, qgeom, verify, errors):
    for _name in _layer.__all__:
        if _name not in _NOT_EXPORTED:
            globals()[_name] = getattr(_layer, _name)
            __all__.append(_name)
__all__.append("__version__")
del _layer, _name
