"""qcalc: numerical deformed (q-)calculus.

q-algebra and q-special-functions (:mod:`qcalc.qcore`), an expression parser
producing evaluatable functions (:mod:`qcalc.funcexpr`), primal/dual
q-derivatives (:mod:`qcalc.qdiff`), primal/dual q-integrals with independent
oracles (:mod:`qcalc.qquad`), q-line geometry (:mod:`qcalc.qgeom`), and a
deterministic CLI (:mod:`qcalc.cli`).

``import qcalc`` imports no layer. A layer is imported when it, or one of
the names the package re-exports from it, is first looked up (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# The order of the package's __all__; a name is looked up in dependency
# order, so finding one imports no layer that does not hold it or feed it.
_LAYERS = ("qcore", "funcexpr", "qdiff", "qquad", "qgeom", "verify", "errors")
_LOOKUP = ("errors", "qcore", "funcexpr", "qdiff", "qquad", "qgeom", "verify")

# Layer names the package does not re-export: ``compile`` would shadow the
# builtin under ``from qcalc import *``; the rest are parser and evaluator
# internals.
_NOT_EXPORTED = ("compile", "Expr", "CALL_NAMES", "EVAL_ERRORS")


def _layer(name):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name in _LAYERS or name == "cli":
        return _layer(name)
    if name == "__all__":
        value = [n for layer in _LAYERS for n in _layer(layer).__all__
                 if n not in _NOT_EXPORTED]
        value.append("__version__")
    elif name.startswith("_") or name in _NOT_EXPORTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        layer = next((m for m in map(_layer, _LOOKUP) if name in m.__all__), None)
        if layer is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(layer, name)
    globals()[name] = value
    return value
