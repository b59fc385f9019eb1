"""The package namespace re-exports the layers' public names, each once."""

import qcalc
from qcalc import errors, funcexpr, qcore, qdiff, qgeom, qquad, verify

PUBLIC = (
    "Deformation", "EvalFlag", "ExtendedValue", "q_log", "q_exp", "big_e",
    "ln_big_e", "q_add", "q_sub", "q_mul", "q_div", "q_power_n", "q_times_n",
    "q_log_exp_of", "RealFunction", "Num", "Var", "Neg", "BinOp", "Call", "parse",
    "to_text", "builtin", "evaluate", "evaluate_extended", "BUILTIN_NAMES",
    "DerivConfig", "primal_qderiv_closed", "primal_qderiv_numeric",
    "primal_qderiv_numeric_with_estimate", "dual_qderiv_closed",
    "dual_qderiv_numeric", "dual_qderiv_numeric_with_estimate", "SingularityMode",
    "QuadratureConfig", "IntegralFlag", "IntegralResult", "primal_qint",
    "primal_qint_riemann", "dual_qint", "dual_qint_from", "borges_dual_qint",
    "GeometricPartition", "partition_sum_oracle", "PrimalQLine", "DualQLine",
    "primal_qline_eval", "dual_qline_eval", "primal_secant_slope",
    "dual_secant_slope", "primal_qline_through", "dual_qline_through",
    "primal_qtangent", "dual_qtangent", "slope_duality", "integral_ratio",
    "DEFAULT_Q_SWEEP", "PropertyResult", "run_battery", "QcalcError",
    "DomainError", "PoleError", "SingularityError", "ParseError",
    "UnknownBuiltinError", "MissingDerivativeError", "DegenerateSecantError",
    "InverseMismatchError", "ToleranceWarning", "__version__",
)


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from qcalc import *", namespace)
    del namespace["__builtins__"]
    assert tuple(qcalc.__all__) == PUBLIC
    assert sorted(namespace) == sorted(PUBLIC)
    assert "compile" not in namespace  # would shadow the builtin


def test_public_names_are_the_layer_objects():
    for layer in (qcore, funcexpr, qdiff, qquad, qgeom, verify, errors):
        for name in set(layer.__all__) & set(PUBLIC):
            assert getattr(qcalc, name) is getattr(layer, name), name
