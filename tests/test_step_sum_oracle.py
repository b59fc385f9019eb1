"""The tanh-sinh step sum against mpmath: every result it returns is honest.

Integrands singular, or not smooth, at the lower bound 0 break there, so
the engine starts at the step sum (where it runs the weighted integrand
through _integrate, with no break points, the first Kronrod panel misses
and the step sum comes next). Wherever the step sum returns (no panel, or
one panel and more than its 15 evaluations), its true error must be at
most its estimate, which must meet the tolerance. Results of the adaptive
loop after a step sum that missed are not checked here: their estimates
are those of the engine without the step sum.
"""

import functools
import math

import pytest

from qcalc import Deformation, funcexpr, parse
from qcalc.qquad import QuadratureConfig, _integrate, primal_qint

mp = pytest.importorskip("mpmath")

INTEGRANDS = {
    "sqrt(x)": lambda x: mp.sqrt(x),
    "ln(x)": lambda x: mp.log(x),
    "x*ln(x)": lambda x: x * mp.log(x),
    "1/sqrt(x)": lambda x: 1 / mp.sqrt(x),
    "x^0.25*cos(x)": lambda x: x ** mp.mpf(0.25) * mp.cos(x),
    "ln(x)+2": lambda x: mp.log(x) + 2,
    "sqrt(x)*exp(x)": lambda x: mp.sqrt(x) * mp.exp(x),
}
UPPER = (0.75, 1.0)
SCALES = (1e-6, 1.0, 1e6)
REL_TOLS = (1e-6, 1e-8, 1e-10, 1e-13)
ABS_TOL = 1e-300
# weight none (the ordinary integral), the Borges weight at q = 0.5, and the
# primal chart at q = 0.5 and q = 2
MODES = ("none", "borges", "primal-0.5", "primal-2")


@functools.lru_cache(maxsize=None)
def truth(text, b, power=1, q=1.0):
    """The integral of f^power / (1 + (1-q) x) from 0 to b, to 40 digits."""
    with mp.workdps(40):
        f, delta = INTEGRANDS[text], mp.mpf(1.0 - q)
        return +mp.quad(lambda x: f(x) ** power / (1 + delta * x), [0, mp.mpf(b)])


def run(text, mode, b, c, config):
    """The engine's result for c * f on [0, b], and the true value."""
    source = text if c == 1.0 else f"{c!r}*({text})"
    c = mp.mpf(c)
    if mode == "none":
        d = Deformation(1.0)
        res = primal_qint(funcexpr.compile(parse(source, d)), 0.0, b, d, config)
        return res.value, res.error_estimate, res.n_panels, res.n_evals, c * truth(text, b)
    if mode == "borges":
        d = Deformation(0.5)
        f = funcexpr.compile(parse(source, d))
        value, err, _, n_panels, n_evals = _integrate(f, 0.0, b, config, "borges", d.delta)
        want = c * truth(text, b) + mp.mpf(d.delta) * c**2 * truth(text, b, 2)
        return value, err, n_panels, n_evals, want
    q = float(mode.split("-")[1])
    d = Deformation(q)
    res = primal_qint(funcexpr.compile(parse(source, d)), 0.0, b, d, config)
    return res.value, res.error_estimate, res.n_panels, res.n_evals, c * truth(text, b, 1, q)


def cases(mode):
    for b in UPPER:
        if mode == "primal-2" and b == 1.0:
            continue  # the pole of q = 2 is at 1
        for c in SCALES:
            for rel_tol in REL_TOLS:
                yield b, c, QuadratureConfig(abs_tol=ABS_TOL, rel_tol=rel_tol)


@pytest.mark.parametrize("text,mode", [
    (text, mode) for text in INTEGRANDS for mode in MODES
    if (text, mode) != ("1/sqrt(x)", "borges")  # f^2 = 1/x is not integrable
])
def test_step_sum_results_bound_their_true_error(text, mode):
    returned, under = 0, []
    for b, c, config in cases(mode):
        value, err, n_panels, n_evals, want = run(text, mode, b, c, config)
        assert math.isfinite(value)
        if not (n_panels == 0 or n_panels == 1 and n_evals > 15):
            continue  # the first panel's result, or the adaptive loop's
        returned += 1
        true_err = abs(mp.mpf(value) - want)
        bound = max(config.abs_tol, config.rel_tol * abs(value))
        if not true_err <= err <= bound:
            under.append((b, c, config.rel_tol, value, err, float(true_err)))
    assert not under, under
    assert returned > 0  # every integrand takes the step sum somewhere
