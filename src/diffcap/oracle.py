"""Ground-truth machinery, independent of the Gauss-Laguerre scheme.

Three reference routes are provided:

* ``exact_phi`` evaluates the auxiliary-ODE solution at a fixed time through
  its closed integral form (the derivative data convolved with a pure
  exponential), by adaptive quadrature on an analytically clipped window.
  ``exact_combination`` folds two such values into the integrand of the
  diffusive representation at every node of a rule.
* ``reference_quadrature`` integrates the diffusive representation itself
  over the auxiliary variable, giving a high-accuracy derivative value.
* ``brute_force_caputo`` evaluates the defining weakly singular integral
  after a substitution that removes the endpoint singularity.

All three share one globally adaptive integrator (an embedded Gauss-Kronrod
pair with absolute-error targets) so they owe nothing to the quadrature or
stepping modules they are used to check.  A small corpus of test functions
with hand-written derivatives and closed-form values rounds out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .diffusive import DerivativeProblem
from .errors import InvalidParameterError, OracleError, UnsupportedOperationError

TOL_MIN = 1e-14
TOL_MAX = 1e-6
_TOL_FLOOR, _TOL_CEIL = 1e-300, 1e6  # _bounded_exp's clamp of derived tolerances

#: decay lengths kept when clipping the boundary-layer window; exp(-40) is
#: below double resolution of the remaining integral
_CLIP_LENGTHS = 40.0


def _validate_tol(tol: float, upper: float = TOL_MAX) -> float:
    tol = float(tol)
    if not (TOL_MIN <= tol <= upper):
        raise InvalidParameterError(f"tolerance must lie in [{TOL_MIN}, {upper}], got {tol}")
    return tol


def _validate_time(problem: DerivativeProblem, t: float) -> float:
    t = float(t)
    if not (problem.a <= t <= problem.end):
        raise InvalidParameterError(
            f"t = {t} outside the problem interval [{problem.a}, {problem.end}]"
        )
    return t


#: machine floor for relative accuracy; QUADPACK's error estimator saturates
#: near 50 ulp times the integrand scale, which for boundary-layer integrands
#: is a factor ~40 above the integral itself.  Absolute targets below this
#: floor degrade to it instead of failing.
_REL_FLOOR = 5e-13


def _adaptive_integral(f: Callable[[float], float], lo: float, hi: float, abs_tol: float) -> float:
    if hi <= lo:
        return 0.0
    result = integrate.quad(f, lo, hi, epsabs=abs_tol, epsrel=_REL_FLOOR, limit=200, full_output=1)
    value, abserr = result[0], result[1]
    if len(result) > 3:
        raise OracleError(f"adaptive integration on [{lo}, {hi}] failed: {result[3]}")
    if abserr > max(abs_tol, _REL_FLOOR * abs(value)) * 1.01:
        raise OracleError(
            f"adaptive integration on [{lo}, {hi}] reached error estimate {abserr}, "
            f"target was {abs_tol}"
        )
    return value


def _bounded_exp(log_value: float) -> float:
    """exp clamped to [_TOL_FLOOR, _TOL_CEIL], for derived integration tolerances."""
    if log_value >= math.log(_TOL_CEIL):
        return _TOL_CEIL
    return max(math.exp(log_value), _TOL_FLOOR)


def _phi_integral(problem: DerivativeProblem, w: float, t: float, abs_tol: float) -> float:
    """phi(w, t) = c e^{w q} * integral_a^t d_upper(tau) exp(-(t - tau) e^w) dtau.

    The window is clipped to [max(a, t - 40 e^{-w}), t] and parametrized by
    its fraction v in [0, 1], so every quadrature sample is well conditioned
    no matter how thin the boundary layer is:

        integral = L * int_0^1 d_upper(t - L v) exp(-U v) dv,

    with L the window length and U = L e^w <= 40.  No tolerance-range
    validation: internal callers derive tolerances that scale with e^{-w}
    and may legitimately fall below the public floor.
    """
    a = problem.a
    if t <= a:
        return 0.0
    span = t - a
    if w > math.log(_CLIP_LENGTHS) - math.log(span):
        length = _CLIP_LENGTHS * math.exp(-w)
        decay = _CLIP_LENGTHS
    else:
        length = span
        # this branch means span e^w <= 40 exactly; min only absorbs
        # floating-point fuzz at the branch boundary
        decay = min(span * math.exp(w), _CLIP_LENGTHS)
    if length == 0.0:
        # layer thinner than double resolution; the value underflows any
        # representable target
        return 0.0
    q = problem.fractional_part
    c = problem.prefactor
    # target on the unit-interval integral so the scaled error stays <= abs_tol
    inner_tol = _bounded_exp(math.log(abs_tol) - w * q - math.log(abs(c)) - math.log(length))

    def integrand(v: float) -> float:
        tau = t - length * v
        if tau < a:
            tau = a
        return problem.d_upper(tau) * math.exp(-decay * v)

    raw = _adaptive_integral(integrand, 0.0, 1.0, inner_tol)
    if raw == 0.0:
        return 0.0
    magnitude = math.exp(math.log(abs(c)) + w * q + math.log(length) + math.log(abs(raw)))
    return -magnitude if (c < 0.0) != (raw < 0.0) else magnitude


def exact_phi(problem: DerivativeProblem, w: float, t: float, tol: float = 1e-12) -> float:
    """Reference value of the auxiliary solution phi(w, t), |error| <= tol.

    For large positive w the integrand is a boundary layer of width e^{-w}
    at tau = t; the window is clipped to 40 decay lengths before refinement,
    making the cost independent of w.
    """
    tol = _validate_tol(tol)
    t = _validate_time(problem, t)
    if math.isnan(w):
        raise InvalidParameterError("w must be a number, got nan")
    return _phi_integral(problem, float(w), t, tol)


def _folded(problem: DerivativeProblem, w: float, t: float, tol: float) -> float:
    """phi(-w/q, t)/q + phi(w/(1-q), t)/(1-q), each phi within ``tol``."""
    q = problem.fractional_part
    phi_minus = _phi_integral(problem, -w / q, t, tol)
    phi_plus = _phi_integral(problem, w / (1.0 - q), t, tol)
    return phi_minus / q + phi_plus / (1.0 - q)


def exact_combination(problem: DerivativeProblem, rule, t: float, budget: float) -> np.ndarray:
    """Per-node reference values of e^{-x_k} times the folded integrand at x_k.

    ``rule`` supplies ``nodes`` x_k and ``log_weights`` ln a_k.  Node
    tolerances are split so the weighted sum over all nodes, with weights
    a_k e^{x_k}, stays within ``budget``, which must lie in [TOL_MIN, TOL_MAX].
    No time validation: callers pass the times of their own grid.
    """
    budget = _validate_tol(budget)
    q = problem.fractional_part
    npoints = len(rule.nodes)
    coef_log = rule.log_weights + rule.nodes
    split = math.log(budget) + math.log(min(q, 1.0 - q)) - math.log(4.0 * npoints)
    out = np.empty(npoints)
    for k, x in enumerate(rule.nodes):
        out[k] = _folded(problem, x, t, _bounded_exp(split - coef_log[k]))
    return out


def reference_quadrature(problem: DerivativeProblem, t: float, tol: float = 1e-10) -> float:
    """High-accuracy derivative value via the diffusive integral itself.

    The weighted folded integrand simplifies analytically to
    phi(-w/q)/q + phi(w/(1-q))/(1-q), which decays like e^{-w}; the range is
    cut at W_max = 30 - ln(tol) so the tail is far below tol.  The returned
    value carries an estimated error of at most about 2 tol.
    """
    tol = _validate_tol(tol)
    t = _validate_time(problem, t)
    if t == problem.a:
        return 0.0
    q = problem.fractional_part
    w_max = 30.0 - math.log(tol)
    branch_tol = tol * min(q, 1.0 - q) / (4.0 * w_max)
    return _adaptive_integral(lambda w: _folded(problem, w, t, branch_tol), 0.0, w_max, tol)


def brute_force_caputo(problem: DerivativeProblem, t: float, tol: float = 1e-10) -> float:
    """The fractional derivative straight from its defining integral.

    The weak endpoint singularity is removed by the substitution
    tau = t - sigma^{1/(m - alpha)}, m = ceil(alpha), which turns the
    integral into a plain one of the upper derivative along a warped time.
    """
    tol = _validate_tol(tol)
    t = _validate_time(problem, t)
    a = problem.a
    if t == a:
        return 0.0
    mu = problem.ceil_order - problem.alpha
    inv_mu = 1.0 / mu
    upper = (t - a) ** mu
    gamma = math.gamma(mu + 1.0)

    def integrand(sigma: float) -> float:
        tau = t - sigma**inv_mu
        tau = min(max(tau, a), t)
        return problem.d_upper(tau)

    return _adaptive_integral(integrand, 0.0, upper, tol * gamma) / gamma


# --- test corpus -----------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Derivative data for one corpus entry, bound to a specific order alpha.

    ``d_upper`` is the ceil(alpha)-th derivative, ``d_upper_plus`` the next
    one, and ``exact_caputo`` the closed-form derivative where one exists.
    Exact sup-norms over [a, a + T] are carried where they are trivial.
    """

    name: str
    d_upper: Callable[[float], float]
    d_upper_plus: Callable[[float], float] | None
    exact_caputo: Callable[[float], float] | None
    d_upper_sup: float | None = None
    d_upper_plus_sup: float | None = None


_POWER_EXPONENTS = {"pow1": 1.0, "pow2": 2.0, "pow3": 3.0, "pow2.5": 2.5}


def corpus_names() -> tuple[str, ...]:
    return (*_POWER_EXPONENTS, "exp", "sin")


def _power_derivative(p: float, order: float, a: float) -> tuple[Callable[[float], float], float | None]:
    """order-th derivative of (t - a)^p, plus its coefficient for sup-norms.

    ``order`` may be fractional, which gives the Caputo derivative for
    p > ceil(order) - 1.  The coefficient is None when the exponent
    p - order is negative (the derivative is unbounded near a, and infinite
    at a) and 0 for integer p below the order.
    """
    if p == int(p) and order > p:
        return (lambda t: 0.0), 0.0
    coeff = math.gamma(p + 1.0) / math.gamma(p - order + 1.0)
    expo = p - order

    def deriv(t: float, _c: float = coeff, _e: float = expo, _a: float = a) -> float:
        dt = t - _a
        if dt == 0.0 and _e < 0.0:
            return math.inf
        try:  # inline rather than _scaled_power: this runs inside nested quad
            return _c * dt**_e
        except OverflowError:
            return math.copysign(math.inf, _c)

    return deriv, coeff if expo >= 0.0 else None


def _scaled_power(c: float, x: float, e: float) -> float:
    """c * x**e, but +-inf where the power overflows."""
    try:
        return c * x**e
    except OverflowError:
        return math.copysign(math.inf, c)


def corpus_function(name: str, alpha: float, a: float = 0.0, T: float = 1.0) -> TestFunction:
    """Build the corpus entry ``name`` for order ``alpha`` on [a, a + T]."""
    m = math.ceil(alpha)
    if name in _POWER_EXPONENTS:
        p = _POWER_EXPONENTS[name]
        d_upper, coeff_m = _power_derivative(p, m, a)
        d_upper_plus, coeff_m1 = _power_derivative(p, m + 1, a)
        # the Caputo derivative of (t - a)^p is its order-alpha power-law
        # derivative (zero for integer p below alpha); there is no closed
        # form when the m-th derivative is not integrable at a
        exact = None
        if p == int(p) or p > m - 1:
            exact, _ = _power_derivative(p, alpha, a)
        sup = None if coeff_m is None else _scaled_power(abs(coeff_m), T, max(p - m, 0.0))
        sup_plus = (
            None if coeff_m1 is None else _scaled_power(abs(coeff_m1), T, max(p - m - 1, 0.0))
        )
        return TestFunction(
            name=name,
            d_upper=d_upper,
            d_upper_plus=d_upper_plus,
            exact_caputo=exact,
            d_upper_sup=sup,
            d_upper_plus_sup=sup_plus,
        )
    if name == "exp":

        def fn(t: float, _a: float = a) -> float:
            try:  # inline, as in _power_derivative
                return math.exp(t - _a)
            except OverflowError:
                return math.inf

        sup = fn(T, 0.0)  # e^T, inf where that overflows
        return TestFunction(
            name=name,
            d_upper=fn,
            d_upper_plus=fn,
            exact_caputo=None,
            d_upper_sup=sup,
            d_upper_plus_sup=sup,
        )
    if name == "sin":
        half_pi = 0.5 * math.pi

        def shifted(order: int) -> Callable[[float], float]:
            return lambda t, _s=order * half_pi, _a=a: math.sin(t - _a + _s)

        return TestFunction(
            name=name,
            d_upper=shifted(m),
            d_upper_plus=shifted(m + 1),
            exact_caputo=None,
        )
    raise InvalidParameterError(f"unknown corpus function {name!r}; known: {corpus_names()}")


def make_problem(name: str, alpha: float, a: float = 0.0, T: float = 1.0) -> DerivativeProblem:
    """Wire a corpus entry into a ready-to-run problem."""
    fn = corpus_function(name, alpha, a=a, T=T)
    return DerivativeProblem(alpha=alpha, a=a, T=T, d_upper=fn.d_upper, d_upper_plus=fn.d_upper_plus)


def require_d_upper_plus(problem: DerivativeProblem) -> Callable[[float], float]:
    if problem.d_upper_plus is None:
        raise UnsupportedOperationError(
            "this operation needs the (ceil(alpha)+1)-th derivative, "
            "which the problem does not supply"
        )
    return problem.d_upper_plus
