"""Ground-truth machinery, independent of the Gauss-Laguerre scheme.

Three reference routes are provided:

* ``exact_phi`` evaluates the auxiliary-ODE solution at a fixed time through
  its closed integral form (the derivative data convolved with a pure
  exponential): in closed form where the problem declares its ``window``,
  else by adaptive quadrature on an analytically clipped window.
  ``exact_combination`` folds two such values into the integrand of the
  diffusive representation at every node of a rule, all from one window call.
* ``reference_quadrature`` integrates the diffusive representation itself
  over the auxiliary variable, giving a high-accuracy derivative value.
* ``brute_force_caputo`` evaluates the defining weakly singular integral
  as one QAWS integral on [0, 1], its weight the endpoint singularities.

All three share one globally adaptive integrator, QUADPACK with absolute-error
targets (Gauss-Kronrod pairs, and QAWS for algebraic weights: in the defining
integral, at both ends of the reference's outer integral, and at a where a
problem declares the power law of its data there), so they owe nothing to the
quadrature or stepping modules they are used to check; ``scipy.integrate`` is
imported on the first quadrature, not with this module.  A declared window
replaces only the inner integrals over the data, so ``brute_force_caputo``
and the outer w-integral stay independent routes.  A small corpus of test
functions with hand-written derivatives, closed-form windows (elementwise over
arrays of decays) and closed-form values rounds out the module.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffusive import DerivativeProblem, _validate_order
from .errors import InvalidParameterError, OracleError, UnsupportedOperationError

TOL_MIN = 1e-14
TOL_MAX = 1e-6
_TOL_FLOOR, _TOL_CEIL = 1e-300, 1e6  # _bounded_exp's clamp of derived tolerances

#: decay lengths kept when clipping the boundary-layer window; exp(-40) is
#: below double resolution of the remaining integral
_CLIP_LENGTHS = 40.0


class _LazyModule:
    """Imports module ``name`` on the first attribute read and keeps each
    attribute it hands out, so later reads are plain instance lookups."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


#: a module attribute, not a per-call import, so perfbench/tracing.py can rebind it
integrate = _LazyModule("scipy.integrate")
#: Kummer's function for the power-law windows of the corpus
special = _LazyModule("scipy.special")

#: ln 2^60: past this decay a declared window takes its boundary-layer limit
#: d_upper(t) / decay, whose relative error is about (t - a) |d_upper'(t)| /
#: (|d_upper(t)| decay); hyp1f1 returns 0 or nan well before decay 1e300
_LOG_LIMIT_DECAY = 60.0 * math.log(2.0)


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


def _adaptive_integral(
    f: Callable[[float], float], lo: float, hi: float, abs_tol: float, **weight
) -> float:
    """Finite quad of f over [lo, hi] to abs_tol; ``weight`` (weight=, wvar=) goes to quad."""
    result = integrate.quad(f, lo, hi, epsabs=abs_tol, epsrel=_REL_FLOOR, limit=200,
                            full_output=1, **weight)
    value, abserr = result[0], result[1]
    if len(result) > 3:
        raise OracleError(f"adaptive integration on [{lo}, {hi}] failed: {result[3]}")
    if not math.isfinite(value) or abserr > max(abs_tol, _REL_FLOOR * abs(value)) * 1.01:
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


def _scaled(raw: float, log_factor: float) -> float:
    """raw e^{log_factor}, formed in logs; +-inf where it leaves double range."""
    if raw == 0.0:
        return 0.0
    try:
        return math.copysign(math.exp(log_factor + math.log(abs(raw))), raw)
    except OverflowError:
        return math.copysign(math.inf, raw)


def _window(
    problem: DerivativeProblem, t: float, length: float, decay: float, log_tol: float
) -> float:
    """int_0^1 d_upper(lo + length (1 - v)) exp(-decay v) dv, to exp(log_tol).

    Times ``length``, this is W(r) = int_a^t d_upper(tau) e^{-(t - tau) r} dtau
    on [lo, t], for decay = length r <= 40: callers clip the window to 40
    decay lengths.  A full window (length == t - a) keeps lo = a exactly, so
    tau - a keeps its precision where data singular at a is steepest; a
    clipped one starts at lo = max(t - length, a), and at length 0 every
    sample lies at tau = t.  Where the problem declares d_upper(a + u) =
    u^sigma r(u), a full window is length^sigma times a QAWS integral of
    r(length (1 - v)) e^{-decay v} against the weight (1 - v)^sigma, so
    QUADPACK need not bisect toward the singularity at tau = a; length^sigma
    is carried in logs, and so is the target it divides.
    """
    a = problem.a
    if length == t - a and problem.singular_part is not None:
        sigma, r = problem.singular_part
        log_factor = sigma * math.log(length)
        raw = _adaptive_integral(lambda v: r(length * (1.0 - v)) * math.exp(-decay * v),
                                 0.0, 1.0, _bounded_exp(log_tol - log_factor),
                                 weight="alg", wvar=(0.0, sigma))
        return _scaled(raw, log_factor)
    lo = a if length == t - a else max(t - length, a)
    g = problem.d_upper
    return _adaptive_integral(lambda v: g(lo + length * (1.0 - v)) * math.exp(-decay * v),
                              0.0, 1.0, _bounded_exp(log_tol))


def _finite(value: float, t: float) -> float:
    """A declared window value or d_upper(t) as a float; OracleError where it is not finite."""
    if not math.isfinite(value):
        raise OracleError(f"declared window data at t = {t} is {value}, not a finite number")
    return float(value)


def _declared_phi(problem: DerivativeProblem, w: np.ndarray, t: float) -> np.ndarray:
    """phi(w, t) = c e^{w q} (t - a) V(t - a, (t - a) e^w) at every w of an array.

    V is the declared window, taken in one call for all decays up to 2^60;
    past that phi is its boundary-layer limit c d_upper(t) e^{-(1 - q) w}.
    The magnitude is formed in logs, +-inf where it leaves double range, and
    w = +-inf keep their limit 0.  A V or d_upper(t) that is not finite raises
    ``OracleError``.
    """
    a = problem.a
    if t <= a:
        return np.zeros_like(w)
    span = t - a
    q = problem.fractional_part
    log_c, log_decay = math.log(abs(problem.prefactor)), w + math.log(span)
    past = log_decay > _LOG_LIMIT_DECAY
    raw = problem.window(span, np.exp(np.minimum(log_decay, _LOG_LIMIT_DECAY)))
    if past.any():
        raw = np.where(past, problem.d_upper(t), raw)
    finite = np.isfinite(raw)
    if not finite.all():
        _finite(raw[~finite][0], t)  # raises, naming the first such value
    log_scale = np.where(past, log_c - (1.0 - q) * w, log_c + q * w + math.log(span))
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf; exp past range = inf
        return np.copysign(np.exp(log_scale + np.log(np.abs(raw))), raw)


def _phi_integral(problem: DerivativeProblem, w: float, t: float, abs_tol: float) -> float:
    """phi(w, t) = c e^{w q} W(e^w), W(r) = int_a^t d_upper(tau) e^{-(t - tau) r} dtau,
    for a problem that declares no ``window``.

    W is one ``_window`` of length L = min(t - a, 40 e^{-w}), so every
    quadrature sample is well conditioned no matter how thin the boundary
    layer is.  Where the window is clipped, ln L = ln 40 - w is carried in
    logs and the magnitude is formed from ln 40 - (1 - q) w: it stays right
    where 40 e^{-w} underflows (phi ~ c d_upper(t) e^{-(1 - q) w} is not
    small when q is near 1), and w = +-inf keep their limit 0.  No
    tolerance-range validation: internal callers derive tolerances that scale
    with e^{-w} and may fall below the public floor.
    """
    a = problem.a
    if t <= a:
        return 0.0
    span = t - a
    q = problem.fractional_part
    c = problem.prefactor
    if w > math.log(_CLIP_LENGTHS) - math.log(span):
        length, decay = _CLIP_LENGTHS * math.exp(-w), _CLIP_LENGTHS
        log_scale = math.log(_CLIP_LENGTHS) - (1.0 - q) * w  # q w + ln L
    else:
        # this branch means span e^w <= 40 exactly; min only absorbs
        # floating-point fuzz at the branch boundary
        length, decay = span, min(span * math.exp(w), _CLIP_LENGTHS)
        log_scale = q * w + math.log(span)
    log_scale += math.log(abs(c))
    # target on the unit-interval integral so the scaled error stays <= abs_tol
    return _scaled(_window(problem, t, length, decay, math.log(abs_tol) - log_scale), log_scale)


def exact_phi(problem: DerivativeProblem, w: float, t: float, tol: float = 1e-12) -> float:
    """Reference value of the auxiliary solution phi(w, t), |error| <= tol.

    Where the problem declares ``window``, phi is that closed form and costs
    no quadrature.  Otherwise, for large positive w the integrand is a
    boundary layer of width e^{-w} at tau = t; the window is clipped to 40
    decay lengths before refinement, making the cost independent of w.
    """
    tol = _validate_tol(tol)
    t = _validate_time(problem, t)
    if math.isnan(w):
        raise InvalidParameterError("w must be a number, got nan")
    if problem.window is not None:
        return float(_declared_phi(problem, np.array([float(w)]), t)[0])
    return _phi_integral(problem, float(w), t, tol)


def exact_combination(problem: DerivativeProblem, rule, t: float, budget: float) -> np.ndarray:
    """Per-node reference values of e^{-x_k} times the folded integrand at x_k.

    ``rule`` supplies ``nodes`` x_k and ``log_weights`` ln a_k.  Node
    tolerances are split so the weighted sum over all nodes, with weights
    a_k e^{x_k}, stays within ``budget``, which must lie in [TOL_MIN, TOL_MAX].
    A problem that declares ``window`` takes all 2K values of phi from one
    window call.
    """
    budget = _validate_tol(budget)
    t = _validate_time(problem, t)
    q = problem.fractional_part
    npoints = len(rule.nodes)
    if problem.window is not None:
        phi = _declared_phi(problem, np.concatenate((-rule.nodes / q, rule.nodes / (1.0 - q))), t)
        return phi[:npoints] / q + phi[npoints:] / (1.0 - q)
    coef_log = rule.log_weights + rule.nodes
    split = math.log(budget) + math.log(min(q, 1.0 - q)) - math.log(4.0 * npoints)
    out = np.empty(npoints)
    for k, x in enumerate(rule.nodes):
        node_tol = _bounded_exp(split - coef_log[k])
        out[k] = (_phi_integral(problem, -x / q, t, node_tol) / q
                  + _phi_integral(problem, x / (1.0 - q), t, node_tol) / (1.0 - q))
    return out


def reference_quadrature(problem: DerivativeProblem, t: float, tol: float = 1e-10) -> float:
    """High-accuracy derivative value via the diffusive integral itself.

    The derivative is int phi(w, t) dw over the whole w line, with
    phi(w, t) = c e^{q w} W(e^w) as in ``_phi_integral``.  In the logistic
    variable x, e^w = x / ((1 - x) s) with s = t - a, so that
    dw = dx / (x (1 - x)) and x = 1/2 is e^w = 1/s:

        c s^{-q} int_0^1 x^{q-1} (1 - x)^{-q} F(x) dx,  F(x) = W(r) / (1 - x),

    r = x / ((1 - x) s), so a full window has decay s r = x / (1 - x) on
    every span.  F is smooth on [0, 1] and finite at both ends
    (F(0) = W(0) is the integral of d_upper, F(1) = s d_upper(t)), so this
    is one QAWS integral (``weight="alg"``) with no cut of the w range.
    (1 - x) F(0) is taken out in closed form, c int x^{q-1} (1 - x)^{1-q} dx
    = 1 - q, so the exponent q - 1, which QAWS rounds as (q - 1) + 1,
    weights a function that vanishes at 0; both terms use the same F(0), so
    its error cancels to first order.  The outer integral takes a quarter of
    tol and the F values the rest: c int x^{q-1} (1 - x)^{-q} dx = 1, so an
    F error delta moves the value by delta s^{-q}.  A problem that declares
    ``window`` takes every F(x < 1) from it and F(1) from d_upper(t).
    Otherwise a window past 40 decay lengths is clipped to length
    40 s (1 - x) / x, and F is 40 s / x times its unit integral, so x = 1
    samples tau = t alone.  The returned value carries an estimated error of
    at most about tol.
    """
    tol = _validate_tol(tol)
    t = _validate_time(problem, t)
    if t == problem.a:
        return 0.0
    q, c = problem.fractional_part, problem.prefactor
    s = t - problem.a
    log_scaled = math.log(tol) + q * math.log(s)  # ln(tol s^q)
    log_f = log_scaled + math.log(0.75)
    clip = _CLIP_LENGTHS * s  # 40 decay lengths of e^{-(t - tau) r}: clip (1 - x) / x
    window = problem.window
    if window is not None:
        # at x = 1 the boundary-layer limit W(r) r -> d_upper(t)
        f0, f1 = s * _finite(window(s, 0.0), t), s * _finite(problem.d_upper(t), t)

        def integrand(x: float) -> float:
            if x == 1.0:
                return f1
            return s / (1.0 - x) * _finite(window(s, x / (1.0 - x)), t) - (1.0 - x) * f0
    else:
        @functools.cache  # QAWS samples x = 0, x = 1 and shared subinterval ends again
        def f(x: float) -> float:
            if x <= _CLIP_LENGTHS * (1.0 - x):
                return s / (1.0 - x) * _window(problem, t, s, x / (1.0 - x),
                                               log_f + math.log(1.0 - x) - math.log(s))
            return clip / x * _window(problem, t, clip * (1.0 - x) / x, _CLIP_LENGTHS,
                                      log_f + math.log(x) - math.log(clip))

        def integrand(x: float) -> float:
            return f(x) - (1.0 - x) * f0

        f0 = f(0.0)
    rest = _adaptive_integral(integrand, 0.0, 1.0,
                              _bounded_exp(log_scaled - math.log(4.0 * c)),
                              weight="alg", wvar=(q - 1.0, -q))
    return ((1.0 - q) * f0 + c * rest) / s**q


def brute_force_caputo(problem: DerivativeProblem, t: float, tol: float = 1e-10) -> float:
    """The fractional derivative straight from its defining integral.

    With tau = a + (t - a) v, mu = ceil(alpha) - alpha and data declared as
    d_upper(a + u) = u^sigma r(u) (else sigma = 0), it is (t - a)^{mu + sigma}
    / Gamma(mu), carried in logs, times r(t - a) B(sigma + 1, mu) plus one QAWS
    integral of r((t - a) v) - r(t - a) against v^sigma (1 - v)^{mu - 1} on
    [0, 1]: the exponent mu - 1, which QAWS rounds as (mu - 1) + 1, weights a
    function that vanishes at v = 1.  Data past double range at t gives +-inf.
    """
    tol = _validate_tol(tol)
    t = _validate_time(problem, t)
    a, mu = problem.a, problem.ceil_order - problem.alpha
    if t == a:
        return 0.0
    span = t - a
    sigma, r = problem.singular_part or (0.0, lambda u: problem.d_upper(min(a + u, t)))
    r1 = r(span)
    if math.isinf(r1):
        return r1
    log_factor = (mu + sigma) * math.log(span) - math.lgamma(mu)
    rest = _adaptive_integral(lambda v: r(span * v) - r1, 0.0, 1.0,
                              _bounded_exp(math.log(tol) - log_factor),
                              weight="alg", wvar=(sigma, mu - 1.0))
    beta = math.exp(math.lgamma(sigma + 1.0) + math.lgamma(mu) - math.lgamma(sigma + mu + 1.0))
    return _scaled(rest + r1 * beta, log_factor)


# --- test corpus -----------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Derivative data for one corpus entry, bound to a specific order alpha.

    ``d_upper`` is the ceil(alpha)-th derivative, ``d_upper_plus`` the next
    one, and ``exact_caputo`` the closed-form derivative where one exists.
    Exact sup-norms over [a, a + T] are carried where they are trivial, and
    ``singular_part`` and ``window`` are the ``DerivativeProblem`` fields of
    the same names.
    """

    name: str
    d_upper: Callable[[float], float]
    d_upper_plus: Callable[[float], float] | None
    exact_caputo: Callable[[float], float] | None
    d_upper_sup: float | None = None
    d_upper_plus_sup: float | None = None
    singular_part: tuple[float, Callable[[float], float]] | None = None
    window: Callable[[float, float], float] | None = None


_POWER_EXPONENTS = {"pow1": 1.0, "pow2": 2.0, "pow3": 3.0, "pow2.5": 2.5}


def corpus_names() -> tuple[str, ...]:
    return (*_POWER_EXPONENTS, "exp", "sin")


def _power_derivative(
    p: float, order: float, a: float, T: float
) -> tuple[Callable[[float], float], float | None]:
    """order-th derivative of (t - a)^p, plus its sup-norm over [a, a + T].

    ``order`` may be fractional, which gives the Caputo derivative for
    p > ceil(order) - 1.  The sup is None when the exponent p - order is
    negative (the derivative is unbounded near a, and infinite at a) and 0
    for integer p below the order.
    """
    if p == int(p) and order > p:
        return (lambda t: 0.0), 0.0
    coeff = math.gamma(p + 1.0) / math.gamma(p - order + 1.0)
    expo = p - order

    def deriv(t: float, _c: float = coeff, _e: float = expo, _a: float = a) -> float:
        dt = t - _a
        if dt == 0.0 and _e < 0.0:
            return math.inf
        try:  # inline rather than a helper: this runs inside nested quad
            return _c * dt**_e
        except OverflowError:
            return math.copysign(math.inf, _c)

    # |deriv| grows with t - a: its sup is at t - a = T exactly, inf on overflow
    return deriv, abs(deriv(T, _a=0.0)) if expo >= 0.0 else None


def _unit_series(z):
    """int_0^1 e^{-z v} dv by its Taylor series, for |z| <= 1/2 (z or a complex array)."""
    term, total = 1.0 + 0j, 0j
    for n in range(2, 18):  # (-z)^k / (k + 1)! for k <= 15, below 2^-60 of the sum
        total += term
        term *= -z / n
    return total


def _unit_integral(z):
    """int_0^1 e^{-z v} dv = (1 - e^{-z}) / z for Re z >= 0, elementwise for a
    complex array, each part to a few ulp of the magnitude: its Taylor series
    where |z| <= 1/2, else 1 - e^{-z} formed with expm1 and 1 - cos(Im z) =
    2 sin^2(Im z / 2)."""
    if not isinstance(z, np.ndarray):
        if abs(z) <= 0.5:
            return _unit_series(z)
        lam, s = z.real, z.imag
        return complex(2.0 * math.sin(0.5 * s) ** 2 - math.expm1(-lam) * math.cos(s),
                       math.exp(-lam) * math.sin(s)) / z
    near = np.abs(z) <= 0.5
    lam, s = z.real, z.imag
    with np.errstate(all="ignore"):  # the entries near 0 are replaced below
        out = (2.0 * np.sin(0.5 * s) ** 2 - np.expm1(-lam) * np.cos(s)
               + 1j * (np.exp(-lam) * np.sin(s))) / z
    out[near] = _unit_series(z[near])
    return out


def _power_window(p: float, m: int) -> Callable[[float, float], float]:
    """The unit window of the m-th derivative of (t - a)^p, for integer p or p > m - 1.

    That derivative is C u^e at u = tau - a, e = p - m, and int_0^1 (1 - v)^e
    e^{-decay v} dv is M(1, e + 2, -decay) / (e + 1), Kummer's function
    (DLMF 13.4.1), so the window is C S^e M(1, e + 2, -decay) / (e + 1); it
    is 0 for integer p below m and inf where S^e overflows.  Scalar decays
    share a bounded memo of M: the outer QAWS integral of
    ``reference_quadrature`` samples the same decays at every time.
    """
    if p == int(p) and m > p:
        return lambda span, decay: 0.0 * decay  # 0, or zeros shaped like decay
    expo = p - m
    coeff = math.gamma(p + 1.0) / math.gamma(expo + 2.0)  # C / (e + 1)
    kummer = functools.lru_cache(maxsize=1024)(
        lambda decay: float(special.hyp1f1(1.0, expo + 2.0, -decay)))

    def window(span: float, decay: float) -> float:
        try:
            scale = coeff * span**expo
        except OverflowError:
            scale = math.inf  # M(1, e + 2, -decay) > 0
        if isinstance(decay, np.ndarray):
            return scale * special.hyp1f1(1.0, expo + 2.0, -decay)
        return scale * kummer(decay)

    return window


def corpus_function(name: str, alpha: float, a: float = 0.0, T: float = 1.0) -> TestFunction:
    """Build the corpus entry ``name`` for order ``alpha`` on [a, a + T]."""
    m = math.ceil(_validate_order(alpha))
    if name in _POWER_EXPONENTS:
        p = _POWER_EXPONENTS[name]
        d_upper, sup = _power_derivative(p, m, a, T)
        d_upper_plus, sup_plus = _power_derivative(p, m + 1, a, T)
        # the Caputo derivative of (t - a)^p is its order-alpha power-law
        # derivative (zero for integer p below alpha); there is no closed
        # form when the m-th derivative is not integrable at a
        exact = singular = window = None
        if p == int(p) or p > m - 1:
            exact, _ = _power_derivative(p, alpha, a, T)
            window = _power_window(p, m)
        if p > m - 1:
            # d_upper(a + u) = coeff u^{p - m}, integrable at a since p - m > -1
            coeff = math.gamma(p + 1.0) / math.gamma(p - m + 1.0)
            singular = (p - m, lambda u, _c=coeff: _c)
        return TestFunction(
            name=name,
            d_upper=d_upper,
            d_upper_plus=d_upper_plus,
            exact_caputo=exact,
            d_upper_sup=sup,
            d_upper_plus_sup=sup_plus,
            singular_part=singular,
            window=window,
        )
    if name == "exp":

        def fn(t: float, _a: float = a) -> float:
            try:  # inline, as in _power_derivative
                return math.exp(t - _a)
            except OverflowError:
                return math.inf

        def window(span: float, decay: float) -> float:
            # e^S int_0^1 e^{-z v} dv = e^S (1 - e^{-z}) / z, real z = decay + S > 0
            try:
                scale = math.exp(span)
            except OverflowError:
                scale = math.inf
            z = decay + span
            expm1 = np.expm1 if isinstance(decay, np.ndarray) else math.expm1
            return scale * (-expm1(-z) / z)

        sup = fn(T, 0.0)  # e^T, inf where that overflows
        return TestFunction(
            name=name,
            d_upper=fn,
            d_upper_plus=fn,
            exact_caputo=None,
            d_upper_sup=sup,
            d_upper_plus_sup=sup,
            window=window,
        )
    if name == "sin":
        half_pi = 0.5 * math.pi

        def shifted(order: int) -> Callable[[float], float]:
            return lambda t, _s=order * half_pi, _a=a: math.sin(t - _a + _s)

        def window(span: float, decay: float, _turn: complex = 1j**m) -> float:
            # sin(x + m pi / 2) = Im i^m e^{ix}, so V = Im i^m e^{iS} J(decay + iS)
            turned = _turn * complex(math.cos(span), math.sin(span))
            return (turned * _unit_integral(decay + 1j * span)).imag

        return TestFunction(
            name=name,
            d_upper=shifted(m),
            d_upper_plus=shifted(m + 1),
            exact_caputo=None,
            window=window,
        )
    raise InvalidParameterError(f"unknown corpus function {name!r}; known: {corpus_names()}")


def make_problem(name: str, alpha: float, a: float = 0.0, T: float = 1.0) -> DerivativeProblem:
    """Wire a corpus entry into a ready-to-run problem."""
    fn = corpus_function(name, alpha, a=a, T=T)
    return DerivativeProblem(alpha=alpha, a=a, T=T, d_upper=fn.d_upper,
                             d_upper_plus=fn.d_upper_plus, singular_part=fn.singular_part,
                             window=fn.window)


def require_d_upper_plus(problem: DerivativeProblem) -> Callable[[float], float]:
    if problem.d_upper_plus is None:
        raise UnsupportedOperationError(
            "this operation needs the (ceil(alpha)+1)-th derivative, "
            "which the problem does not supply"
        )
    return problem.d_upper_plus
