"""Ground-truth machinery, independent of the Gauss-Laguerre scheme.

Three reference routes are provided:

* ``exact_phi`` evaluates the auxiliary-ODE solution at a fixed time through
  its closed integral form (the derivative data convolved with a pure
  exponential), from one window routine: the problem's declared ``window``,
  bound to the span t - a, else quadrature on an analytically clipped window.
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
and the outer w-integral stay independent routes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .corpus import _LazyModule
from .corpus import corpus_function, make_problem  # noqa: F401 - perfbench reads and rebinds both
from .diffusive import DerivativeProblem
from .errors import InvalidParameterError, OracleError

TOL_MIN = 1e-14
TOL_MAX = 1e-6
_TOL_FLOOR, _TOL_CEIL = 1e-300, 1e6  # _bounded_exp's clamp of derived tolerances

#: decay lengths kept when clipping the boundary-layer window; exp(-40) is
#: below double resolution of the remaining integral
_CLIP_LENGTHS = 40.0
#: times per window call in ``_combinations``, so a walk's extra memory is O(K)
_CHUNK = 64

#: a module attribute, not a per-call import, so perfbench/tracing.py can rebind it
integrate = _LazyModule("scipy.integrate")

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


def _quadrature_value(problem: DerivativeProblem, t: float, decay: float, log_tol: float) -> float:
    """V(decay) at span S = t - a by adaptive quadrature, for data that declares no window.

    V = int_0^1 d_upper(lo + length (1 - v)) exp(-decay v) dv, which times
    ``length`` is W(r) = int_a^t d_upper(tau) e^{-(t - tau) r} dtau on [lo, t],
    is integrated to e^{log_tol} / (1 + decay), so (1 + decay) V, which stays
    within the data's range, meets e^{log_tol}.  Up to decay 40 the window is
    full: length S and lo = a exactly, so tau - a keeps its precision where
    data singular at a is steepest.  Past it, V is share = 40 / decay times
    the window clipped to length share S at decay 40, lo = max(t - length, a),
    so every sample is well conditioned however thin the boundary layer; at
    length 0 every sample lies at tau = t.  Where the problem declares
    d_upper(a + u) = u^sigma r(u), a full window is length^sigma times a QAWS
    integral of r(length (1 - v)) e^{-decay v} against the weight
    (1 - v)^sigma, so QUADPACK need not bisect toward the singularity at
    tau = a; length^sigma is carried in logs, and so is the target it divides.
    """
    a, share = problem.a, 1.0
    length, log_tol = t - a, log_tol - math.log1p(decay)
    if decay > _CLIP_LENGTHS:
        share = _CLIP_LENGTHS / decay
        length, decay, log_tol = share * length, _CLIP_LENGTHS, log_tol - math.log(share)
    if length == t - a and problem.singular_part is not None:
        sigma, r = problem.singular_part
        log_factor = sigma * math.log(length)
        raw = _adaptive_integral(lambda v: r(length * (1.0 - v)) * math.exp(-decay * v),
                                 0.0, 1.0, _bounded_exp(log_tol - log_factor),
                                 weight="alg", wvar=(0.0, sigma))
        return share * _scaled(raw, log_factor)
    lo = a if length == t - a else max(t - length, a)
    g = problem.d_upper
    return share * _adaptive_integral(lambda v: g(lo + length * (1.0 - v)) * math.exp(-decay * v),
                                      0.0, 1.0, _bounded_exp(log_tol))


def _finite(value: float, t: float) -> float:
    """A window value or d_upper(t) as a float; OracleError where it is not finite."""
    if not math.isfinite(value):
        raise OracleError(f"window or d_upper value at t = {t} is {value}, not a finite number")
    return float(value)


def _phi(problem: DerivativeProblem, w: np.ndarray, times: list[float],
         log_tol: float | np.ndarray) -> np.ndarray:
    """phi(w, t) = c e^{w q} S V_S(S e^w), S = t - a, a row per time and a column per w.

    V is the declared window, bound once to the column of spans and called
    once for all decays up to 2^60, else one ``_quadrature_value`` per time
    and decay, each phi to e^{log_tol} (a float, or one target per w).  Past
    decay 2^60 phi is its boundary-layer limit c d_upper(t) e^{-(1 - q) w},
    so no quadrature is thrown away.  The magnitude is formed in logs, +-inf
    past double range; w = +-inf and t = a give 0.  A V or d_upper(t) that is
    not finite raises ``OracleError`` naming its earliest t.
    """
    a, q = problem.a, problem.fractional_part
    phi, live = np.zeros((len(times), len(w))), np.array(times) > a
    times = [t for t in times if t > a]
    if not times:
        return phi
    spans = np.array(times)[:, None] - a
    log_spans = np.array([math.log(t - a) for t in times])[:, None]
    log_c, log_decay = math.log(abs(problem.prefactor)), w + log_spans
    past = log_decay > _LOG_LIMIT_DECAY
    decay = np.exp(np.minimum(log_decay, _LOG_LIMIT_DECAY))
    log_scale = np.where(past, log_c - (1.0 - q) * w, log_c + q * w + log_spans)
    if problem.window is not None:
        raw = problem.window(spans)(decay)
    else:
        raw = np.zeros_like(decay)
        targets = log_tol - log_scale + np.log1p(decay)  # V's targets, per w
        for row, (t, near) in enumerate(zip(times, ~past)):  # near: decay at most 2^60
            raw[row, near] = [_quadrature_value(problem, t, d, log_v) for d, log_v
                              in zip(decay[row, near].tolist(), targets[row, near].tolist())]
    if past.any():
        limits = [[problem.d_upper(t) if row.any() else 0.0] for t, row in zip(times, past)]
        raw = np.where(past, limits, raw)
    bad = ~np.isfinite(raw)
    if bad.any():
        _finite(raw[bad][0], times[np.nonzero(bad)[0][0]])  # raises, naming the earliest time
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf; exp past range = inf
        phi[live] = np.copysign(np.exp(log_scale + np.log(np.abs(raw))), raw)
    return phi


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
    return float(_phi(problem, np.array([float(w)]), [t], math.log(tol))[0, 0])


def _combinations(problem: DerivativeProblem, rule, times: list[float], budget: float):
    """``exact_combination`` at times in [a, a + T], a (times x K) array per ``_CHUNK``."""
    q, npoints = problem.fractional_part, len(rule.nodes)
    w = np.concatenate((-rule.nodes / q, rule.nodes / (1.0 - q)))
    split = math.log(budget) + math.log(min(q, 1.0 - q)) - math.log(4.0 * npoints)
    node_log_tols = np.tile(split - (rule.log_weights + rule.nodes), 2)
    for start in range(0, len(times), _CHUNK):
        phi = _phi(problem, w, times[start:start + _CHUNK], node_log_tols)
        yield phi[:, :npoints] / q + phi[:, npoints:] / (1.0 - q)


def exact_combination(problem: DerivativeProblem, rule, t: float, budget: float) -> np.ndarray:
    """Per-node reference values of e^{-x_k} times the folded integrand at x_k.

    ``rule`` supplies ``nodes`` x_k and ``log_weights`` ln a_k, and all 2K
    values of phi come from one ``_phi`` call, as in a walk's ``_combinations``.
    The weighted sum over all nodes, with weights a_k e^{x_k}, stays within
    ``budget``, which must lie in [TOL_MIN, TOL_MAX]: on the quadrature
    route, node targets split it.
    """
    budget = _validate_tol(budget)
    t = _validate_time(problem, t)
    return next(_combinations(problem, rule, [t], budget))[0]


def reference_quadrature(problem: DerivativeProblem, t: float, tol: float = 1e-10) -> float:
    """High-accuracy derivative value via the diffusive integral itself.

    The derivative is int phi(w, t) dw over the whole w line, with
    phi(w, t) = c e^{q w} s V_s(s e^w) as in ``_phi``.  In the logistic
    variable x, e^w = x / ((1 - x) s) with s = t - a, so that
    dw = dx / (x (1 - x)) and x = 1/2 is e^w = 1/s:

        c s^{-q} int_0^1 x^{q-1} (1 - x)^{-q} F(x) dx,  F(x) = s V_s(d) / (1 - x),

    with decay d = x / (1 - x) on every span, and V_s bound to s once per
    call.  F is smooth on [0, 1] and finite at both ends (F(0) = s V_s(0) is
    the integral of d_upper, F(1) = s d_upper(t)), so this is one QAWS
    integral (``weight="alg"``) with no cut of the w range.  (1 - x) F(0) is
    taken out in closed form, c int x^{q-1} (1 - x)^{1-q} dx = 1 - q, so the
    exponent q - 1, which QAWS rounds as (q - 1) + 1, weights a function that
    vanishes at 0; both terms use the same F(0), so its error cancels to
    first order.  The outer integral takes a quarter of tol and the F values
    the rest: c int x^{q-1} (1 - x)^{-q} dx = 1, so an F error delta moves
    the value by delta s^{-q}; F = s (1 + d) V_s, so ``_quadrature_value``
    takes V_s to 0.75 tol s^q / s.  The returned value carries an estimated
    error of at most about tol.
    """
    tol = _validate_tol(tol)
    t = _validate_time(problem, t)
    if t == problem.a:
        return 0.0
    q, c = problem.fractional_part, problem.prefactor
    s = t - problem.a
    log_scaled = math.log(tol) + q * math.log(s)  # ln(tol s^q)
    log_v = log_scaled + math.log(0.75) - math.log(s)
    window = (problem.window(s) if problem.window is not None
              else lambda decay: _quadrature_value(problem, t, decay, log_v))
    # at x = 1 the boundary-layer limit (1 + d) V -> d_upper(t)
    f0, f1 = s * _finite(window(0.0), t), s * _finite(problem.d_upper(t), t)

    def integrand(x: float) -> float:
        if x == 1.0:
            return f1
        value = window(x / (1.0 - x))
        if not math.isfinite(value):
            _finite(value, t)  # raises
        return s / (1.0 - x) * float(value) - (1.0 - x) * f0

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
