"""A-stable one-step integration of the 2K auxiliary ODEs and the quadrature sum.

Each transformed node w carries the scalar linear ODE

    phi'(w, t) = -e^w phi(w, t) + c e^{w q} g(t),     phi(w, a) = 0,

with g the caller-supplied upper derivative.  The equations are linear with
constant coefficients, so the implicit backward-Euler and trapezoidal updates
are solved exactly by division: both are phi_n = A phi_{n-1} + Q c (g_n +
theta g_{n-1}), theta = 0 or 1.  |w| reaches several hundreds or more, so
the coefficients take a form in which an overflowed exponential gives no nan.

The derivative itself is the weighted sum over nodes, assembled from
ln a_k + x_k (the weights underflow and e^{x_k} overflows long before their
product stops being moderate).  One pass over the grid, state of 2K numbers.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import sub
from typing import Iterator

import numpy as np

from .diffusive import DerivativeProblem, DiffusiveSystem, TimeGrid, build_system
from .errors import EvaluationError, InvalidParameterError
from .quadrature import QuadratureRule
from .quadrature import truncate_rule  # noqa: F401 - perfbench/tracing.py rebinds this name

BACKWARD_EULER = "backward-euler"
TRAPEZOIDAL = "trapezoidal"
METHODS = (BACKWARD_EULER, TRAPEZOIDAL)


def _check_step(h: float, parts: float = 1.0) -> None:
    # parts = 2: the half step must not round to 0 either
    if not (math.isfinite(h) and h / parts > 0.0):
        raise InvalidParameterError(f"step size must be positive, got {h}")


def backward_euler_log_amplification(w, h: float):
    """ln of the backward-Euler amplification factor 1 / (1 + h e^w).

    Always finite and strictly negative, even where the factor itself
    underflows double precision.
    """
    _check_step(h)
    return -np.logaddexp(0.0, np.asarray(w, dtype=float) + math.log(h))


def _exponentials(system: DiffusiveSystem):
    """e^{-w}, e^{-qw} and e^{(1-q)w} of every mode; each may be inf."""
    w, q = system.exponents, system.fractional_part
    with np.errstate(over="ignore"):
        return np.exp(-w), np.exp(-q * w), np.exp((1.0 - q) * w)


def _coefficients(exponentials, method: str, steps):
    """(A, theta, Q) of each step of the given lengths, from B = 1 / (1 + s e^w).

    Backward Euler has s = h, A = B, theta = 0; the trapezoidal rule has
    s = h/2, A = 2B - 1, theta = 1.  Both have Q = s e^{wq} B, formed as
    s / (e^{-qw} + s e^{(1-q)w}).  With u = e^{-w}, 1 - B = s / (s + u); A is
    1 - (1 + theta)(1 - B), one rounding near 1 where slow modes compound it,
    but a backward-Euler A below 1/2 is u / (s + u), accurate where tiny.  As
    s > 0 is finite, no overflowed or underflowed exponential gives nan.
    """
    theta = 0.0 if method == BACKWARD_EULER else 1.0
    for h in steps:
        _check_step(h, 1.0 + theta)
    s = np.array(steps, dtype=float)[:, None] / (1.0 + theta)
    u, e_minus_qw, e_rest = exponentials
    with np.errstate(over="ignore", invalid="ignore"):
        total = s + u
        slow = s / total  # 1 - B
        if method == BACKWARD_EULER:
            amp = np.where(slow < 0.5, 1.0 - slow, u / total)
        else:
            amp = 1.0 - 2.0 * slow
        gain = s / (e_minus_qw + s * e_rest)
    return list(zip(amp, repeat(theta), gain))


#: most step lengths whose coefficients iter_solution forms in one call, or keeps
_CHUNK = 16


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise InvalidParameterError(f"unknown method {method!r}, expected one of {METHODS}")


def advance(
    phi: np.ndarray, system: DiffusiveSystem, method: str, h: float, g_prev: float, g_next: float
) -> np.ndarray:
    """One step of length h: the 2K values A phi + Q c (g_next + theta g_prev).

    ``g_prev`` and ``g_next`` are the forcing at the step's left and right
    ends; backward Euler has theta = 0 and so ignores ``g_prev``.
    """
    _check_method(method)
    [coefficients] = _coefficients(_exponentials(system), method, [h])
    return _update(phi, system.c, g_prev, g_next, *coefficients)


def _update(phi, c, g_prev, g_next, amp, theta, gain):
    return phi * amp + (c * (g_next + theta * g_prev)) * gain


def _check_grid(problem: DerivativeProblem, grid: TimeGrid) -> None:
    # rounding room: 1e-12 of the span plus 4 ulps of the largest |t|, as
    # uniform_grid's times miss a + n h by up to 2.2 ulps of that
    t0, t_end = grid.points[0], grid.points[-1]
    slack = 1e-12 * (t_end - t0) + 4.0 * math.ulp(max(abs(t0), abs(t_end)))
    if abs(t0 - problem.a) > slack or abs(t_end - problem.end) > slack:
        raise InvalidParameterError(
            f"grid endpoints [{t0}, {t_end}] do not match the "
            f"problem interval [{problem.a}, {problem.end}]"
        )


def iter_solution(
    problem: DerivativeProblem,
    rule: QuadratureRule,
    grid: TimeGrid,
    method: str = BACKWARD_EULER,
) -> Iterator[np.ndarray]:
    """Yield the 2K phi values (W_minus block, then W_plus) at every grid index.

    The first array is the read-only zero state.  Only one array is alive at
    a time, so a full sweep costs O(N K) time and O(K) memory regardless of
    the grid length.  To run on the first K* nodes
    only, pass ``truncate_rule(rule, K*)``.  d_upper is called once per grid
    time after a; the first step is backward Euler whatever the method (a
    Rannacher start), so no method reads d_upper(a) or keeps a start-up error.
    """
    _check_method(method)
    _check_grid(problem, grid)
    system = build_system(problem, rule)
    phi = np.zeros(2 * system.npoints)
    phi.setflags(write=False)
    yield phi
    # exact h -> (A, theta, Q), formed a chunk of steps per call: a uniform
    # grid has a handful of distinct rounded h, a graded one a new h at every
    # step; at most _CHUNK sets are kept, so the state stays O(K).  The first
    # step goes alone (it is backward Euler whatever the method); a chunk
    # that formed nothing lets the next one span 16 chunks, as long as it
    # holds at most _CHUNK distinct h
    exponentials, points, c = _exponentials(system), grid.points, system.c
    rows, step_method, g_prev, lo, span, last = {}, BACKWARD_EULER, 0.0, 0, 1, len(points) - 1
    while lo < last:
        hi = min(lo + span, last)
        times = points[lo : hi + 1].tolist()
        steps = list(map(sub, times[1:], times))
        distinct = set(steps)
        if len(distinct) > _CHUNK:
            span = _CHUNK
            continue
        new = list(distinct.difference(rows))
        if len(rows) + len(new) > _CHUNK:
            rows.clear()
            new = list(distinct)
        if new:
            rows.update(zip(new, _coefficients(exponentials, step_method, new)))
        for t_next, h in zip(times[1:], steps):
            try:
                g_next = float(problem.d_upper(t_next))
            except (OverflowError, ZeroDivisionError) as exc:
                raise EvaluationError(f"d_upper failed at t = {t_next}: {exc}") from exc
            if not math.isfinite(g_next):
                raise EvaluationError(f"d_upper returned a non-finite value at t = {t_next}")
            phi = _update(phi, c, g_prev, g_next, *rows[h])
            g_prev = g_next
            yield phi
        if lo == 0:
            rows, step_method = {}, method
        span = _CHUNK if new else 16 * _CHUNK
        lo = hi


def quadrature_coefficients(rule: QuadratureRule) -> np.ndarray:
    """a_k e^{x_k} for every node, via exp(ln a_k + x_k)."""
    return np.exp(rule.log_weights + rule.nodes)


def state_combination(q: float, phi: np.ndarray) -> np.ndarray:
    """Per-node folded values phi(-x_k/q)/q + phi(x_k/(1-q))/(1-q).

    ``q`` is the fractional part of the order.  This is e^{-x_k} times the
    folded integrand at x_k; the e^{x_k} factor lives in the coefficients.
    """
    k = len(phi) // 2
    return phi[:k] / q + phi[k:] / (1.0 - q)


def evaluate_derivative(
    problem: DerivativeProblem,
    rule: QuadratureRule,
    grid: TimeGrid,
    method: str = BACKWARD_EULER,
) -> np.ndarray:
    """Approximate the fractional derivative at every grid point.

    Returns N+1 values; the one at t_0 = a is exactly 0.  Each value is the
    Gauss-Laguerre sum over nodes of a_k e^{x_k} times the per-node state
    combination, with the a_k e^{x_k} products formed in log space.
    """
    coef = quadrature_coefficients(rule)
    q = problem.fractional_part
    # state_combination's per-node fold, taken into the weights: one dot per point
    weights = np.concatenate((coef / q, coef / (1.0 - q)))
    out = np.empty(len(grid.points))
    for n, phi in enumerate(iter_solution(problem, rule, grid, method=method)):
        out[n] = weights.dot(phi)
    out[0] = 0.0
    return out
