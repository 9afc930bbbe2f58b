"""A-stable one-step integration of the 2K auxiliary ODEs and the quadrature sum.

Each transformed node w carries the scalar linear ODE

    phi'(w, t) = -e^w phi(w, t) + c e^{w q} g(t),     phi(w, a) = 0,

with g the caller-supplied upper derivative.  The equations are linear with
constant coefficients, so the implicit backward-Euler and trapezoidal updates
are solved exactly by division: both are phi_n = A phi_{n-1} + Q c (g_n +
theta g_{n-1}), theta = 0 or 1.  All coefficients are evaluated through
log-space expressions because the W_plus exponents reach several hundreds.

The derivative itself is the weighted sum over nodes, assembled from
ln a_k + x_k (the weights underflow and e^{x_k} overflows long before their
product stops being moderate).  One pass over the grid, state of 2K numbers.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .diffusive import DerivativeProblem, DiffusiveSystem, TimeGrid, build_system
from .errors import EvaluationError, InvalidParameterError
from .quadrature import QuadratureRule
from .quadrature import truncate_rule  # noqa: F401 - perfbench/tracing.py rebinds this name

BACKWARD_EULER = "backward-euler"
TRAPEZOIDAL = "trapezoidal"
METHODS = (BACKWARD_EULER, TRAPEZOIDAL)


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise InvalidParameterError(f"step size must be positive, got {h}")


def backward_euler_log_amplification(w, h: float):
    """ln of the backward-Euler amplification factor 1 / (1 + h e^w).

    Always finite and strictly negative, even where the factor itself
    underflows double precision.
    """
    _check_step(h)
    return -np.logaddexp(0.0, np.asarray(w, dtype=float) + math.log(h))


def _coefficients(system: DiffusiveSystem, method: str, h: float):
    """(A, theta, Q) of one step of length h, from B = 1 / (1 + s e^w).

    Backward Euler has s = h, A = B, theta = 0; the trapezoidal rule has
    s = h/2, A = 2B - 1 = (1 - s e^w) / (1 + s e^w), theta = 1.  Both have
    Q = s e^{w q} B.
    """
    _check_step(h)
    s = h if method == BACKWARD_EULER else 0.5 * h
    log_b = backward_euler_log_amplification(system.exponents, s)
    gain = np.exp(math.log(s) + system.fractional_part * system.exponents + log_b)
    b = np.exp(log_b)
    if method == BACKWARD_EULER:
        return b, 0.0, gain
    return 2.0 * b - 1.0, 1.0, gain


#: step coefficient sets one iter_solution call keeps
_MEMO_SIZE = 32


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
    return _update(phi, system.c, g_prev, g_next, *_coefficients(system, method, h))


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
    # (method, exact h) -> (A, theta, Q): a uniform grid has a handful of
    # distinct rounded step lengths, a graded one a new h at every step, so
    # the memo stops growing at a fixed size and the state stays O(K)
    memo = {}
    step_method, g_prev, t_prev = BACKWARD_EULER, 0.0, float(grid.points[0])
    for t in grid.points[1:]:
        t_next = float(t)
        try:
            g_next = float(problem.d_upper(t_next))
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvaluationError(f"d_upper failed at t = {t_next}: {exc}") from exc
        if not math.isfinite(g_next):
            raise EvaluationError(f"d_upper returned a non-finite value at t = {t_next}")
        h = t_next - t_prev
        coefficients = memo.get((step_method, h))
        if coefficients is None:
            coefficients = _coefficients(system, step_method, h)
            if len(memo) < _MEMO_SIZE:
                memo[step_method, h] = coefficients
        phi = _update(phi, system.c, g_prev, g_next, *coefficients)
        step_method, g_prev, t_prev = method, g_next, t_next
        yield phi


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
