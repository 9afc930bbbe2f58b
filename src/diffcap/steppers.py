"""A-stable one-step integration of the 2K auxiliary ODEs and the quadrature sum.

Each transformed node w carries the scalar linear ODE

    phi'(w, t) = -e^w phi(w, t) + c e^{w q} g(t),     phi(w, a) = 0,

with g the caller-supplied upper derivative.  The equations are linear with
constant coefficients, so the implicit backward-Euler and trapezoidal updates
are solved exactly by division; no iteration is involved.  All coefficients
are evaluated through log-space expressions because the W_plus exponents reach
several hundreds.

The derivative itself is the weighted sum over nodes, assembled from
ln a_k + x_k (the weights underflow and e^{x_k} overflows long before their
product stops being moderate).  One pass over the grid, state of 2K numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .diffusive import DerivativeProblem, DiffusiveSystem, TimeGrid, build_system
from .errors import EvaluationError, InvalidParameterError
from .quadrature import QuadratureRule
from .quadrature import truncate_rule  # noqa: F401 - perfbench/tracing.py rebinds this name

BACKWARD_EULER = "backward-euler"
TRAPEZOIDAL = "trapezoidal"
METHODS = (BACKWARD_EULER, TRAPEZOIDAL)


@dataclass(frozen=True)
class SolverState:
    """Grid index plus the 2K phi values (W_minus block, then W_plus block)."""

    n: int
    phi: np.ndarray


def initial_state(system: DiffusiveSystem) -> SolverState:
    phi = np.zeros(2 * system.npoints)
    phi.setflags(write=False)
    return SolverState(n=0, phi=phi)


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


def trapezoidal_amplification(w, h: float):
    """Trapezoidal amplification (1 - h e^w / 2) / (1 + h e^w / 2) = -tanh(u/2).

    Bounded in (-1, 1] with the A-stability limit -1 as h e^w grows.
    """
    _check_step(h)
    u = np.asarray(w, dtype=float) + math.log(0.5 * h)
    return -np.tanh(0.5 * u)


def _forcing_value(problem: DerivativeProblem, t: float) -> float:
    g = float(problem.d_upper(t))
    if not math.isfinite(g):
        raise EvaluationError(f"d_upper returned a non-finite value at t = {t}")
    return g


def _advance(
    state: SolverState, system: DiffusiveSystem, amp, h_eff: float, log_decay, g: float
) -> SolverState:
    """phi <- A phi + h_eff c e^{w q} e^{log_decay} g, the gain formed in log space."""
    gain = np.exp(math.log(h_eff) + system.fractional_part * system.exponents + log_decay)
    return SolverState(n=state.n + 1, phi=state.phi * amp + (system.c * g) * gain)


def backward_euler_step(
    state: SolverState,
    system: DiffusiveSystem,
    problem: DerivativeProblem,
    t_next: float,
    h: float,
) -> SolverState:
    """One implicit Euler step: phi <- (phi + h c e^{w q} g(t_next)) / (1 + h e^w)."""
    log_amp = backward_euler_log_amplification(system.exponents, h)
    g = _forcing_value(problem, t_next)
    return _advance(state, system, np.exp(log_amp), h, log_amp, g)


def trapezoidal_step(
    state: SolverState,
    system: DiffusiveSystem,
    problem: DerivativeProblem,
    t_next: float,
    h: float,
) -> SolverState:
    """One trapezoidal step, forcing averaged over both interval endpoints."""
    amp = trapezoidal_amplification(system.exponents, h)
    # t_next - h may round below the previous grid time; a is the lowest time d_upper sees
    g = _forcing_value(problem, max(t_next - h, problem.a)) + _forcing_value(problem, t_next)
    # the forcing gain (h/2) c e^{w q} / (1 + h e^w / 2) holds the half step's Euler factor
    log_decay = backward_euler_log_amplification(system.exponents, 0.5 * h)
    return _advance(state, system, amp, 0.5 * h, log_decay, g)


_STEP_FUNCTIONS = {BACKWARD_EULER: backward_euler_step, TRAPEZOIDAL: trapezoidal_step}


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
) -> Iterator[SolverState]:
    """Yield the solver state at every grid index, starting from the zero state.

    Only one state is alive at a time, so a full sweep costs O(N K) time and
    O(K) memory regardless of the grid length.  To run on the first K* nodes
    only, pass ``truncate_rule(rule, K*)``.
    """
    if method not in _STEP_FUNCTIONS:
        raise InvalidParameterError(f"unknown method {method!r}, expected one of {METHODS}")
    _check_grid(problem, grid)
    system = build_system(problem, rule)
    step = _STEP_FUNCTIONS[method]
    state = initial_state(system)
    yield state
    points = grid.points
    for n in range(1, len(points)):
        t_next = float(points[n])
        state = step(state, system, problem, t_next, t_next - float(points[n - 1]))
        yield state


def quadrature_coefficients(rule: QuadratureRule) -> np.ndarray:
    """a_k e^{x_k} for every node, via exp(ln a_k + x_k)."""
    return np.exp(rule.log_weights + rule.nodes)


def state_combination(q: float, state: SolverState) -> np.ndarray:
    """Per-node folded values phi(-x_k/q)/q + phi(x_k/(1-q))/(1-q).

    ``q`` is the fractional part of the order.  This is e^{-x_k} times the
    folded integrand at x_k; the e^{x_k} factor lives in the coefficients.
    """
    k = len(state.phi) // 2
    return state.phi[:k] / q + state.phi[k:] / (1.0 - q)


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
    out = np.empty(len(grid.points))
    for state in iter_solution(problem, rule, grid, method=method):
        out[state.n] = coef @ state_combination(q, state)
    out[0] = 0.0
    return out
