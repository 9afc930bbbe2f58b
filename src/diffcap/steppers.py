"""A-stable one-step integration of the 2K auxiliary ODEs and the quadrature sum.

Each transformed node w carries the scalar linear ODE

    phi'(w, t) = -e^w phi(w, t) + c e^{w q} g(t),     phi(w, a) = 0,

with g the caller-supplied upper derivative.  The equations are linear with
constant coefficients, so the implicit backward-Euler and trapezoidal updates
are solved exactly by division: both are phi_n = A phi_{n-1} + Q c f_n with
the forcing sum f_n = g_n + theta g_{n-1}, theta = 0 or 1.  |w| reaches
several hundreds or more, so the coefficients take a form in which an
overflowed exponential gives no nan.

The derivative itself is the weighted sum ``system.weights @ phi`` over the
2K modes; build_system forms those fold weights from ln a_k + x_k.

One loop walks the grid with a state of 2K numbers, or, for the folded
stream, of the modes that move at this grid's steps and span plus one
column per frozen set (stiff, or slow).  It takes the first step alone,
then passes of several steps; each pass samples its forcing as one checked
array, forms its sums f_i once, and is of one of two kinds.  A table pass
forms the (A, Q) of its steps as two tables, then takes two array
operations a step.  A block pass serves the folded stream on a grid of one
step length h, where a block of m steps has a closed form: phi_{n+j} =
A^j phi_n + sum_{i<=j} A^{j-i} Q c f_i, so y_{n+j} = weights . phi_{n+j} is
one (m x 2K) table times phi_n plus a lower-triangular Toeplitz kernel times
the m sums, and phi_{n+m} is A^m phi_n plus one more (m x 2K) product (the
sum-of-exponentials blocks of Lubich & Schaedle, SIAM J. Sci. Comput. 24(1),
2002).  A pass lays up to sixteen blocks' sums out as rows, one product each.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .diffusive import DerivativeProblem, DiffusiveSystem, TimeGrid, build_system
from .errors import EvaluationError, InvalidParameterError
from .quadrature import QuadratureRule
from .quadrature import quadrature_coefficients, truncate_rule  # noqa: F401 - perfbench rebinds both

BACKWARD_EULER = "backward-euler"
TRAPEZOIDAL = "trapezoidal"
METHODS = (BACKWARD_EULER, TRAPEZOIDAL)


def _check_step(h: float, parts: float = 1.0) -> None:
    # parts = 2: the half step must not round to 0 either
    if not (h / parts > 0.0 and h < math.inf):
        raise InvalidParameterError(f"step size must be positive, got {float(h)}")


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


def _collapse(system: DiffusiveSystem, method: str, points: np.ndarray, h_min: float):
    """The exponentials and weights of the modes that move, plus a column per frozen set.

    A mode is frozen when dropping its term moves its phi by under 1e-17
    relative over the run: a slow one (T e^w <= 1e-17) has A = 1 and
    Q = s e^{qw}; a stiff one has Q = e^{-(1-q)w} and A = 0 (backward Euler,
    h e^w >= 1e17) or -1 (trapezoidal; A + 1 = 4 / (h e^w) compounds over N
    steps, so h e^w >= 4e17 N).  Each set steps as its member of largest phi,
    the others' weights scaled onto it, so no column overflows where its
    members do not.  h_min is the smallest of the grid's steps.
    """
    w, q, weights = system.exponents, system.fractional_part, system.weights
    u, e_minus_qw, e_rest = _exponentials(system)
    log_h = math.log(h_min) - (math.log(4.0 * (len(points) - 1)) if method == TRAPEZOIDAL else 0.0)
    slow = w <= math.log(1e-17) - math.log(points[-1] - points[0])
    stiff = w >= math.log(1e17) - log_h
    moving = ~(slow | stiff)
    columns = [(u[moving], e_minus_qw[moving], e_rest[moving], weights[moving])]
    if slow.any():
        scale = np.exp(q * (w[slow] - w[slow].max()))
        columns.append(([np.inf], [e_minus_qw[slow].min()], [0.0], [weights[slow].dot(scale)]))
    if stiff.any():
        scale = np.exp((q - 1.0) * (w[stiff] - w[stiff].min()))
        columns.append(([0.0], [0.0], [e_rest[stiff].min()], [weights[stiff].dot(scale)]))
    u, e_minus_qw, e_rest, weights = np.hstack(columns)
    return (u, e_minus_qw, e_rest), weights


def _coefficients(exponentials, method: str, steps):
    """(A, Q) of the given step lengths, one row each, from B = 1 / (1 + s e^w).

    Backward Euler has s = h, A = B, theta = 0; the trapezoidal rule has
    s = h/2, A = 2B - 1, theta = 1.  Both have Q = s e^{wq} B, formed as
    s / (e^{-qw} + s e^{(1-q)w}).  With u = e^{-w}, 1 - B = s / (s + u); A is
    1 - (1 + theta)(1 - B), one rounding near 1 where slow modes compound it,
    but a backward-Euler A below 1/2 is u / (s + u), accurate where tiny.  As
    s > 0 is finite, no overflowed or underflowed exponential gives nan.
    """
    theta = 0.0 if method == BACKWARD_EULER else 1.0
    s = np.asarray(steps, dtype=float)[:, None] / (1.0 + theta)
    u, e_minus_qw, e_rest = exponentials
    total = s + u
    slow = s / total  # 1 - B
    # in place, but broadcasting buffers: a pass peaks near four of its tables
    if method == BACKWARD_EULER:
        amp = np.divide(u, total, out=total)
        np.subtract(1.0, slow, out=amp, where=slow < 0.5)
    else:
        amp = np.subtract(1.0, 2.0 * slow, out=total)
    gain = np.multiply(s, e_rest, out=slow)
    gain += e_minus_qw
    return amp, np.divide(s, gain, out=gain)


#: steps of one pass of the phi stream, whose tables have 2K columns
_CHUNK = 16
#: steps of one table pass of the folded stream, and of one block of a block pass
_BLOCK = 32
#: blocks of one block pass, which share its fixed costs; more outgrow the heap bound
_PASS_BLOCKS = 16
#: largest |step - T/N| / (T/N) of a grid that block passes step as uniform
_UNIFORM_SPREAD = 3e-11


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
    _check_step(h, 2.0 if method == TRAPEZOIDAL else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        [amp], [gain] = _coefficients(_exponentials(system), method, [h])
    f = g_next + g_prev if method == TRAPEZOIDAL else g_next
    return phi * amp + (system.c * f) * gain


def _check_grid(problem: DerivativeProblem, grid: TimeGrid) -> None:
    # 1e-12 of the span (scaled first: t_end - t0 may overflow) plus 4 ulps of the largest
    # |t|, as uniform_grid's times miss a + n h by up to 2.2 ulps; Python floats never warn
    t0, t_end = float(grid.points[0]), float(grid.points[-1])
    slack = 1e-12 * t_end - 1e-12 * t0 + 4.0 * math.ulp(max(abs(t0), abs(t_end)))
    if abs(t0 - problem.a) > slack or abs(t_end - problem.end) > slack:
        raise InvalidParameterError(
            f"grid endpoints [{t0}, {t_end}] do not match the "
            f"problem interval [{problem.a}, {problem.end}]"
        )


def _sample_forcing(d_upper, times) -> np.ndarray:
    """d_upper at ``times``, called once each in order: one float64 array if all are finite
    bools, integers or floats of at most 8 bytes (each then converts as float(+v) does),
    else each value is checked as float(+v) (+ rejects text) up to the first bad time."""
    values, failure = [], None
    try:
        for t in times:
            values.append(d_upper(t))
        g = np.array(values)
        if g.ndim == 1 and g.dtype.kind in "biuf" and g.dtype.itemsize <= 8:
            g = g.astype(float, copy=False)
            if np.isfinite(g).all():
                return g
    except (OverflowError, ZeroDivisionError, TypeError, ValueError) as exc:
        failure = exc
    for i, (t, v) in enumerate(zip(times, values)):
        try:
            if getattr(v, "ndim", 0) != 0:  # not left to float(), which may only warn
                raise TypeError("only 0-dimensional arrays can be converted to Python scalars")
            values[i] = float(+v)
        except (OverflowError, ZeroDivisionError, TypeError, ValueError) as exc:
            raise EvaluationError(f"d_upper failed at t = {t}: {exc}") from exc
        if not math.isfinite(values[i]):
            raise EvaluationError(f"d_upper returned a non-finite value at t = {t}")
    if len(values) < len(times):
        raise EvaluationError(f"d_upper failed at t = {times[len(values)]}: {failure}") from failure
    return np.array(values)


def iter_solution(
    problem: DerivativeProblem,
    rule: QuadratureRule,
    grid: TimeGrid,
    method: str = BACKWARD_EULER,
    *,
    folded: bool = False,
) -> Iterator[np.ndarray | float]:
    """An iterator over the 2K phi values (W_minus block, then W_plus) at every grid index.

    The first array is the read-only zero state.  To run on the first K*
    nodes only, pass ``truncate_rule(rule, K*)``.  Nothing runs or is checked
    before the first ``next``.  d_upper is called once per grid time after a,
    in order, with a Python float, each pass's times before that pass yields
    (a bad value lets the rest of its pass, up to 511 calls, run before it is
    named); the first step is backward Euler whatever the method (a Rannacher
    start), so no method reads d_upper(a) or keeps a start-up error.

    With ``folded=True`` it yields the Python float derivative values instead,
    the first one included: each phi folded with the system's weights.  That
    stream steps only the modes that move over this grid: the frozen slow and
    stiff modes ride in one summed column each (see _collapse), so its values
    match the fold of each phi to rounding.

    After the first step, which goes alone, the grid is walked in passes of
    _BLOCK = 32 steps on the folded stream and _CHUNK = 16 on the phi stream.
    A folded stream whose grid steps all lie within a relative 3e-11 of T/N
    takes block passes of up to _PASS_BLOCKS = 16 such blocks, a few matrix
    products each with closed-form tables built once per call; every other
    pass is a table pass (see _table_pass).  So at most one pass's forcing,
    values and tables are alive at a time, and a sweep costs O(N K) time and
    O(K) memory at any grid length.  The passes are chained in C, so Python
    runs only between them.  A phi or value that is not finite raises
    EvaluationError naming its grid time before its pass yields anything, a
    trapezoidal half step that rounds to 0 InvalidParameterError at once.
    """
    return itertools.chain.from_iterable(_passes(problem, rule, grid, method, folded))


def _passes(problem, rule, grid, method: str, folded: bool):
    """iter_solution's values, one iterable per pass: phi rows or a memoryview of floats."""
    _check_method(method)
    _check_grid(problem, grid)
    system = build_system(problem, rule)
    points, steps, last = grid.points, grid.steps, grid.n_steps
    if method == TRAPEZOIDAL and last > 1:  # the first step is backward Euler
        _check_step(steps[1:].min(), 2.0)
    if folded:
        h, h_min = (points[-1] - points[0]) / last, steps.min()
        nominal = h if max(steps.max() - h, h - h_min) <= _UNIFORM_SPREAD * h < math.inf else None
        exponentials, weights = _collapse(system, method, points, h_min)
    else:
        exponentials, nominal, weights = _exponentials(system), None, None
    c, d_upper = system.c, problem.d_upper
    phi = np.zeros(len(exponentials[0]))
    phi.setflags(write=False)
    yield (phi if weights is None else float(weights.dot(phi)),)
    with np.errstate(over="ignore", invalid="ignore"):  # the coefficients may overflow
        tables = None if nominal is None or last < 2 else _block_tables(
            exponentials, c, method, nominal, weights, min(_BLOCK, last - 1))
    step_method, g_prev, lo = BACKWARD_EULER, 0.0, 0
    while lo < last:
        size = (1 if lo == 0 else _CHUNK if weights is None else _BLOCK if tables is None
                else _PASS_BLOCKS * _BLOCK)
        hi = min(lo + size, last)
        times = memoryview(points)[lo + 1 : hi + 1]
        g = _sample_forcing(d_upper, times)
        with np.errstate(over="ignore", invalid="ignore"):  # a sum of two finite g may overflow
            f = g + np.concatenate(([g_prev], g[:-1])) if step_method == TRAPEZOIDAL else g
            g_prev = g[-1]
            # a block pass would spread an overflowed sum's inf as 0 * inf = nan over its block
            if lo == 0 or tables is None or not np.isfinite(f).all():
                values, phi = _table_pass(phi, exponentials, c, step_method, steps[lo:hi], f, weights)
            else:  # sums as block rows, zero-padded at the grid's end; phi moves on if a pass follows
                fold, kernel, carry, decay = tables
                forcing = np.concatenate((f, np.zeros(-len(f) % len(fold)))).reshape(-1, len(fold))
                drive = forcing[:, ::-1] @ carry
                states = np.concatenate(([phi], drive[: len(drive) - (hi == last)]))
                for state, start in zip(states, states[1:]):
                    start += decay * state
                values = (states[: len(forcing)] @ fold.T + forcing @ kernel.T).ravel()[: hi - lo]
                phi = states[-1]
        if not np.isfinite(values).all():
            bad = next(t for t, v in zip(times, values) if not np.isfinite(v).all())
            raise EvaluationError(f"the solution is not finite at t = {bad}")
        yield values if weights is None else memoryview(values)
        step_method, lo = method, hi


def _table_pass(phi, exponentials, c: float, method: str, steps, f, weights):
    """The states after each of ``steps``, or their folded values, and the last state.

    The (A, Q) of these grid steps form two tables; each step overwrites its A
    row with phi A + Q c f_i in the two roundings of ``advance``, so the states
    (rows of one array) are byte-identical to its loop.
    """
    rows, drives = _coefficients(exponentials, method, steps)
    drives *= (c * f)[:, None]
    for amp, drive in zip(rows, drives):
        phi = np.multiply(phi, amp, out=amp)
        phi += drive
    return rows if weights is None else rows @ weights, phi.copy()


def _block_tables(exponentials, c: float, method: str, h: float, weights: np.ndarray, rows: int):
    """(fold, kernel, carry, decay): the tables that take ``rows`` steps of length h at once.

    With phi the state before the run and f_i = g_i + theta g_{i-1} its
    forcing sums, the folded values after steps 1..rows are
    fold phi + kernel f, and the state after them is decay phi + f reversed
    . carry.  fold_j = weights A^j, decay = A^rows, carry_l = c Q A^l, and
    kernel is the lower-triangular Toeplitz matrix of kappa_l = weights . carry_l.
    """
    [amp], [gain] = _coefficients(exponentials, method, [h])
    # both tables are running products down their rows, formed in place: an
    # operand broadcast over a table would cost numpy a temporary of its size
    fold, carry = np.empty((rows, len(amp))), np.empty((rows, len(amp)))
    fold[:], carry[:] = amp, amp
    fold[0] *= weights
    carry[0] = c * gain
    np.multiply.accumulate(fold, axis=0, out=fold)
    np.multiply.accumulate(carry, axis=0, out=carry)
    lag = np.subtract.outer(np.arange(rows), np.arange(rows))
    kernel = np.where(lag >= 0, (carry @ weights)[lag], 0.0)
    return fold, kernel, carry, amp**rows


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
    # iter_solution's folded stream, method by keyword: perfbench/tracing.py
    # reads a second positional argument as K*
    values = iter_solution(problem, rule, grid, method=method, folded=True)
    return np.fromiter(values, float, len(grid.points))
