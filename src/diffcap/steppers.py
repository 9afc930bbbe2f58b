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
then passes of several steps; each pass samples its forcing into one
buffer, in checked pieces of at most 512 values, forms its sums f_i there
once, and is of one of two kinds.  A table pass forms the (A, Q) of its
steps as two tables, then takes two array operations a step.  A block pass
serves the folded stream on a grid of one step length h, where a block of
m steps has a closed form: phi_{n+j} = A^j phi_n + sum_{i<=j} A^{j-i} Q c f_i,
so y_{n+j} = weights . phi_{n+j} is one (m x 2K) table times phi_n plus a
lower-triangular Toeplitz kernel times the m sums, and phi_{n+m} is A^m phi_n
plus one more (m x 2K) product (the sum-of-exponentials blocks of Lubich &
Schaedle, SIAM J. Sci. Comput. 24(1), 2002).  A pass lays up to thirty-two
blocks' sums out as rows, one product each, and finds its block-start states
by rounds of doubling on that recurrence.
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
    # one row per quantity, one column per mode and then one per frozen set
    table, keep = np.empty((4, len(w) + 2)), np.append(~(slow | stiff), (slow.any(), stiff.any()))
    table[:, :-2] = u, e_minus_qw, e_rest, weights
    if keep[-2]:
        scale = np.exp(q * (w[slow] - w[slow].max()))
        table[:, -2] = np.inf, e_minus_qw[slow].min(), 0.0, weights[slow].dot(scale)
    if keep[-1]:
        scale = np.exp((q - 1.0) * (w[stiff] - w[stiff].min()))
        table[:, -1] = 0.0, 0.0, e_rest[stiff].min(), weights[stiff].dot(scale)
    u, e_minus_qw, e_rest, weights = table.compress(keep, axis=1)
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
_PASS_BLOCKS = 32
#: the shifts of the doubling rounds that turn a block pass's increments into its states
_SHIFTS = tuple(1 << k for k in range(_PASS_BLOCKS.bit_length()))
#: forcing values sampled at a time into a pass's buffer, so few Python floats live at once
_PIECE = 512
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
    in order, with a Python float, each pass's times before that pass yields.
    A pass samples its times in pieces of _PIECE = 512, each checked as one
    float array, so a bad value lets the rest of its piece, up to 511 calls,
    run before it is named, and no later piece is called.  The first step is
    backward Euler whatever the method (a Rannacher start), so no method reads
    d_upper(a) or keeps a start-up error.

    With ``folded=True`` it yields the Python float derivative values instead,
    the first one included: each phi folded with the system's weights.  That
    stream steps only the modes that move over this grid: the frozen slow and
    stiff modes ride in one summed column each (see _collapse), so its values
    match the fold of each phi to rounding.

    After the first step, which goes alone, the grid is walked in passes of
    _BLOCK = 32 steps on the folded stream and _CHUNK = 16 on the phi stream.
    A folded stream whose grid steps all lie within a relative 3e-11 of T/N
    takes block passes of up to _PASS_BLOCKS = 32 such blocks (1024 steps), a
    few matrix products each with closed-form tables built once per call;
    every other pass is a table pass (see _table_pass).  A block pass takes
    every step as T/N, so on a grid whose steps spread by up to that 3e-11 of
    T/N the values can move by about the spread times max|value|.  At most one
    pass's forcing, values and tables are alive at a time, and a sweep costs
    O(N K) time and O(K) memory at any grid length.  The passes are chained in
    C, so Python runs only between them.  A phi or value that is not finite
    raises EvaluationError naming its grid time before its pass yields
    anything; a pass stops at its first overflowed trapezoidal sum.  A half
    step that rounds to 0 raises InvalidParameterError at once.
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
    size = _CHUNK if weights is None else _BLOCK if tables is None else _PASS_BLOCKS * _BLOCK
    # each pass's forcing sums, and a block pass's block-start states, overwrite these
    forcing = np.zeros(size)
    states = None if tables is None else np.empty((_PASS_BLOCKS + 1, len(weights)))
    step_method, g_prev, lo = BACKWARD_EULER, 0.0, 0
    while lo < last:
        hi = min(lo + (1 if lo == 0 else size), last)
        times = memoryview(points)[lo + 1 : hi + 1]
        f = forcing[: hi - lo]
        for start in range(0, hi - lo, _PIECE):
            f[start : start + _PIECE] = _sample_forcing(d_upper, times[start : start + _PIECE])
        g_next = f[-1]
        n = hi - lo
        with np.errstate(over="ignore", invalid="ignore"):  # a sum of two finite g may overflow
            if step_method == TRAPEZOIDAL:  # f_i = g_i + g_{i-1}, in place
                f[1:] += f[:-1]
                f[0] += g_prev
                # stop at an overflowed sum, whose modes (c > 0, Q >= 0) and fold are +-inf or nan
                finite = np.isfinite(f)
                if not finite.all():
                    n = int(finite.argmin())
            g_prev = g_next
            if lo == 0 or tables is None:
                values, phi = _table_pass(
                    phi, exponentials, c, step_method, steps[lo : lo + n], f[:n], weights)
            else:
                values, phi = _block_pass(phi, tables, forcing, states, n)
        if n < hi - lo or not np.isfinite(values).all():
            bad = next((i for i, v in enumerate(values) if not np.isfinite(v).all()), n)
            raise EvaluationError(f"the solution is not finite at t = {times[bad]}")
        yield values if weights is None else memoryview(values)
        step_method, lo = method, hi


def _block_pass(phi, tables, forcing, states, n: int):
    """The folded values of the n steps whose forcing sums lead ``forcing``, and the state after them.

    The sums are laid out as block rows, zero-padded at the grid's end.  Row
    b + 1 of ``states`` takes block b's increment, its sums times carry, and
    rounds of doubling turn the increments into the block-start states: after
    the round of shift s, each row holds its own increment plus the last 2s - 1
    ones, each carried on by its power of A^rows.
    """
    fold, kernel, carry, decays = tables
    blocks = -(-n // len(fold))
    forcing[n : blocks * len(fold)] = 0.0
    sums = forcing[: blocks * len(fold)].reshape(blocks, len(fold))
    run = states[: blocks + 1]
    run[0] = phi
    np.matmul(sums, carry, out=run[1:])
    for shift, decay in zip(_SHIFTS, decays):
        if shift > blocks:
            break
        run[shift:] += decay * run[:-shift]
    values = run[:-1] @ fold.T
    values += sums @ kernel.T
    return values.ravel()[:n], run[-1]


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
    """(fold, kernel, carry, decays): the tables that take ``rows`` steps of length h at once.

    With phi the state before the run and f_i = g_i + theta g_{i-1} its
    forcing sums, the folded values after steps 1..rows are
    fold phi + kernel f, and the state after them is A^rows phi + f . carry.
    fold_j = weights A^j and carry_i = c Q A^(rows - 1 - i), so carry is
    reversed; kernel is the lower-triangular Toeplitz matrix of
    kappa_l = weights . c Q A^l, and decays holds A^(rows s) for each s in
    _SHIFTS, each the square of the one before.  Entries of fold, carry and
    decays below the smallest normal double are flushed to 0: each moves a
    value by under 2^-1022 of the |phi| or |f| it multiplies, and a subnormal
    operand slows a matrix product several times over.
    """
    [amp], [gain] = _coefficients(exponentials, method, [h])
    # fold and carry are running products down their rows, formed in place in
    # one array: an operand broadcast over a table would cost numpy a temporary
    products = np.empty((2, rows, len(amp)))
    products[:] = amp
    fold, carry = products
    fold[0] *= weights
    carry[0] = c * gain
    np.multiply.accumulate(products, axis=1, out=products)
    lag = np.subtract.outer(np.arange(rows), np.arange(rows))
    kernel = np.where(lag >= 0, (carry @ weights)[lag], 0.0)
    carry[:] = carry[::-1]
    decays = np.empty((len(_SHIFTS), len(amp)))
    decays[0] = amp**rows
    for root, square in zip(decays, decays[1:]):
        np.square(root, out=square)
    for table in (products, decays):
        table[np.abs(table) < np.finfo(float).tiny] = 0.0
    return fold, kernel, carry, decays


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
