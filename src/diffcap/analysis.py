"""Error decomposition, a-priori ODE bound, and empirical rate studies.

The total error of the scheme at a grid point splits exactly into a
quadrature part (how well the K-point rule integrates the folded integrand)
and an ODE part (how far the stepped phi values are from the true ones).
Both parts are measured here against the oracle module, the quadrature part
additionally against the high-accuracy diffusive integral, and the ODE part
against the a-priori constant

    C(K) = |sin(alpha pi)| / (2 pi) * e^{x_max q / (1-q)}
           * ( sup|g'| + 2 e^{x_max / (1-q)} sup|g| ),

which bounds |ode error| <= C(K) T h on uniform grids under backward Euler.
C(K) leaves double range already for moderate K, so it is carried in log10.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diffusive import DerivativeProblem, TimeGrid, uniform_grid
from .diffusive import build_system  # noqa: F401 - perfbench/tracing.py rebinds this name
from .errors import InsufficientDataError, InvalidParameterError, UnsupportedOperationError
from .oracle import (
    _combinations,
    _validate_tol,
    brute_force_caputo,
    exact_combination,
    reference_quadrature,
)
from .quadrature import MAX_NODES, QuadratureRule, _check_count, gauss_laguerre_rule
from .steppers import BACKWARD_EULER, evaluate_derivative, quadrature_coefficients
from .steppers import iter_solution  # noqa: F401 - perfbench/tracing.py rebinds this name
from .steppers import state_combination  # noqa: F401 - perfbench/tracing.py rebinds this name

_NORM_SAMPLES = 10001
DECOMPOSE_TOL_MAX = 1e-8  # decompose_error's loosest truth_tol
_LOG10 = math.log(10.0)


@dataclass(frozen=True)
class ErrorDecomposition:
    """Total / quadrature / ODE error components at one grid index."""

    n: int
    r_total: float
    r_q: float
    r_ode: float
    oracle_tol: float


@dataclass(frozen=True)
class LogScaledValue:
    """Nonnegative scalar carried as log10, usable beyond double range."""

    log10: float

    @property
    def value(self) -> float:
        try:
            return 10.0**self.log10
        except OverflowError:
            return math.inf


def ode_error_profile(
    problem: DerivativeProblem,
    rule: QuadratureRule,
    grid: TimeGrid,
    method: str = BACKWARD_EULER,
    truth_tol: float = 1e-10,
) -> np.ndarray:
    """The ODE error r_ode at every grid index, as decompose_error reports it (index 0 is 0)."""
    _, values, sums = _walk(problem, rule, grid, method, _validate_tol(truth_tol))
    return np.array(sums) - values


def quadrature_error(
    problem: DerivativeProblem, rule: QuadratureRule, t: float, truth_tol: float = 1e-10
) -> float:
    """The quadrature error component at time t (independent of any grid)."""
    truth_tol = _validate_tol(truth_tol)
    return reference_quadrature(problem, t, truth_tol) - _rule_sum(problem, rule, t, truth_tol)


def _rule_sum(problem: DerivativeProblem, rule: QuadratureRule, t: float, truth_tol: float) -> float:
    """The rule applied to the exact folded integrand at time t."""
    return float(quadrature_coefficients(rule) @ exact_combination(problem, rule, t, truth_tol))


def _walk(
    problem: DerivativeProblem, rule: QuadratureRule, grid: TimeGrid, method: str, truth_tol: float
) -> tuple[list[float], np.ndarray, list[float]]:
    """The oracles' time, the scheme's value and ``_rule_sum`` at every grid index, one
    product per chunk of times.  The scheme runs first, so no oracle sees a grid it rejects;
    index 0 is a, where the state is zero; later times are clamped into [a, a + T]."""
    values = evaluate_derivative(problem, rule, grid, method=method)
    a, end = problem.a, problem.end
    times = [a] + [min(max(t, a), end) for t in grid.points[1:].tolist()]
    coefficients = quadrature_coefficients(rule)  # once per walk
    return times, values, [total for chunk in _combinations(problem, rule, times, truth_tol)
                           for total in (chunk @ coefficients).tolist()]


def decompose_error(
    problem: DerivativeProblem,
    rule: QuadratureRule,
    grid: TimeGrid,
    method: str = BACKWARD_EULER,
    truth_tol: float = 1e-9,
) -> list[ErrorDecomposition]:
    """Per-grid-point (r_total, r_q, r_ode) against independent oracles.

    r_total measures the scheme against the defining Caputo integral,
    r_q against the diffusive integral, so the identity
    r_total = r_q + r_ode holds only up to the oracles' agreement
    (within 10 * truth_tol).
    """
    truth_tol = _validate_tol(truth_tol, DECOMPOSE_TOL_MAX)
    times, values, sums = _walk(problem, rule, grid, method, truth_tol)
    return [
        ErrorDecomposition(
            n=n,
            r_total=brute_force_caputo(problem, t, truth_tol) - value,
            r_q=reference_quadrature(problem, t, truth_tol) - exact_sum,
            r_ode=exact_sum - value,
            oracle_tol=truth_tol,
        )
        for n, (t, value, exact_sum) in enumerate(zip(times, values.tolist(), sums))
    ]


def _sampled_sup(fn, a: float, T: float) -> float:
    ts = np.linspace(a, a + T, _NORM_SAMPLES)
    return float(np.max(np.abs([fn(float(t)) for t in ts])))


def require_d_upper_plus(problem: DerivativeProblem) -> Callable[[float], float]:
    if problem.d_upper_plus is None:
        raise UnsupportedOperationError(
            "this operation needs the (ceil(alpha)+1)-th derivative, "
            "which the problem does not supply"
        )
    return problem.d_upper_plus


def ode_error_constant(
    problem: DerivativeProblem,
    rule: QuadratureRule,
    d_upper_sup: float | None = None,
    d_upper_plus_sup: float | None = None,
) -> LogScaledValue:
    """The a-priori backward-Euler error constant C(K), in log10 form.

    Sup-norms are taken from the explicit arguments when given, otherwise
    estimated by sampling 10001 equispaced points (an estimate, not a
    certified bound).  Requires the problem to supply the next-higher
    derivative unless its sup-norm is passed in.
    """
    if d_upper_plus_sup is None:
        d_upper_plus_sup = _sampled_sup(require_d_upper_plus(problem), problem.a, problem.T)
    if d_upper_sup is None:
        d_upper_sup = _sampled_sup(problem.d_upper, problem.a, problem.T)
    if not (d_upper_sup >= 0.0 and d_upper_plus_sup >= 0.0):
        raise InvalidParameterError(f"sup-norms must be >= 0, got {d_upper_sup}, {d_upper_plus_sup}")
    q = problem.fractional_part
    x_max = float(rule.nodes[-1])
    log_n1 = math.log(d_upper_plus_sup) if d_upper_plus_sup > 0.0 else -math.inf
    log_n0 = math.log(d_upper_sup) if d_upper_sup > 0.0 else -math.inf
    bracket = np.logaddexp(log_n1, math.log(2.0) + x_max / (1.0 - q) + log_n0)
    ln_c = (
        math.log(abs(problem.prefactor) / 2.0)
        + x_max * q / (1.0 - q)
        + float(bracket)
    )
    return LogScaledValue(log10=ln_c / _LOG10)


@dataclass(frozen=True)
class OdeBoundRow:
    n_steps: int
    h: float
    max_abs_r_ode: float
    bound: float
    holds: bool | None


@dataclass(frozen=True)
class OdeBoundReport:
    """Measured ODE errors against the bound C(K) T h on uniform grids.

    When C(K) leaves double range the report is inconclusive: measured
    errors and the log-space constant are still reported, but no pass/fail
    verdict is attached.
    """

    constant: LogScaledValue
    rows: tuple[OdeBoundRow, ...]
    conclusive: bool

    @property
    def all_hold(self) -> bool:
        return self.conclusive and all(r.holds for r in self.rows)


def verify_ode_error_bound(
    problem: DerivativeProblem,
    rule: QuadratureRule,
    n_list: Sequence[int],
    truth_tol: float = 1e-10,
    d_upper_sup: float | None = None,
    d_upper_plus_sup: float | None = None,
) -> OdeBoundReport:
    """Check max_n |r_ode| <= C(K) T h for each uniform grid size in n_list."""
    truth_tol = _validate_tol(truth_tol)
    constant = ode_error_constant(
        problem, rule, d_upper_sup=d_upper_sup, d_upper_plus_sup=d_upper_plus_sup
    )
    conclusive = math.isfinite(constant.value)
    rows = []
    for n_steps in n_list:
        grid = uniform_grid(problem.a, problem.T, n_steps)
        profile = ode_error_profile(problem, rule, grid, method=BACKWARD_EULER, truth_tol=truth_tol)
        worst = float(np.max(np.abs(profile)))
        h = problem.T / n_steps
        bound = constant.value * problem.T * h if conclusive else math.inf
        rows.append(
            OdeBoundRow(
                n_steps=n_steps,
                h=h,
                max_abs_r_ode=worst,
                bound=bound,
                holds=(worst <= bound) if conclusive else None,
            )
        )
    return OdeBoundReport(constant=constant, rows=tuple(rows), conclusive=conclusive)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of ln(err) against ln(x)."""

    xs: tuple[float, ...]
    errs: tuple[float, ...]
    slope: float
    r2: float


def fit_rate(xs: Sequence[float], errs: Sequence[float]) -> RateFit:
    """Fit a log-log rate through (xs, errs), dropping nonpositive errors.

    xs must be finite and positive and errs finite, or the fit raises
    :class:`InvalidParameterError`.  Machine-zero errors are dropped with a
    warning; fewer than three surviving points raise
    :class:`InsufficientDataError`.
    """
    xs = [float(x) for x in xs]
    errs = [float(e) for e in errs]
    if len(xs) != len(errs):
        raise InvalidParameterError("xs and errs must have the same length")
    if not all(math.isfinite(x) and x > 0.0 for x in xs):
        raise InvalidParameterError(f"xs must be finite and positive, got {xs}")
    if not all(math.isfinite(e) for e in errs):
        raise InvalidParameterError(f"errs must be finite, got {errs}")
    diffs = np.diff(xs)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise InvalidParameterError("xs must be strictly monotone")
    kept_x, kept_e = [], []
    for x, e in zip(xs, errs):
        if e > 0.0:
            kept_x.append(x)
            kept_e.append(e)
        else:
            warnings.warn(f"dropping nonpositive error {e} at x = {x} from rate fit", stacklevel=2)
    if len(kept_x) < 3:
        raise InsufficientDataError(
            f"rate fit needs at least 3 positive-error points, {len(kept_x)} survived"
        )
    lx = np.log(kept_x)
    le = np.log(kept_e)
    slope, intercept = np.polyfit(lx, le, 1)
    residuals = le - (slope * lx + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((le - np.mean(le)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res < 1e-28 else 0.0)
    return RateFit(xs=tuple(kept_x), errs=tuple(kept_e), slope=float(slope), r2=r2)


@dataclass(frozen=True)
class DecayStudy:
    """Quadrature errors |r_q(K)| over a node-count sweep.

    Errors at or below ``noise_floor`` are oracle noise.  Orders taken from
    single points, such as log2(e_K / e_{2K}), wiggle where r_q changes sign,
    since |r_q| dips near each zero; judge the decay on an envelope of the
    points instead.
    """

    points: tuple[tuple[int, float], ...]
    noise_floor: float


def quadrature_decay_study(
    problem: DerivativeProblem,
    t: float,
    k_list: Sequence[int],
    truth_tol: float = 1e-10,
) -> DecayStudy:
    """|r_q| at one time point for each node count in increasing ``k_list``."""
    truth_tol = _validate_tol(truth_tol)
    k_list = [_check_count(k, "node count", MAX_NODES) for k in k_list]
    if len(k_list) == 0 or any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise InvalidParameterError("k_list must be nonempty and strictly increasing")
    # the truth does not depend on K, so one oracle call serves the sweep
    truth = reference_quadrature(problem, t, truth_tol)
    points = tuple(
        (k, abs(truth - _rule_sum(problem, gauss_laguerre_rule(k), t, truth_tol))) for k in k_list
    )
    return DecayStudy(points=points, noise_floor=10.0 * truth_tol)
