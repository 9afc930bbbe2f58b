"""Problem description and the diffusive system behind the derivative scheme.

The fractional derivative of order alpha is rewritten as an integral over an
auxiliary variable w of solutions phi(w, t) of first-order linear ODEs.  After
the substitution that folds both half-lines onto [0, inf), a K-point
Gauss-Laguerre rule needs phi only at the transformed node sets

    W_minus = { -x_k / q : k = 1..K },   W_plus = { x_k / (1 - q) : k = 1..K },

where q = alpha - ceil(alpha) + 1 in (0, 1).  Each node w contributes a decay
rate e^w; for w in W_plus these Lipschitz constants grow like
exp(x_max / (1 - q)) and are kept as exponents throughout (never materialized
once they would overflow).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidOrderError, InvalidParameterError
from .quadrature import QuadratureRule, _check_count, quadrature_coefficients

INTEGER_ORDER_TOL = 1e-12


def _validate_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise InvalidOrderError(f"order must be a positive real, got {alpha}")
    if abs(alpha - round(alpha)) <= INTEGER_ORDER_TOL:
        raise InvalidOrderError(
            f"integer orders are rejected (sin(alpha*pi) degenerates), got {alpha}"
        )
    return alpha


def fractional_part(alpha: float) -> float:
    """Fractional offset alpha - ceil(alpha) + 1 = alpha - floor(alpha), in (0, 1).

    Formed as alpha - floor(alpha), which is exact: it is alpha itself for
    0 < alpha < 1, and Sterbenz's lemma covers alpha > 1.  Integer alpha is
    rejected.
    """
    alpha = _validate_order(alpha)
    return alpha - math.floor(alpha)


def signed_prefactor(alpha: float) -> float:
    """The forcing prefactor (-1)^floor(alpha) * sin(alpha*pi) / pi.

    It equals sin(q pi) / pi > 0, q the fractional part, and is formed as
    sin(pi min(q, 1 - q)) / pi with min(q, 1 - q) exact; a rounded alpha*pi
    would carry a relative error of about 1e-16 / |alpha - round(alpha)|.
    """
    q = fractional_part(alpha)
    return math.sin(math.pi * min(q, 1.0 - q)) / math.pi


@dataclass(frozen=True)
class DerivativeProblem:
    """A fractional differentiation task on [a, a + T].

    ``d_upper`` supplies the ceil(alpha)-th derivative of the target function
    (the scheme is driven by it, never by the function itself).
    ``d_upper_plus`` optionally supplies the next derivative, needed only for
    the a-priori ODE-error constant.  ``singular_part`` optionally declares
    the power-law part of the data at a: the pair (sigma, r) states
    d_upper(a + u) = u^sigma r(u) for 0 < u <= T, with sigma > -1 and r
    finite at u = 0.  ``window`` optionally declares the unit window in closed
    form: window(S) binds a span 0 < S <= T, and V = window(S) maps decay >= 0
    to int_0^1 d_upper(a + S (1 - v)) e^{-decay v} dv, a float for a float and
    elementwise like a ufunc for a float64 ndarray, which an array S broadcasts
    against (the oracles call V up to decay 2^60 and take d_upper(t) / decay
    beyond).  Only the oracles read these two; the scheme never does.
    The float order, its derived constants and the end a + T are computed
    once, on construction.
    """

    alpha: float
    a: float
    T: float
    d_upper: Callable[[float], float]
    d_upper_plus: Callable[[float], float] | None = None
    singular_part: tuple[float, Callable[[float], float]] | None = None
    window: Callable[[float], Callable[[float], float]] | None = None
    ceil_order: int = field(init=False)
    fractional_part: float = field(init=False)
    prefactor: float = field(init=False)
    end: float = field(init=False)

    def __post_init__(self) -> None:
        alpha = _validate_order(self.alpha)
        if not math.isfinite(self.a):
            raise InvalidParameterError(f"left endpoint must be finite, got {self.a}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise InvalidParameterError(f"interval length must be positive, got {self.T}")
        if not math.isfinite(self.a + self.T):
            raise InvalidParameterError(
                f"interval end a + T overflows, got a = {self.a}, T = {self.T}"
            )
        part = self.singular_part
        if part is not None:
            sigma, r = part if isinstance(part, tuple) and len(part) == 2 else (None, None)
            if not (isinstance(sigma, numbers.Real) and math.isfinite(sigma) and sigma > -1.0
                    and callable(r)):
                raise InvalidParameterError(
                    "singular_part must be (sigma, r) with finite sigma > -1 and callable r, "
                    f"got {part!r}"
                )
            object.__setattr__(self, "singular_part", (float(sigma), r))
        for name in ("d_upper", "d_upper_plus", "window"):
            value = getattr(self, name)
            if not (callable(value) or (value is None and name != "d_upper")):
                raise InvalidParameterError(f"{name} must be callable, got {value!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ceil_order", math.ceil(alpha))
        object.__setattr__(self, "fractional_part", fractional_part(alpha))
        object.__setattr__(self, "prefactor", signed_prefactor(alpha))
        object.__setattr__(self, "end", self.a + self.T)


@dataclass(frozen=True, eq=False)
class DiffusiveSystem:
    """Transformed nodes and coefficients for one (problem, rule) pair.

    ``exponents`` holds the 2K node exponents w, the W_minus block followed by
    the W_plus block; this is the layout solver states use.  ``weights`` holds
    the fold weights a_k e^{x_k} / q and a_k e^{x_k} / (1 - q) in that layout,
    so the derivative is ``weights @ phi``.
    """

    fractional_part: float
    c: float
    exponents: np.ndarray
    weights: np.ndarray


def build_system(problem: DerivativeProblem, rule: QuadratureRule) -> DiffusiveSystem:
    """Assemble the diffusive system for ``problem`` at the nodes of ``rule``."""
    q = problem.fractional_part
    w = np.concatenate((-rule.nodes / q, rule.nodes / (1.0 - q)))
    coef = quadrature_coefficients(rule)
    fold = np.concatenate((coef / q, coef / (1.0 - q)))
    w.setflags(write=False)
    fold.setflags(write=False)
    return DiffusiveSystem(fractional_part=q, c=problem.prefactor, exponents=w, weights=fold)


@dataclass(frozen=True)
class StiffnessRow:
    k: int
    w: float
    log10_lipschitz: float


def stiffness_report(system: DiffusiveSystem) -> tuple[StiffnessRow, ...]:
    """Every node's Lipschitz constant e^w, as its exponent w and in log10 form.

    Rows cover the W_minus block (all constants in (0, 1)) followed by the
    W_plus block, whose last row holds the largest constant
    exp(x_max / (1 - q)); it can vastly exceed double range.
    """
    log10e = 1.0 / math.log(10.0)
    rows, npoints = [], len(system.exponents) // 2
    for i, w in enumerate(system.exponents):
        w = float(w)
        rows.append(StiffnessRow(k=i % npoints + 1, w=w, log10_lipschitz=w * log10e))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing evaluation times t_0 < ... < t_N, real numbers stored as floats.

    The scheme runs on any grid (the stepping is one-step); the a-priori
    ODE-error bound is only stated for uniform ones.  Grids, like rules and
    systems, compare and hash by identity.
    """

    points: np.ndarray
    steps: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        try:  # a copy: the caller's array stays theirs
            pts = np.asarray(self.points).astype(float, casting="same_kind")
        except (TypeError, ValueError) as exc:  # complex, text, objects or ragged rows
            raise InvalidParameterError(f"grid points must be real numbers: {exc}") from exc
        if pts.ndim != 1 or len(pts) < 2:
            raise InvalidParameterError("a grid needs at least two points")
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(pts)
        # every step finite and positive: then so is every point, as each has a neighbour
        if not (steps.min() > 0.0 and steps.max() < math.inf):
            if not np.all(np.isfinite(pts)):
                raise InvalidParameterError("grid points must be finite")
            if np.any(steps <= 0.0):
                raise InvalidParameterError("grid points must be strictly increasing")
            if not np.all(np.isfinite(steps)):
                raise InvalidParameterError("grid steps must be finite")
        pts.setflags(write=False)
        steps.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "steps", steps)

    @property  # iter_solution and perfbench/tracing.py read n_steps as N
    def n_steps(self) -> int:
        return len(self.points) - 1


def uniform_grid(a: float, T: float, n_steps: int) -> TimeGrid:
    """Uniform grid t_n = a + n h, h = T / n_steps."""
    n_steps = _check_count(n_steps, "step count")
    # (T / n) n may overflow before the end is set; TimeGrid rejects an end that does
    with np.errstate(over="ignore"):
        points = a + (T / n_steps) * np.arange(n_steps + 1, dtype=float)
        points[-1] = a + T
    return TimeGrid(points)


def graded_grid(a: float, T: float, n_steps: int, exponent: float = 2.0) -> TimeGrid:
    """Graded grid t_n = a + T (n / N)^exponent, clustered toward a for exponent > 1."""
    n_steps = _check_count(n_steps, "step count")
    if not (math.isfinite(exponent) and exponent > 0.0):
        raise InvalidParameterError(f"grading exponent must be positive and finite, got {exponent}")
    frac = np.arange(n_steps + 1, dtype=float) / n_steps
    with np.errstate(over="ignore"):  # TimeGrid rejects an end a + T that overflows
        points = a + T * frac**exponent
    return TimeGrid(points)
