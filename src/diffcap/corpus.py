"""A small corpus of test functions with closed forms, as ready-to-run problems.

Each entry (the power laws ``pow1``, ``pow2``, ``pow3`` and ``pow2.5``, then
``exp`` and ``sin``) is a ``CorpusEntry``: its ``DerivativeProblem``, with
hand-written derivatives, the power law at a where one holds and a
closed-form window bound to a span (or a column of spans), plus what a
problem does not carry: the closed-form derivative and exact sup-norms, where
they exist.  ``scipy.special`` is imported on the first power-law window
value, not with this module.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffusive import DerivativeProblem, _validate_order
from .errors import InvalidParameterError


class _LazyModule:
    """Imports module ``name`` on the first attribute read and keeps each
    attribute it hands out, so later reads are plain instance lookups."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


#: Kummer's function for the power-law windows
special = _LazyModule("scipy.special")


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus entry, bound to an order alpha and an interval [a, a + T].

    ``problem`` carries the data: ``d_upper`` is the ceil(alpha)-th
    derivative and ``d_upper_plus`` the next one.  ``exact_caputo`` is the
    closed-form derivative where one exists, and the sups are exact sup-norms
    of the two over [a, a + T] where they are trivial.
    """

    name: str
    problem: DerivativeProblem
    exact_caputo: Callable[[float], float] | None
    d_upper_sup: float | None = None
    d_upper_plus_sup: float | None = None


_POWER_EXPONENTS = {"pow1": 1.0, "pow2": 2.0, "pow3": 3.0, "pow2.5": 2.5}


def corpus_names() -> tuple[str, ...]:
    return (*_POWER_EXPONENTS, "exp", "sin")


def _power_derivative(
    p: float, order: float, a: float, T: float
) -> tuple[Callable[[float], float], float | None, float]:
    """order-th derivative C (t - a)^{p - order} of (t - a)^p, its sup-norm over
    [a, a + T] and C.

    ``order`` may be fractional, which gives the Caputo derivative for
    p > ceil(order) - 1.  The sup is None when the exponent p - order is
    negative (the derivative is unbounded near a, and infinite at a) and 0
    for integer p below the order.
    """
    if p == int(p) and order > p:
        return (lambda t: 0.0), 0.0, 0.0
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
    return deriv, abs(deriv(T, _a=0.0)) if expo >= 0.0 else None, coeff


def _unit_series(z):
    """int_0^1 e^{-z v} dv by its Taylor series, for |z| <= 1/2 (z or a complex array)."""
    term, total = 1.0 + 0j, 0j
    for n in range(2, 18):  # (-z)^k / (k + 1)! for k <= 15, below 2^-60 of the sum
        total += term
        term *= -z / n
    return total


def _sin_window(m: int) -> Callable[[float], Callable[[float], float]]:
    """The unit window of sin(t - a + m pi / 2) = Im i^m e^{i(t - a)}: bound to S,
    V_S(decay) = Im i^m e^{iS} J(decay + iS), J(z) = int_0^1 e^{-z v} dv, each
    part of J to a few ulp of the magnitude: its Taylor series where |z| <= 1/2,
    else (1 - e^{-z}) / z formed with expm1 and 1 - cos S = 2 sin^2(S / 2)."""

    def window(span: float, _turn: complex = 1j**m) -> Callable[[float], float]:
        lib = np if isinstance(span, np.ndarray) else math
        versine, cos, sin = 2.0 * lib.sin(0.5 * span) ** 2, lib.cos(span), lib.sin(span)
        turned = _turn * (cos + 1j * sin)

        def at(decay: float) -> float:
            z = decay + 1j * span
            if not isinstance(z, np.ndarray):
                if abs(z) <= 0.5:
                    return (turned * _unit_series(z)).imag
                return (turned * (complex(versine - math.expm1(-decay) * cos,
                                          math.exp(-decay) * sin) / z)).imag
            near = np.abs(z) <= 0.5
            with np.errstate(all="ignore"):  # the entries near 0 are replaced below
                out = (versine - np.expm1(-decay) * cos + 1j * (np.exp(-decay) * sin)) / z
            if near.any():
                out[near] = _unit_series(z[near])
            return (turned * out).imag

        return at

    return window


def _power_window(p: float, m: int) -> Callable[[float], Callable[[float], float]]:
    """The unit window of the m-th derivative of (t - a)^p, for integer p or p > m - 1.

    That derivative is C u^e at u = tau - a, e = p - m, and int_0^1 (1 - v)^e
    e^{-decay v} dv is M(1, e + 2, -decay) / (e + 1), Kummer's function
    (DLMF 13.4.1), so the window bound to S is C S^e / (e + 1) times
    M(1, e + 2, -decay); it is 0 for integer p below m and inf where S^e
    overflows.  Scalar decays share a bounded memo of M: the outer QAWS
    integral of ``reference_quadrature`` samples the same decays at every time.
    """
    if p == int(p) and m > p:
        return lambda span: lambda decay: 0.0 * span * decay  # 0, or zeros shaped like both
    expo = p - m
    coeff = math.gamma(p + 1.0) / math.gamma(expo + 2.0)  # C / (e + 1)
    kummer = functools.lru_cache(maxsize=1024)(
        lambda decay: float(special.hyp1f1(1.0, expo + 2.0, -decay)))

    def window(span: float) -> Callable[[float], float]:
        with np.errstate(over="ignore"):  # an array of spans past double range
            try:
                scale = coeff * span**expo
            except OverflowError:  # a float span past it
                scale = math.inf  # M(1, e + 2, -decay) > 0
        return lambda decay: scale * (special.hyp1f1(1.0, expo + 2.0, -decay)
                                      if isinstance(decay, np.ndarray) else kummer(decay))

    return window


def _exp_window(span: float) -> Callable[[float], float]:
    """The unit window of e^{t - a} bound to S: e^S int_0^1 e^{-z v} dv =
    e^S (1 - e^{-z}) / z, real z = decay + S > 0."""
    with np.errstate(over="ignore"):  # an array of spans past double range
        try:
            scale = (np.exp if isinstance(span, np.ndarray) else math.exp)(span)
        except OverflowError:  # a float span past it
            scale = math.inf

    def at(decay: float) -> float:
        z = decay + span
        return scale * (-(np.expm1 if isinstance(z, np.ndarray) else math.expm1)(-z) / z)

    return at


def corpus_function(name: str, alpha: float, a: float = 0.0, T: float = 1.0) -> CorpusEntry:
    """Build the corpus entry ``name`` for order ``alpha`` on [a, a + T]."""
    m = math.ceil(_validate_order(alpha))
    exact = sup = sup_plus = singular = window = None
    if name in _POWER_EXPONENTS:
        p = _POWER_EXPONENTS[name]
        d_upper, sup, coeff = _power_derivative(p, m, a, T)
        d_upper_plus, sup_plus, _ = _power_derivative(p, m + 1, a, T)
        # the Caputo derivative of (t - a)^p is its order-alpha power-law
        # derivative (zero for integer p below alpha); there is no closed
        # form when the m-th derivative is not integrable at a
        if p == int(p) or p > m - 1:
            exact = _power_derivative(p, alpha, a, T)[0]
            window = _power_window(p, m)
        if p > m - 1:
            # d_upper(a + u) = coeff u^{p - m}, integrable at a since p - m > -1
            singular = (p - m, lambda u, _c=coeff: _c)
    elif name == "exp":

        def d_upper(t: float, _a: float = a) -> float:
            try:  # inline, as in _power_derivative
                return math.exp(t - _a)
            except OverflowError:
                return math.inf

        d_upper_plus, window = d_upper, _exp_window
        sup = sup_plus = d_upper(T, 0.0)  # e^T, inf where that overflows
    elif name == "sin":
        half_pi = 0.5 * math.pi

        def shifted(order: int) -> Callable[[float], float]:
            return lambda t, _s=order * half_pi, _a=a: math.sin(t - _a + _s)

        d_upper, d_upper_plus, window = shifted(m), shifted(m + 1), _sin_window(m)
    else:
        raise InvalidParameterError(f"unknown corpus function {name!r}; known: {corpus_names()}")
    problem = DerivativeProblem(alpha=alpha, a=a, T=T, d_upper=d_upper,
                                d_upper_plus=d_upper_plus, singular_part=singular, window=window)
    return CorpusEntry(name, problem, exact, sup, sup_plus)


def make_problem(name: str, alpha: float, a: float = 0.0, T: float = 1.0) -> DerivativeProblem:
    """The problem of the corpus entry ``name`` for order ``alpha`` on [a, a + T]."""
    return corpus_function(name, alpha, a=a, T=T).problem
