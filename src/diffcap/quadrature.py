"""K-point Gauss-Laguerre rules for the weight e^{-w} on [0, inf).

Nodes are the roots of the degree-K Laguerre polynomial, located by Newton
iteration on the three-term recurrence with standard asymptotic initial
guesses.  Weights come from the classical closed form in terms of the
degree-(K+1) polynomial at each node.  All polynomial values are carried
through the exponentially scaled recurrence e^{-x/2} L_n(x), which keeps
every intermediate in double range and lets the log-weights ln a_k be
computed directly instead of as the log of an already-underflowed weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import InvalidParameterError

MAX_NODES = 256

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100

# (2j + 1, j, j + 1) as floats for every recurrence step up to degree K + 1
_RECURRENCE = tuple((2.0 * j + 1.0, float(j), j + 1.0) for j in range(MAX_NODES + 1))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a Gauss-Laguerre rule (weight function e^{-w}).

    ``log_weights`` holds ln a_k computed directly from the scaled recurrence;
    ``weights`` exponentiates on demand.  Nodes are strictly increasing and
    positive, and the largest node satisfies the Szego bound x_{K,K} < 4K + 2.
    """

    npoints: int
    nodes: np.ndarray
    log_weights: np.ndarray

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.exp(self.log_weights)
        w.setflags(write=False)
        return w


def _check_count(value: int, what: str, hi: float = math.inf) -> int:
    """``value`` as an int in [1, hi]: an int or numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 1 <= value <= hi:
        raise InvalidParameterError(f"{what} must be an integer in [1, {hi}], got {value!r}")
    return int(value)


def _scaled_laguerre(n: int, x: float) -> tuple[float, float]:
    """Return (e^{-x/2} L_n(x), e^{-x/2} L_{n-1}(x)) by upward recurrence.

    Safe for x < ~1400: the scaled values are bounded by 1 in magnitude
    (|L_n(x)| <= e^{x/2} for x >= 0) and the starting value e^{-x/2} stays
    normal for the node range admitted by MAX_NODES.
    """
    prev = 0.0
    cur = math.exp(-0.5 * x)
    for odd, j, j_next in _RECURRENCE[:n]:
        prev, cur = cur, ((odd - x) * cur - j * prev) / j_next
    return cur, prev


def _initial_guess(k: int, i: int, roots: list[float]) -> float:
    # Stroud-Secrest style guesses for the i-th smallest root (i = 0-based).
    if i == 0:
        return 3.0 / (1.0 + 2.4 * k)
    if i == 1:
        return roots[0] + 15.0 / (1.0 + 2.5 * k)
    j = i - 1
    return roots[i - 1] + ((1.0 + 2.55 * j) / (1.9 * j)) * (roots[i - 1] - roots[i - 2])


def gauss_laguerre_rule(npoints: int) -> QuadratureRule:
    """The K-point Gauss-Laguerre rule, K = ``npoints``.

    Each K is generated once per process; later calls return the same
    read-only rule object.  Deterministic: the same K always yields
    bit-identical nodes and weights.  Raises :class:`InvalidParameterError`
    for K < 1 or K > MAX_NODES.
    """
    return _rule(_check_count(npoints, "node count", MAX_NODES))


@cache
def _rule(k: int) -> QuadratureRule:
    # keyed on the checked int: True == 1 and 3.0 == 3 hash alike
    roots: list[float] = []
    log_weights: list[float] = []
    for i in range(k):
        x = _initial_guess(k, i, roots)
        prev_dx = math.inf
        for _ in range(_NEWTON_MAX_ITER):
            pk, pkm1 = _scaled_laguerre(k, x)
            # L_K'(x) = K (L_K(x) - L_{K-1}(x)) / x; the e^{-x/2} scaling cancels
            # in the Newton ratio.
            dx = pk * x / (k * (pk - pkm1))
            x -= dx
            adx = abs(dx)
            if adx <= _NEWTON_TOL * max(1.0, abs(x)):
                break
            if adx >= prev_dx and adx <= 100.0 * _NEWTON_TOL * max(1.0, abs(x)):
                # the correction stopped shrinking: recurrence noise floor
                break
            prev_dx = adx
        else:
            raise InvalidParameterError(
                f"Newton iteration for node {i + 1} of the {k}-point rule did not converge"
            )
        # a_k = x / ((K+1)^2 L_{K+1}(x)^2) with L_{K+1} = e^{x/2} * scaled value,
        # hence ln a_k = ln x - x - 2 ln((K+1) |scaled L_{K+1}(x)|).
        pk1, _ = _scaled_laguerre(k + 1, x)
        roots.append(x)
        log_weights.append(math.log(x) - x - 2.0 * math.log((k + 1) * abs(pk1)))

    nodes = np.array(roots)
    logw = np.array(log_weights)
    nodes.setflags(write=False)
    logw.setflags(write=False)
    return QuadratureRule(npoints=k, nodes=nodes, log_weights=logw)


def truncate_rule(rule: QuadratureRule, k_star: int) -> QuadratureRule:
    """Keep only the first ``k_star`` nodes/weights of ``rule``.

    The weight sum is no longer 1 (it drops below); all per-node properties
    are inherited, and the arrays are read-only views of the parent's.
    ``k_star`` must satisfy 1 <= k_star <= rule.npoints.
    """
    k_star = _check_count(k_star, "truncation count", rule.npoints)
    if k_star == rule.npoints:
        return rule
    return QuadratureRule(k_star, rule.nodes[:k_star], rule.log_weights[:k_star])


def quadrature_coefficients(rule: QuadratureRule) -> np.ndarray:
    """a_k e^{x_k} for every node, via exp(ln a_k + x_k)."""
    return np.exp(rule.log_weights + rule.nodes)
