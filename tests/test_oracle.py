import dataclasses
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

import diffcap
from diffcap import (
    DerivativeProblem,
    InvalidOrderError,
    InvalidParameterError,
    OracleError,
    UnsupportedOperationError,
    brute_force_caputo,
    corpus_function,
    corpus_names,
    decompose_error,
    exact_combination,
    exact_phi,
    gauss_laguerre_rule,
    make_problem,
    fractional_part,
    reference_quadrature,
    signed_prefactor,
    uniform_grid,
)
from diffcap import corpus, oracle
from diffcap.analysis import require_d_upper_plus
from diffcap.quadrature import QuadratureRule


def _both_paths(problem: DerivativeProblem) -> tuple[DerivativeProblem, DerivativeProblem]:
    """The problem with its declared window, and stripped to the quadrature path."""
    return problem, dataclasses.replace(problem, window=None)


def _unit_forcing_problem(alpha: float) -> DerivativeProblem:
    return DerivativeProblem(alpha=alpha, a=0.0, T=1.0, d_upper=lambda t: 1.0)


def _phi_unit_forcing(alpha: float, w: float, t: float) -> float:
    # analytic value for d_upper == 1:
    #   c e^{w q} e^{-w} (1 - exp(-(t - a) e^w))
    c = signed_prefactor(alpha)
    q = fractional_part(alpha)
    expo = min((t - 0.0) * math.exp(w), 700.0)
    return -c * math.exp(w * (q - 1.0)) * math.expm1(-expo)


def test_exact_phi_vanishes_at_left_endpoint():
    assert exact_phi(_unit_forcing_problem(0.5), 3.0, 0.0, 1e-10) == 0.0


def test_exact_phi_matches_analytic_value_at_zero():
    value = exact_phi(_unit_forcing_problem(0.5), 0.0, 1.0, 1e-13)
    assert value == pytest.approx((1.0 - math.exp(-1.0)) / math.pi, rel=1e-11)


@pytest.mark.parametrize("w", [-25.0, -5.0, -0.5, 2.0, 15.0, 30.0, 60.0])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_exact_phi_matches_analytic_sweep(alpha, w):
    problem = _unit_forcing_problem(alpha)
    value = exact_phi(problem, w, 1.0, 1e-13)
    assert value == pytest.approx(_phi_unit_forcing(alpha, w, 1.0), rel=1e-9)


@pytest.mark.parametrize("w", [760.0, 1e4])
@pytest.mark.parametrize("alpha", [0.999, 1.0 - 1e-6])
def test_exact_phi_keeps_its_value_where_the_window_length_underflows(alpha, w):
    # 40 e^{-w} underflows to 0 here, but phi ~ c e^{-(1 - q) w} is not small
    # for q near 1; e^{-t e^w} underflows too, so the closed form is c e^{(q - 1) w}
    # pow1 declares its window, d_upper = 1 too, and takes the limit past decay 2^60
    q = fractional_part(alpha)
    expected = signed_prefactor(alpha) * math.exp((q - 1.0) * w)
    assert expected > 1e5 * 1e-13
    for problem in (_unit_forcing_problem(alpha), make_problem("pow1", alpha)):
        assert exact_phi(problem, w, 1.0, 1e-13) == pytest.approx(expected, rel=1e-9)


def test_exact_phi_decay_ratio_toward_plus_infinity():
    problem = make_problem("pow2", 0.5)
    q = 0.5
    ratio = exact_phi(problem, 25.0, 1.0, 1e-13) / exact_phi(problem, 20.0, 1.0, 1e-13)
    assert ratio == pytest.approx(math.exp((q - 1.0) * 5.0), rel=0.05)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_exact_phi_asymptotic_slopes(alpha):
    problem = make_problem("pow2", alpha)
    q = fractional_part(alpha)
    ws = np.arange(15.0, 30.5, 1.0)
    slope = np.polyfit(ws, [math.log(abs(exact_phi(problem, w, 1.0, 1e-13))) for w in ws], 1)[0]
    assert abs(slope - (q - 1.0)) < 0.1
    ws = np.arange(-30.0, -14.5, 1.0)
    slope = np.polyfit(ws, [math.log(abs(exact_phi(problem, w, 1.0, 1e-13))) for w in ws], 1)[0]
    assert abs(slope - q) < 0.1


def test_exact_phi_decay_is_uniform_in_time():
    # the scaled magnitude sup_t |phi(w, t)| e^{-w (q - 1)} at w = 25 stays
    # within 1.5x of the same measurement at w = 15
    problem = make_problem("pow2", 0.5)
    q = 0.5
    ts = np.linspace(0.05, 1.0, 20)

    def scaled_sup(w):
        return max(abs(exact_phi(problem, w, float(t), 1e-13)) for t in ts) * math.exp(
            -w * (q - 1.0)
        )

    assert scaled_sup(25.0) <= 1.5 * scaled_sup(15.0)


def test_exact_phi_validates_inputs():
    problem = _unit_forcing_problem(0.5)
    with pytest.raises(InvalidParameterError):
        exact_phi(problem, 1.0, 2.0, 1e-10)
    with pytest.raises(InvalidParameterError):
        exact_phi(problem, 1.0, 0.5, 1e-3)
    with pytest.raises(InvalidParameterError):
        exact_phi(problem, 1.0, 0.5, 1e-15)
    with pytest.raises(InvalidParameterError, match="nan"):
        exact_phi(problem, math.nan, 0.5, 1e-10)
    # the infinite exponents keep their limits
    assert exact_phi(problem, math.inf, 0.5, 1e-10) == 0.0
    assert exact_phi(problem, -math.inf, 0.5, 1e-10) == 0.0


def _one_node_rule(x: float) -> QuadratureRule:
    return QuadratureRule(npoints=1, nodes=np.array([x]), log_weights=np.array([0.0]))


@pytest.mark.parametrize("t", [-1.0, -5e-324, 1.0000000000000002, 3.0])
def test_oracles_reject_times_outside_the_interval(t):
    problem = _unit_forcing_problem(0.5)
    with pytest.raises(InvalidParameterError, match="outside the problem interval"):
        exact_phi(problem, 1.0, t, 1e-10)
    with pytest.raises(InvalidParameterError, match="outside the problem interval"):
        exact_combination(problem, _one_node_rule(2.0), t, 1e-10)


def test_exact_combination_vanishes_at_left_endpoint():
    problem = _unit_forcing_problem(0.5)
    assert exact_combination(problem, _one_node_rule(2.0), 0.0, 1e-10).tolist() == [0.0]


def test_exact_combination_at_zero_argument():
    problem = _unit_forcing_problem(0.3)
    q = 0.3
    expected = (1.0 / q + 1.0 / (1.0 - q)) * exact_phi(problem, 0.0, 1.0, 1e-13)
    (value,) = exact_combination(problem, _one_node_rule(0.0), 1.0, 1e-12)
    assert value == pytest.approx(expected, rel=1e-9)


def test_exact_combination_combines_transformed_arguments():
    # the one-point Gauss-Laguerre rule has its node at x = 1, so q = 0.5 folds
    # phi(-2) and phi(2)
    problem = _unit_forcing_problem(0.5)
    expected = 2.0 * _phi_unit_forcing(0.5, -2.0, 1.0) + 2.0 * _phi_unit_forcing(0.5, 2.0, 1.0)
    (value,) = exact_combination(problem, gauss_laguerre_rule(1), 1.0, 1e-12)
    assert value == pytest.approx(expected, rel=1e-10)


def test_exact_combination_sums_to_the_closed_form_rule_sum_near_order_one():
    # pow2 at alpha 0.999: d_upper = 2 tau, so W(r) = 2 (t r - 1 + e^{-t r}) / r^2 and
    # phi(w) = c e^{q w} W(e^w) in closed form at 40 digits.  The stiff arguments
    # reach w = 1000 x_k, where 40 e^{-w} underflows; the rule sum is 2.00086,
    # not the 0.921 of nodes whose phi was read as 0 there
    alpha, t, budget = 0.999, 1.0, 1e-10
    q, c = fractional_part(alpha), signed_prefactor(alpha)
    rule = gauss_laguerre_rule(20)
    weights = np.exp(rule.log_weights + rule.nodes)
    with mpmath.workdps(40):

        def phi(w):
            r = mpmath.exp(w)
            return c * mpmath.exp(q * w) * 2 * (t * r - 1 + mpmath.exp(-t * r)) / r**2

        closed = [phi(mpmath.mpf(-x) / q) / q + phi(mpmath.mpf(x) / (1 - q)) / (1 - q)
                  for x in rule.nodes]
        expected = float(mpmath.fsum(mpmath.mpf(a) * v for a, v in zip(weights, closed)))
    assert expected == pytest.approx(2.00086, abs=1e-5)
    for problem in _both_paths(make_problem("pow2", alpha)):
        combined = exact_combination(problem, rule, t, budget)
        assert abs(float(weights @ combined) - expected) <= budget


def test_reference_quadrature_zero_forcing():
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 0.0)
    assert reference_quadrature(problem, 0.7, 1e-10) == 0.0


def test_reference_quadrature_power_rule():
    problem = make_problem("pow1", 0.5)
    value = reference_quadrature(problem, 1.0, 1e-9)
    assert value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-8)


def test_reference_agrees_with_brute_force():
    problem = make_problem("pow2", 1.5)
    ref = reference_quadrature(problem, 0.7, 1e-9)
    brute = brute_force_caputo(problem, 0.7, 1e-9)
    assert ref == pytest.approx(brute, abs=1e-7)


@pytest.mark.parametrize("alpha", [2.3, 2.7])
def test_reference_quadrature_meets_its_target_on_data_singular_at_a(alpha):
    # d_upper ~ (tau - a)^{-1/2}: the full-span inner windows sample tau from
    # a, so tau - a keeps its relative precision next to the singularity
    problem = dataclasses.replace(make_problem("pow2.5", alpha), window=None)
    exact = corpus_function("pow2.5", alpha).exact_caputo(0.1)
    value = reference_quadrature(problem, 0.1, 1e-10)
    assert abs(value - exact) <= 2.0 * max(1e-10, 5e-13 * abs(exact))


@pytest.mark.parametrize("a, T", [(0.0, 1.0), (0.5, 0.02)])
@pytest.mark.parametrize("alpha", [1e-6, 0.04, 0.96, 1.0 - 1e-6, 1.001, 1.999])
@pytest.mark.parametrize("name", ["pow2", "pow3"])
def test_reference_quadrature_meets_its_target_near_integer_orders_and_on_short_spans(
    name, alpha, a, T
):
    # q near 0 or 1 puts the weight x^{q-1} or (1 - x)^{-q} at the edge of
    # integrability, and T = 0.02 puts s = t - a well below 1
    exact_caputo = corpus_function(name, alpha, a=a, T=T).exact_caputo
    for problem in _both_paths(make_problem(name, alpha, a=a, T=T)):
        for t in (a + 0.1 * T, a + T):
            exact = exact_caputo(t)
            for tol in (1e-9, 1e-10):
                error = reference_quadrature(problem, t, tol) - exact
                assert abs(error) <= 2.0 * max(tol, 5e-13 * abs(exact)), (t, tol, error)


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_reference_quadrature_meets_its_target_on_exp_near_order_one(t):
    # D^alpha e^{t - a} = e^{t - a} P(1 - alpha, t - a) for 0 < alpha < 1, with P
    # the regularized lower incomplete gamma function
    alpha = 0.999
    exact = math.exp(t) * scipy.special.gammainc(1.0 - alpha, t)
    for problem in _both_paths(make_problem("exp", alpha)):
        for tol in (1e-9, 1e-10):
            error = reference_quadrature(problem, t, tol) - exact
            assert abs(error) <= 2.0 * max(tol, 5e-13 * abs(exact)), (tol, error)


class _CountingIntegrate:
    def __init__(self, module) -> None:
        self._module = module
        self.quad_calls = 0
        self.alg_calls = 0

    def quad(self, *args, **kwargs):
        self.quad_calls += 1
        self.alg_calls += kwargs.get("weight") == "alg"
        return self._module.quad(*args, **kwargs)


class _CountingSpecial:
    """Stands in for ``scipy.special``: counts hyp1f1 calls on scalar and on array decays."""

    def __init__(self, module) -> None:
        self._module = module
        self.scalar_calls = self.array_calls = 0

    def hyp1f1(self, a, b, x):
        if isinstance(x, np.ndarray):
            self.array_calls += 1
        else:
            self.scalar_calls += 1
        return self._module.hyp1f1(a, b, x)


class _CountingWindow:
    """Counts binds to a span and calls of the bound V, each scalar or array."""

    def __init__(self, fn) -> None:
        self._fn = fn
        self.scalar_binds = self.array_binds = self.scalar_calls = self.array_calls = 0

    def __call__(self, span):
        if isinstance(span, np.ndarray):
            self.array_binds += 1
        else:
            self.scalar_binds += 1
        bound = self._fn(span)

        def at(decay):
            if isinstance(decay, np.ndarray):
                self.array_calls += 1
            else:
                self.scalar_calls += 1
            return bound(decay)

        return at


class _CountingForcing:
    def __init__(self, fn) -> None:
        self._fn = fn
        self.calls = 0

    def __call__(self, t: float) -> float:
        self.calls += 1
        return self._fn(t)


@pytest.mark.parametrize("name, t, max_samples", [("pow2", 1.0, 4000), ("sin", 0.7, 6300)])
def test_reference_quadrature_takes_one_outer_qaws_integral(name, t, max_samples, monkeypatch):
    # one QAWS integral over the whole w line, with weights at both ends of
    # its logistic variable, makes 85 quad calls here for pow2 and for sin,
    # with 2647 (pow2) and 2605 (sin) d_upper samples, each outer abscissa
    # evaluated once, on the quadrature path: counts, unlike timings, repeat
    # exactly.  With the declared windows one quad call is left, the outer
    # integral, and one d_upper sample, at t for F(1).  pow2's declared
    # singular part is stripped too, so its windows sample d_upper
    counter = _CountingIntegrate(oracle.integrate)
    monkeypatch.setattr(oracle, "integrate", counter)
    problem = make_problem(name, 0.5)
    forcing = _CountingForcing(problem.d_upper)
    reference_quadrature(dataclasses.replace(problem, d_upper=forcing, window=None,
                                             singular_part=None), t, 1e-9)
    assert counter.alg_calls == 1
    assert counter.quad_calls <= 300
    assert forcing.calls <= max_samples
    counter.quad_calls = counter.alg_calls = forcing.calls = 0
    reference_quadrature(dataclasses.replace(problem, d_upper=forcing), t, 1e-9)
    assert (counter.quad_calls, counter.alg_calls, forcing.calls) == (1, 1, 1)


@pytest.mark.parametrize("name, alpha, n_steps, npoints", [("pow2", 0.7, 8, 10),
                                                           ("pow3", 2.4, 12, 20)])
def test_a_request_takes_kummer_once_per_outer_node_and_one_window_call_per_walk(
        name, alpha, n_steps, npoints, monkeypatch):
    # reference_quadrature's outer QAWS integral samples the same decays
    # x / (1 - x) at every time, and the power windows keep M(1, e + 2, -decay)
    # for scalar decays, so one decompose_error request calls scalar hyp1f1 at
    # most once per distinct outer node; each reference_quadrature call binds
    # its window to its span once, and the walk binds all its times' spans in
    # one array and takes their 2K nodes each in one array call.  Counts,
    # unlike timings, repeat exactly
    special = _CountingSpecial(scipy.special)
    monkeypatch.setattr(corpus, "special", special)
    q, outer_nodes = fractional_part(alpha), set()

    def quad(f, lo, hi, **kwargs):
        if kwargs.get("wvar") == (q - 1.0, -q):  # reference_quadrature's outer integral
            def sampled(x, _f=f):
                outer_nodes.add(x)
                return _f(x)
            return scipy.integrate.quad(sampled, lo, hi, **kwargs)
        return scipy.integrate.quad(f, lo, hi, **kwargs)

    monkeypatch.setattr(oracle, "integrate", types.SimpleNamespace(quad=quad))
    problem = make_problem(name, alpha, a=0.3, T=2.0)
    window = _CountingWindow(problem.window)
    decompose_error(dataclasses.replace(problem, window=window), gauss_laguerre_rule(npoints),
                    uniform_grid(0.3, 2.0, n_steps), truth_tol=1e-9)
    assert special.scalar_calls <= len(outer_nodes)
    assert window.scalar_calls >= 5 * special.scalar_calls  # the memo is what saves
    assert window.scalar_binds == n_steps  # one per reference_quadrature after t = a
    assert window.array_binds == window.array_calls == special.array_calls == 1


def test_reference_quadrature_reads_the_same_with_a_warm_kummer_memo(monkeypatch):
    # the memo keeps what hyp1f1 returned, so warming it with other times
    # leaves every value bit for bit, and the warm call needs no new hyp1f1
    special = _CountingSpecial(scipy.special)
    monkeypatch.setattr(corpus, "special", special)
    fresh = reference_quadrature(make_problem("pow2", 0.7, a=0.3, T=2.0), 2.3, 1e-9)
    problem = make_problem("pow2", 0.7, a=0.3, T=2.0)
    for t in (0.55, 1.3, 1.8):
        reference_quadrature(problem, t, 1e-9)
    special.scalar_calls = 0
    assert reference_quadrature(problem, 2.3, 1e-9).hex() == fresh.hex()
    assert special.scalar_calls == 0


@pytest.mark.parametrize("alpha, max_samples", [(0.5, 1200), (2.3, 2000)])
def test_reference_quadrature_reads_no_data_on_declared_full_windows(alpha, max_samples,
                                                                     monkeypatch):
    # pow2.5 declares d_upper(a + u) = u^sigma r(u), so each full window is one
    # QAWS integral of r (wvar (0, sigma)) and only clipped windows read
    # d_upper: 840 (alpha 0.5) and 1470 (alpha 2.3) samples here, against
    # 17325 and 37611 with QUADPACK bisecting toward tau = a
    problem = dataclasses.replace(make_problem("pow2.5", alpha), window=None)
    forcing = _CountingForcing(problem.d_upper)
    full_window_samples = []

    def quad(*args, **kwargs):
        before = forcing.calls
        result = scipy.integrate.quad(*args, **kwargs)
        if kwargs.get("wvar", (None,))[0] == 0.0:
            full_window_samples.append(forcing.calls - before)
        return result

    monkeypatch.setattr(oracle, "integrate", types.SimpleNamespace(quad=quad))
    reference_quadrature(dataclasses.replace(problem, d_upper=forcing), 1.0, 1e-9)
    assert len(full_window_samples) >= 50 and not any(full_window_samples)
    assert forcing.calls <= max_samples


@pytest.mark.parametrize("a", [0.0, -3.7, 1e6])
def test_no_oracle_sample_lies_below_the_left_endpoint(a):
    # every window is sampled from its left end lo >= a, so data that is
    # undefined below a (sqrt raises ValueError there) is never read there,
    # on either side of the clip w = ln 40 - ln(t - a); brute_force_caputo
    # samples a + (t - a) v, which must not round past t either
    samples = []

    def d_upper(tau: float) -> float:
        samples.append((tau, t))
        return math.sqrt(tau - a)

    rule = gauss_laguerre_rule(20)
    for alpha in (0.5, 0.999999):
        problem = DerivativeProblem(alpha=alpha, a=a, T=1.0, d_upper=d_upper)
        for frac in (1e-9, 1e-3, 0.3, 1.0):
            t = a + frac
            edge = math.log(40.0) - math.log(t - a)
            for w in (edge - 1e-12, edge + 1e-12, -50.0, 0.0, 30.0, 700.0):
                try:
                    exact_phi(problem, w, t)
                except OracleError:
                    pass
            for call in (lambda: exact_combination(problem, rule, t, 1e-9),
                         lambda: reference_quadrature(problem, t, 1e-9),
                         lambda: brute_force_caputo(problem, t, 1e-9)):
                try:
                    call()
                except OracleError:
                    pass
    assert samples and all(a <= tau <= t for tau, t in samples)


def test_brute_force_caputo_reads_no_data_past_t():
    # t - a = 1 + 1.5e-16 rounds up to 1 + 2^-52, so a + (t - a) v would
    # pass t = 1.5e-16 near v = 1, where sqrt(t - tau) raises ValueError
    a, t = -1.0, 1.5e-16
    problem = DerivativeProblem(alpha=0.5, a=a, T=2.0, d_upper=lambda tau: math.sqrt(t - tau))
    assert math.isfinite(brute_force_caputo(problem, t, 1e-9))


def test_reference_quadrature_converges_away_from_zero_left_endpoint():
    # at a = 0 the same t - a = 0.092 gives 4.6002..., within 2e-13 of the closed form
    problem = dataclasses.replace(make_problem("pow2.5", 2.7, a=-3.7, T=2.3), window=None)
    t = -3.7 + 0.092
    exact = corpus_function("pow2.5", 2.7, a=-3.7, T=2.3).exact_caputo(t)
    # the docstring's "at most about tol", with the factor 2 kept
    assert reference_quadrature(problem, t, 1e-9) == pytest.approx(exact, abs=2e-9)


@pytest.mark.parametrize("alpha, a, T", [(0.1, -3.7, 2.3), (1.3, 0.5, 30.0)])
def test_reference_quadrature_meets_a_1e_12_target_on_sin(alpha, a, T):
    # both cases converge at truth_tol 1e-11; the truths are 0.6020818819848168
    # and 0.3084188562407581
    for problem in _both_paths(make_problem("sin", alpha, a=a, T=T)):
        truth = brute_force_caputo(problem, problem.end, 1e-12)
        assert reference_quadrature(problem, problem.end, 1e-12) == pytest.approx(truth, abs=2e-12)


def test_reference_quadrature_meets_a_1e_11_target_away_from_zero_left_endpoint():
    # d_upper ~ (tau - a)^{-1/2}: sampled from a rounded tau, tau - a lost its
    # last digits at a = -3.7 and an inner quad missed its target; the declared
    # singular part weights full windows with u^sigma instead
    problem = dataclasses.replace(make_problem("pow2.5", 2.3, a=-3.7, T=2.3), window=None)
    t = -3.7 + 0.23
    exact = corpus_function("pow2.5", 2.3, a=-3.7, T=2.3).exact_caputo(t)
    assert reference_quadrature(problem, t, 1e-11) == pytest.approx(exact, abs=2e-11)


@pytest.mark.parametrize("name, alpha", [("pow2", 0.5), ("pow2.5", 2.5)])
@pytest.mark.parametrize("T", [5e-324, 1e-322, 1e-320, 1e-310])
def test_reference_quadrature_on_a_subnormal_span_meets_its_target_or_raises(name, alpha, T):
    # s = t - a is subnormal, so the window lengths s and 40 s (1 - x) / x
    # lose digits in F on the quadrature path
    exact = corpus_function(name, alpha, a=0.0, T=T).exact_caputo(T)
    for problem in _both_paths(make_problem(name, alpha, a=0.0, T=T)):
        try:
            value = reference_quadrature(problem, T, 1e-9)
        except OracleError:
            continue
        assert abs(value - exact) <= 2.0 * max(1e-9, 5e-13 * abs(exact)), (value, exact)


@pytest.mark.parametrize("T", [1e20, 1e40, 1e200])
def test_reference_quadrature_meets_its_target_on_long_spans(T):
    # the logistic variable is centred at s = t - a; centred at min(t - a, 1)
    # it read 1.5e-6 relative off at T = 1e20 and 1e13 times the value at 1e40
    exact = math.gamma(3.0) / math.gamma(1.5) * T**0.5
    for problem in _both_paths(make_problem("pow2", 1.5, a=0.0, T=T)):
        value = reference_quadrature(problem, T, 1e-9)
        assert abs(value - exact) <= 2.0 * max(1e-9, 5e-13 * abs(exact)), (value, exact)


@pytest.mark.parametrize("alpha", [1e-6, 1e-9])
def test_reference_quadrature_meets_a_1e_12_target_near_order_zero(alpha):
    # QAWS forms the weight's exponent q - 1 as (q - 1) + 1, which rounds q:
    # quad(lambda x: 1.0, 0, 1, weight="alg", wvar=(q - 1, 0)) is 1/((q - 1) + 1),
    # 2.9e-11 relative from 1/q at q = 1e-6 and 2.8e-8 at 1e-9.  With
    # (1 - x) F(0) taken out in closed form, the weight multiplies a function
    # that vanishes at x = 0, so the rounded exponent no longer shows
    exact = corpus_function("pow2", alpha).exact_caputo(1.0)
    for problem in _both_paths(make_problem("pow2", alpha)):
        error = reference_quadrature(problem, 1.0, 1e-12) - exact
        assert abs(error) <= 2.0 * max(1e-12, 5e-13 * abs(exact))


_SWEEP_ALPHAS = (0.1, 0.3, 0.5, 0.9, 0.96, 1.3, 1.5, 1.9, 2.3, 2.7)


def _accuracy_sweep(name: str, a: float, T: float, window: bool) -> None:
    # every case meets 2 max(tol, 5e-13 |truth|) against the closed form, or
    # brute_force_caputo at 1e-12 where there is none, and none raises
    for alpha in _SWEEP_ALPHAS:
        fn = corpus_function(name, alpha, a=a, T=T)
        problem = make_problem(name, alpha, a=a, T=T)
        if not window:
            problem = dataclasses.replace(problem, window=None)
        for frac in (0.1, 0.5, 1.0):
            t = a + frac * T
            truth = (fn.exact_caputo(t) if fn.exact_caputo is not None
                     else brute_force_caputo(problem, t, 1e-12))
            for tol in (1e-10, 1e-12):
                value = reference_quadrature(problem, t, tol)
                allowance = 2.0 * max(tol, 5e-13 * abs(truth))
                assert abs(value - truth) <= allowance, (alpha, frac, tol, value, truth)


_SWEEP_SPANS = [(0.0, 1.0), (-3.7, 2.3), (0.5, 30.0), (0.0, 0.02)]


@pytest.mark.parametrize("a, T", _SWEEP_SPANS)
@pytest.mark.parametrize("name", corpus_names())
def test_reference_quadrature_accuracy_sweep(name, a, T):
    _accuracy_sweep(name, a, T, window=False)


@pytest.mark.parametrize("a, T", _SWEEP_SPANS)
@pytest.mark.parametrize("name", corpus_names())
def test_reference_quadrature_accuracy_sweep_on_declared_windows(name, a, T):
    _accuracy_sweep(name, a, T, window=True)


_DECLARED_ALPHAS = (0.04, 0.3, 0.96, 1.5, 2.3, 2.7)
_DECLARED_WS = (-math.inf, -30.0, -1.0, 0.0, 3.0, 40.0, 760.0, 1e4, math.inf)


@pytest.mark.parametrize("a, T", _SWEEP_SPANS)
@pytest.mark.parametrize("name", corpus_names())
def test_declared_windows_match_the_quadrature_path(name, a, T):
    # the closed-form windows and nested quad read each oracle within
    # 2 max(tol, 5e-13 |value|) of each other; ln 2^60 - ln(t - a) -+ 1e-9
    # straddle the switch to the boundary-layer limit of exact_phi
    rule = gauss_laguerre_rule(8)
    weights = np.exp(rule.log_weights + rule.nodes)
    for alpha in _DECLARED_ALPHAS:
        declared, stripped = _both_paths(make_problem(name, alpha, a=a, T=T))
        for t in (a + 0.1 * T, a + T):
            switch = 60.0 * math.log(2.0) - math.log(t - a)
            for w in (*_DECLARED_WS, switch - 1e-9, switch + 1e-9):
                value = exact_phi(declared, w, t, 1e-13)
                gap = value - exact_phi(stripped, w, t, 1e-13)
                assert abs(gap) <= 2.0 * max(1e-13, 5e-13 * abs(value)), (alpha, t, w, gap)
            value = float(weights @ exact_combination(declared, rule, t, 1e-10))
            gap = value - float(weights @ exact_combination(stripped, rule, t, 1e-10))
            assert abs(gap) <= 2.0 * max(1e-10, 5e-13 * abs(value)), (alpha, t, gap)
        value = reference_quadrature(declared, a + T, 1e-10)
        gap = value - reference_quadrature(stripped, a + T, 1e-10)
        assert abs(gap) <= 2.0 * max(1e-10, 5e-13 * abs(value)), (alpha, gap)


@pytest.mark.parametrize("b", [1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
def test_hyp1f1_meets_40_digits_where_the_power_law_windows_call_it(b):
    # the power laws take M(1, e + 2, -decay) for e + 2 in {1.5, 2, ..., 4} up
    # to decay 2^60; beyond, near 1e100 and 1e300, hyp1f1 returns 0 or nan.
    # A scan of 11,000 decays read at most 1.25e-14 relative (b = 1.5, decay
    # 38.0) and 3.5e-15 for the other b
    decays = (0.0, *np.linspace(0.25, 100.0, 400), *np.geomspace(1e-300, 2.0**60, 200))
    with mpmath.workdps(40):
        for decay in decays:
            exact = mpmath.hyp1f1(1, b, -mpmath.mpf(float(decay)))
            value = scipy.special.hyp1f1(1.0, b, -float(decay))
            assert abs(value - exact) <= 2e-14 * abs(exact), (decay, value)


_WINDOW_SPANS = (5e-324, 1e-300, 1e-8, 0.002, 0.3, 0.49, 0.51, 1.0, 2.0 * math.pi, 30.0, 1e8)
_WINDOW_DECAYS = (0.0, 1e-300, 1e-8, 0.01, 0.3, 0.49, 0.51, 1.0, 40.0, 1e8, 2.0**60)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_elementary_windows_match_their_closed_forms(m):
    # V_S(decay) = int_0^1 d_upper(a + S (1 - v)) e^{-decay v} dv for
    # d_upper = sin(tau - a + m pi / 2) and e^{tau - a}, on both sides of sin's
    # Taylor branch at |decay + iS| = 1/2, at subnormal and long spans, one
    # decay at a time and all decays of a span in one array call; where
    # V = -S / 2 is subnormal it may round to its neighbour
    sin_window = corpus_function("sin", m - 0.5).problem.window
    exp_window = corpus_function("exp", m - 0.5).problem.window
    st, ct = (0, 1, 0, -1)[m % 4], (1, 0, -1, 0)[m % 4]
    with mpmath.workdps(700):  # the closed form cancels to (S^2 + decay^2) / 2 at 1e-300
        for span in map(mpmath.mpf, _WINDOW_SPANS):
            # sin(S + m pi / 2) and cos(S + m pi / 2), with the quarter turns exact
            sin_b = st * mpmath.cos(span) + ct * mpmath.sin(span)
            cos_b = ct * mpmath.cos(span) - st * mpmath.sin(span)
            sin_values = sin_window(float(span))(np.array(_WINDOW_DECAYS))
            exp_values = exp_window(float(span))(np.array(_WINDOW_DECAYS))
            for k, decay in enumerate(map(mpmath.mpf, _WINDOW_DECAYS)):
                exact = (decay * sin_b - span * cos_b
                         - mpmath.exp(-decay) * (decay * st - span * ct)) / (decay**2 + span**2)
                for value in (sin_window(float(span))(float(decay)), sin_values[k]):
                    assert abs(value - exact) <= 1e-14 * abs(exact) + 5e-324, (span, decay, value)
                if span < 700:
                    exact = mpmath.exp(span) * -mpmath.expm1(-(span + decay)) / (span + decay)
                    for value in (exp_window(float(span))(float(decay)), exp_values[k]):
                        assert abs(value - exact) <= 1e-14 * abs(exact) + 5e-324, (span, decay)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", corpus_names())
def test_corpus_windows_take_arrays_of_decays(name, m):
    # one call with an array of decays reads each decay's scalar call within
    # 1e-15 relative, and +-inf exactly where the scalar does (e^S or S^e
    # past double range)
    window = corpus_function(name, m - 0.5).problem.window
    if window is None:  # pow2.5 above order 3: not integrable at a
        return
    decays = np.array(_WINDOW_DECAYS)
    for span in _WINDOW_SPANS:
        values = window(span)(decays)
        assert isinstance(values, np.ndarray) and values.shape == decays.shape, span
        for decay, value in zip(_WINDOW_DECAYS, values):
            scalar = window(span)(decay)
            if math.isinf(scalar):
                assert value == scalar, (span, decay, value)
            else:
                assert abs(value - scalar) <= 1e-15 * abs(scalar) + 5e-324, (
                    span, decay, value, scalar)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("name", corpus_names())
def test_corpus_windows_bind_a_column_of_spans(name, m):
    # one bind to a column of spans against a row of decays reads each
    # (span, decay)'s scalar value within 1e-15 relative, and +-inf exactly
    # where the scalar does (e^S or S^e past double range)
    window = corpus_function(name, m - 0.5).problem.window
    if window is None:  # pow2.5 above order 3: not integrable at a
        return
    values = window(np.array(_WINDOW_SPANS)[:, None])(np.array(_WINDOW_DECAYS))
    assert values.shape == (len(_WINDOW_SPANS), len(_WINDOW_DECAYS))
    for span, row in zip(_WINDOW_SPANS, values.tolist()):
        for decay, value in zip(_WINDOW_DECAYS, row):
            scalar = window(span)(decay)
            if math.isinf(scalar):
                assert value == scalar, (span, decay, value)
            else:
                assert abs(value - scalar) <= 1e-15 * abs(scalar) + 5e-324, (
                    span, decay, value, scalar)


def test_the_sin_window_runs_its_series_only_where_a_decay_is_near_zero(monkeypatch):
    # at span 1 every |decay + i| >= 1, so the series has nothing to replace;
    # at span 0.3 one decay of three lies within 1/2 of 0 and takes it
    calls = []
    series = corpus._unit_series
    monkeypatch.setattr(corpus, "_unit_series", lambda z: calls.append(np.shape(z)) or series(z))
    decays = np.linspace(0.0, 40.0, 40)
    window = corpus_function("sin", 0.5).problem.window
    far = window(1.0)(decays)
    assert calls == []
    scalars = np.array([window(1.0)(d) for d in decays.tolist()])
    assert np.all(np.abs(far - scalars) <= 1e-15 * np.abs(scalars))
    near = window(0.3)(np.array([0.1, 1.0, 40.0]))
    assert calls == [(1,)]
    assert abs(near[0] - window(0.3)(0.1)) <= 1e-15 * abs(near[0])
    assert calls == [(1,), ()]  # and a scalar decay near 0, from its own branch


def test_a_window_that_is_nan_at_interior_times_raises_naming_the_earliest():
    # the walk binds every time's span at once; a value that is not finite
    # names the earliest time it appears at, as a loop over the times would
    base = make_problem("pow2", 0.5)

    def window(span):
        bound = base.window(span)
        return lambda decay: np.where((span == 0.5) | (span == 0.75), math.nan, bound(decay))

    problem = dataclasses.replace(base, window=window)
    with pytest.raises(OracleError, match=r"at t = 0\.5 is nan"):
        decompose_error(problem, gauss_laguerre_rule(8), uniform_grid(0.0, 1.0, 4))


@pytest.mark.parametrize("npoints", [8, 64, 256])
def test_exact_combination_is_a_loop_of_exact_phi(npoints):
    # one window call per time takes all 2K nodes, and node for node it reads
    # what exact_phi reads, on both sides of the switch to the boundary-layer
    # limit at decay (t - a) e^w = 2^60: to rounding with a declared window,
    # and within the oracle allowance on the quadrature route, whose node
    # targets differ from exact_phi's (K = 256 takes the declared route only)
    rule = gauss_laguerre_rule(npoints)
    budget = 1e-10
    past_switch = set()
    for name in corpus_names():
        for alpha in (0.04, 0.5, 0.96, 2.3):
            q = fractional_part(alpha)
            node_tols = np.maximum(budget * min(q, 1.0 - q) / (4.0 * npoints)
                                   * np.exp(-rule.log_weights - rule.nodes), 1e-12)
            paths = _both_paths(make_problem(name, alpha, a=-3.7, T=30.0))
            for problem in paths[:1] if npoints > 64 else paths:
                for t in (-3.7 + 1e-6, 26.3):
                    values = exact_combination(problem, rule, t, budget)
                    for x, tol, value in zip(rule.nodes.tolist(), node_tols, values):
                        lo, hi = exact_phi(problem, -x / q, t), exact_phi(problem, x / (1.0 - q), t)
                        expected = lo / q + hi / (1.0 - q)
                        if problem.window is None:
                            allowance = 2.0 * (max(tol, 5e-13 * abs(lo)) / q
                                               + max(tol, 5e-13 * abs(hi)) / (1.0 - q))
                        else:
                            allowance = 1e-15 * abs(expected) + 5e-324
                        assert abs(value - expected) <= allowance, (
                            name, alpha, t, x, value, expected, problem.window is None)
                        past_switch.add(x / (1.0 - q) + math.log(t + 3.7)
                                        > 60.0 * math.log(2.0))
    assert past_switch == {False, True}


@pytest.mark.parametrize("name, alpha, quad_calls", [("pow2", 0.5, 87), ("exp", 0.9, 74)])
def test_the_quadrature_route_integrates_only_what_it_uses(name, alpha, quad_calls, monkeypatch):
    # data that declares no window takes one quad per node with decay
    # (t - a) e^w <= 2^60 and none past it, where phi is its boundary-layer
    # limit: 87 (pow2) and 74 (exp) of the 128 nodes at K = 64 and t - a = 1
    rule = gauss_laguerre_rule(64)
    q = fractional_part(alpha)
    w = np.concatenate((-rule.nodes / q, rule.nodes / (1.0 - q)))
    assert np.count_nonzero(w <= 60.0 * math.log(2.0)) == quad_calls
    counter = _CountingIntegrate(oracle.integrate)
    monkeypatch.setattr(oracle, "integrate", counter)
    problem = dataclasses.replace(make_problem(name, alpha), window=None, singular_part=None)
    values = exact_combination(problem, rule, 1.0, 1e-10)
    assert np.isfinite(values).all()
    assert counter.quad_calls == quad_calls
    for w, calls in ((60.0 * math.log(2.0) - 0.5, 1), (60.0 * math.log(2.0) + 0.5, 0)):
        counter.quad_calls = 0
        assert math.isfinite(exact_phi(problem, w, 1.0))
        assert counter.quad_calls == calls, w


def test_undeclared_data_that_is_nan_at_t_raises_naming_t():
    # past decay 2^60 phi takes d_upper(t) as it is, on the quadrature route too
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0,
                                d_upper=lambda tau: math.nan if tau == 0.75 else 1.0)
    with pytest.raises(OracleError, match=r"at t = 0\.75 is nan"):
        exact_phi(problem, 60.0, 0.75)


def test_data_past_double_range_raises_on_both_paths():
    # e^{t - a} leaves double range past t - a = 709.78: as d_upper on the
    # quadrature path, and as the window's factor e^S on the declared one
    rule = gauss_laguerre_rule(8)
    for problem in _both_paths(make_problem("exp", 0.5, 0.0, 800.0)):
        with pytest.raises(OracleError):
            exact_phi(problem, 0.0, 800.0, 1e-10)
        with pytest.raises(OracleError):
            exact_combination(problem, rule, 800.0, 1e-9)
        with pytest.raises(OracleError):
            reference_quadrature(problem, 800.0, 1e-9)


_FRESH_PROCESS = """
import sys
import diffcap, diffcap.cli
diffcap.cli.main(["derivative", "alpha=0.6", "a=0", "T=1", "N=40", "K=16",
                  "function=sin", "grid=graded(2)", "output=" + sys.argv[1]])
print(all(diffcap.brute_force_caputo(diffcap.make_problem(name, alpha, a=-3.7, T=2.3), -3.7) == 0.0
          for name in diffcap.corpus_names() for alpha in (0.5, 1.3, 2.7)))
print("scipy.integrate" in sys.modules, "scipy.special" in sys.modules)
print(repr(diffcap.brute_force_caputo(diffcap.make_problem("sin", 0.5), 0.7, 1e-10)))
print("scipy.integrate" in sys.modules)
"""


def test_scipy_loads_on_the_first_quadrature_only(tmp_path):
    # the scheme, the CLI's derivative command and the oracles at t = a never
    # integrate, and building a corpus window calls no hyp1f1, so a fresh
    # process must not pay for scipy.integrate or scipy.special until an
    # oracle needs them
    env = dict(os.environ)
    src = str(Path(diffcap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    output = tmp_path / "derivative.csv"
    done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, str(output)], env=env,
                          capture_output=True, text=True, check=True)
    value = brute_force_caputo(make_problem("sin", 0.5), 0.7, 1e-10)
    assert done.stdout.splitlines() == ["True", "False False", repr(value), "True"]
    assert len(output.read_text(encoding="utf-8").splitlines()) == 42


def test_brute_force_power_rule_linear():
    problem = make_problem("pow1", 0.5)
    assert brute_force_caputo(problem, 1.0, 1e-11) == pytest.approx(
        2.0 / math.sqrt(math.pi), abs=1e-10
    )


def test_brute_force_power_rule_quadratic():
    problem = make_problem("pow2", 0.5)
    expected = math.gamma(3.0) / math.gamma(2.5)
    assert brute_force_caputo(problem, 1.0, 1e-11) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(1.5045056, abs=1e-7)


def test_brute_force_constant_function_is_zero():
    # y(t) = t has vanishing second derivative, so its order-1.5 derivative
    # is identically zero just like any constant's order-0.5 derivative
    problem = make_problem("pow1", 1.5)
    for t in (0.0, 0.25, 1.0):
        assert brute_force_caputo(problem, t, 1e-10) == 0.0


def test_brute_force_validates_inputs():
    problem = make_problem("pow1", 0.5)
    with pytest.raises(InvalidParameterError):
        brute_force_caputo(problem, 1.5, 1e-10)
    with pytest.raises(InvalidParameterError):
        brute_force_caputo(problem, 0.5, 1.0)


@pytest.mark.parametrize("a", [0.0, -3.7])
@pytest.mark.parametrize("alpha", [0.5, 1.3, 2.3, 2.7])
def test_brute_force_caputo_meets_its_target_on_declared_singular_data(alpha, a):
    # pow2.5 declares d_upper(a + u) = u^{2.5 - m} r(u); without it, alpha 2.3
    # at t - a = 0.82355625 raised OracleError ("roundoff error is detected in
    # the extrapolation table") at tol 1e-11
    exact_caputo = corpus_function("pow2.5", alpha, a=a).exact_caputo
    problem = make_problem("pow2.5", alpha, a=a)
    for t in (a + 0.1, a + 0.82355625, a + 1.0):
        exact = exact_caputo(t)
        error = brute_force_caputo(problem, t, 1e-11) - exact
        assert abs(error) <= 2.0 * max(1e-11, 5e-13 * abs(exact)), (t, error)


@pytest.mark.parametrize("gap", [1e-5, 1e-6])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", ["pow1", "pow2", "pow3", "pow2.5"])
def test_brute_force_caputo_meets_its_target_just_below_integer_orders(name, m, gap):
    # tau = t - sigma^{1/mu} once squeezed all of [a, t] but a thin layer next
    # to t into sigma within about mu of its upper limit, where QUADPACK's
    # first rule took no sample: pow2 at alpha 1 - 1e-6 read 2e-6 off
    alpha, tol = m - gap, 1e-10
    exact = corpus_function(name, alpha).exact_caputo(1.0)
    error = brute_force_caputo(make_problem(name, alpha), 1.0, tol) - exact
    assert abs(error) <= 2.0 * max(tol, 5e-13 * abs(exact)), (alpha, error)


@pytest.mark.parametrize("alpha", [0.999999, 1.999999])
def test_brute_force_caputo_on_exp_just_below_integer_orders(alpha):
    # the order-mu integral of e^{tau - a} is e^{t - a} P(mu, t - a), mu = ceil(alpha) - alpha
    tol, t = 1e-10, 1.0
    exact = math.exp(t) * scipy.special.gammainc(math.ceil(alpha) - alpha, t)
    error = brute_force_caputo(make_problem("exp", alpha), t, tol) - exact
    assert abs(error) <= 2.0 * max(tol, 5e-13 * abs(exact)), error


def test_brute_force_caputo_on_a_subnormal_span():
    # pow2.5 at alpha 2.5 has the constant derivative Gamma(3.5) = 3.323...
    # for every t - a > 0; a span of one subnormal once read 3.158
    exact = corpus_function("pow2.5", 2.5, 0.0, 5e-324).exact_caputo(5e-324)
    value = brute_force_caputo(make_problem("pow2.5", 2.5, 0.0, 5e-324), 5e-324, 1e-10)
    assert abs(value - exact) <= 2.0 * max(1e-10, 5e-13 * abs(exact)), (value, exact)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("name", ["pow1", "pow2", "pow3", "pow2.5"])
def test_closed_forms_agree_with_brute_force(name, alpha):
    fn = corpus_function(name, alpha)
    if fn.exact_caputo is None:
        pytest.skip("no closed form for this entry")
    problem = make_problem(name, alpha)
    for t in np.linspace(0.1, 1.0, 10):
        assert fn.exact_caputo(float(t)) == pytest.approx(
            brute_force_caputo(problem, float(t), 1e-10), abs=1e-8
        )


@pytest.mark.parametrize("name", corpus_names())
def test_cross_oracle_agreement_on_corpus(name):
    tol = 1e-9
    problem = make_problem(name, 0.5)
    for t in (0.3, 1.0):
        ref = reference_quadrature(problem, t, tol)
        brute = brute_force_caputo(problem, t, tol)
        assert abs(ref - brute) <= 5.0 * tol


def test_corpus_derivatives_are_order_specific():
    fn = corpus_function("pow3", 1.5)  # ceil(alpha) = 2: second derivative 6(t - a)
    assert fn.problem.d_upper(0.5) == pytest.approx(3.0)
    assert fn.problem.d_upper_plus(0.5) == pytest.approx(6.0)
    assert fn.d_upper_sup == pytest.approx(6.0)
    fn = corpus_function("sin", 0.5)  # first derivative cos(t - a)
    assert fn.problem.d_upper(0.0) == pytest.approx(1.0)
    assert fn.problem.d_upper_plus(0.0) == pytest.approx(0.0, abs=1e-15)


def test_power_sup_norms_come_from_the_derivative_at_the_interval_length():
    # taken at t - a = T exactly: (a + T) - a = 0.30000000000000004 - 0.1
    # would read 0.4000000000000001
    assert corpus_function("pow2", 0.5, a=0.1, T=0.2).d_upper_sup == 0.4
    assert corpus_function("pow2", 0.5, T=0.2).d_upper_sup == 0.4
    # an integer power below the order has a zero derivative
    assert corpus_function("pow2", 2.5).d_upper_sup == 0.0


def test_low_regularity_power_has_singular_next_derivative():
    fn = corpus_function("pow2.5", 1.5)  # third derivative blows up at a
    assert fn.problem.d_upper(0.0) == 0.0
    assert fn.problem.d_upper_plus(0.0) == math.inf
    assert fn.d_upper_plus_sup is None


#: every power and order band whose m-th derivative is a power law, p > m - 1
_DECLARED_POWERS = [(name, alpha) for name, p in corpus._POWER_EXPONENTS.items()
                    for alpha in (0.5, 1.3, 2.7) if p > math.ceil(alpha) - 1]


@pytest.mark.parametrize("a", [0.0, -3.7])
@pytest.mark.parametrize("name, alpha", _DECLARED_POWERS)
def test_declared_singular_part_is_the_data(name, alpha, a):
    # one alpha per band: d_upper(a + u) = u^sigma r(u), sigma = p - m, at the
    # offsets u = tau - a that d_upper itself forms
    p = corpus._POWER_EXPONENTS[name]
    sigma, r = make_problem(name, alpha, a=a, T=2.3).singular_part
    d_upper = corpus_function(name, alpha, a=a, T=2.3).problem.d_upper
    assert sigma == p - math.ceil(alpha)
    for tau in a + np.linspace(0.0, 2.3, 58)[1:]:
        u = float(tau) - a
        assert u**sigma * r(u) == pytest.approx(d_upper(float(tau)), rel=4e-16)


def test_every_corpus_entry_declares_a_window_where_its_data_is_integrable():
    # the fourth derivative of (t - a)^2.5 is not integrable at a, so pow2.5
    # above order 3 declares no window and its oracles raise
    for name in corpus_names():
        for alpha in (0.5, 1.3, 2.7, 3.5):
            declared = make_problem(name, alpha).window is not None
            assert declared == (name != "pow2.5" or alpha < 3.0), (name, alpha)
    assert make_problem("pow2", 2.5).window(1.0)(3.0) == 0.0


def test_powers_declare_a_singular_part_where_their_data_is_a_power():
    # (t - a)^p has m-th derivative Gamma(p + 1) / Gamma(p - m + 1) u^{p - m}
    # wherever p > m - 1; below that it is 0 (integer p) or not integrable
    for name in corpus_names():
        for alpha in (0.5, 1.3, 2.7, 3.5):
            m = math.ceil(alpha)
            part = make_problem(name, alpha).singular_part
            p = corpus._POWER_EXPONENTS.get(name)
            assert (part is not None) == (p is not None and p > m - 1), (name, alpha)
            if part is not None:
                assert part[0] == p - m
                assert part[1](0.0) == math.gamma(p + 1.0) / math.gamma(p - m + 1.0)


def test_closed_forms_overflow_to_infinity():
    assert make_problem("exp", 0.5, 0.0, 800.0).d_upper(800.0) == math.inf
    fn = corpus_function("exp", 0.5, T=800.0)
    assert fn.d_upper_sup == fn.d_upper_plus_sup == math.inf
    assert corpus_function("pow2", 0.5, a=1e300, T=1e300).exact_caputo(2e300) == math.inf
    assert corpus_function("pow3", 0.5, T=1e300).d_upper_sup == math.inf
    # the fourth derivative of (t - a)^2.5 is negative and overflows next to a
    assert corpus_function("pow2.5", 2.3).problem.d_upper_plus(1e-300) == -math.inf


def test_unknown_corpus_name_rejected():
    with pytest.raises(InvalidParameterError):
        corpus_function("pow7", 0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -0.5, 1.0])
@pytest.mark.parametrize("name", corpus_names())
def test_corpus_rejects_invalid_orders_as_order_errors(name, alpha):
    # nan and +-inf used to fail in ceil(alpha), as ValueError and OverflowError
    with pytest.raises(InvalidOrderError):
        corpus_function(name, alpha)
    with pytest.raises(InvalidOrderError):
        make_problem(name, alpha)


def test_make_problem_wires_the_interval():
    problem = make_problem("exp", 0.5, a=-1.0, T=2.0)
    assert problem.a == -1.0
    assert problem.T == 2.0
    assert problem.d_upper(-1.0) == pytest.approx(1.0)
    assert require_d_upper_plus(problem)(1.0) == pytest.approx(math.exp(2.0))


def test_require_d_upper_plus_raises_when_missing():
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 1.0)
    with pytest.raises(UnsupportedOperationError):
        require_d_upper_plus(problem)


def test_adaptive_integral_rejects_an_error_estimate_above_its_target(monkeypatch):
    # quad reports success (no fourth output) with an estimate far above the target
    class _Stub:
        @staticmethod
        def quad(*args, **kwargs):
            return 1.0, 1.0

    monkeypatch.setattr(oracle, "integrate", _Stub)
    with pytest.raises(OracleError, match="reached error estimate"):
        oracle._adaptive_integral(math.exp, 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("value, abserr", [(math.inf, math.inf), (-math.inf, 0.0),
                                           (math.nan, math.nan)])
def test_adaptive_integral_rejects_a_value_that_is_not_finite(value, abserr, monkeypatch):
    # 5e-13 |inf| is inf, so an infinite value once passed as its own error floor
    monkeypatch.setattr(oracle, "integrate",
                        types.SimpleNamespace(quad=lambda *args, **kwargs: (value, abserr)))
    with pytest.raises(OracleError, match="reached error estimate"):
        oracle._adaptive_integral(math.exp, 0.0, 1.0, 1e-10)

