import math

import numpy as np
import pytest

from diffcap import (
    DerivativeProblem,
    InvalidParameterError,
    UnsupportedOperationError,
    brute_force_caputo,
    corpus_function,
    corpus_names,
    exact_combination,
    exact_phi,
    gauss_laguerre_rule,
    make_problem,
    fractional_part,
    reference_quadrature,
    signed_prefactor,
)
from diffcap.oracle import require_d_upper_plus
from diffcap.quadrature import QuadratureRule


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
    assert fn.d_upper(0.5) == pytest.approx(3.0)
    assert fn.d_upper_plus(0.5) == pytest.approx(6.0)
    assert fn.d_upper_sup == pytest.approx(6.0)
    fn = corpus_function("sin", 0.5)  # first derivative cos(t - a)
    assert fn.d_upper(0.0) == pytest.approx(1.0)
    assert fn.d_upper_plus(0.0) == pytest.approx(0.0, abs=1e-15)


def test_low_regularity_power_has_singular_next_derivative():
    fn = corpus_function("pow2.5", 1.5)  # third derivative blows up at a
    assert fn.d_upper(0.0) == 0.0
    assert fn.d_upper_plus(0.0) == math.inf
    assert fn.d_upper_plus_sup is None


def test_closed_forms_overflow_to_infinity():
    assert make_problem("exp", 0.5, 0.0, 800.0).d_upper(800.0) == math.inf
    fn = corpus_function("exp", 0.5, T=800.0)
    assert fn.d_upper_sup == fn.d_upper_plus_sup == math.inf
    assert corpus_function("pow2", 0.5, a=1e300, T=1e300).exact_caputo(2e300) == math.inf
    assert corpus_function("pow3", 0.5, T=1e300).d_upper_sup == math.inf
    # the fourth derivative of (t - a)^2.5 is negative and overflows next to a
    assert corpus_function("pow2.5", 2.3).d_upper_plus(1e-300) == -math.inf


def test_unknown_corpus_name_rejected():
    with pytest.raises(InvalidParameterError):
        corpus_function("pow7", 0.5)


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
