import collections
import itertools
import math
import re
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diffcap import (
    BACKWARD_EULER,
    METHODS,
    TRAPEZOIDAL,
    DerivativeProblem,
    DiffusiveSystem,
    EvaluationError,
    InvalidParameterError,
    TimeGrid,
    advance,
    backward_euler_log_amplification,
    brute_force_caputo,
    build_system,
    evaluate_derivative,
    gauss_laguerre_rule,
    graded_grid,
    iter_solution,
    make_problem,
    signed_prefactor,
    truncate_rule,
    uniform_grid,
)
from diffcap import steppers
from diffcap.corpus import corpus_names
from diffcap.steppers import (
    _BLOCK,
    _CHUNK,
    _PASS_BLOCKS,
    quadrature_coefficients,
    state_combination,
)

#: steps of one block pass
_PASS = _PASS_BLOCKS * _BLOCK


def _single_node_system(alpha: float, w: float) -> DiffusiveSystem:
    # both blocks pinned to the same exponent: handy for scalar-recurrence tests
    from diffcap.diffusive import fractional_part

    return DiffusiveSystem(
        fractional_part=fractional_part(alpha),
        c=signed_prefactor(alpha),
        exponents=np.array([w, w]),
        weights=np.ones(2),
    )


def test_backward_euler_pure_decay_half():
    # h e^w = 1 with zero forcing halves the state
    system = _single_node_system(0.5, 0.0)
    out = advance(np.array([1.0, 1.0]), system, BACKWARD_EULER, 1.0, 0.0, 0.0)
    assert out == pytest.approx([0.5, 0.5], rel=1e-15)


def test_backward_euler_extreme_stiffness_damps_to_zero():
    system = _single_node_system(0.5, 800.0)
    out = advance(np.array([3.0, -7.0]), system, BACKWARD_EULER, 1.0, 0.0, 0.0)
    assert np.all(np.abs(out) <= 1e-300)


@pytest.mark.parametrize("method", [BACKWARD_EULER, TRAPEZOIDAL])
@pytest.mark.parametrize("lam_h", [1e-3, 1.0, 1e3])
def test_constant_forcing_matches_closed_form(method, lam_h):
    h = 1.0
    w = math.log(lam_h / h)
    g = 1.37
    alpha = 0.5
    system = _single_node_system(alpha, w)
    phi = np.zeros(2)
    n_steps = 1000
    for _ in range(n_steps):
        phi = advance(phi, system, method, h, g, g)
    lam = math.exp(w)
    b = system.c * math.exp(w * system.fractional_part) * g
    if method == BACKWARD_EULER:
        # phi_n = (b / lam) (1 - (1 + h lam)^{-n})
        expected = (b / lam) * (1.0 - math.exp(-n_steps * math.log1p(h * lam)))
    else:
        amp = (1.0 - h * lam / 2.0) / (1.0 + h * lam / 2.0)
        gain = h * b / (1.0 + h * lam / 2.0)
        expected = gain * (1.0 - amp**n_steps) / (1.0 - amp)
    assert phi[0] == pytest.approx(expected, rel=1e-13)
    assert phi[1] == pytest.approx(expected, rel=1e-13)


def _trapezoidal_amplification(w: float, h: float) -> float:
    # one trapezoidal step of phi = 1 with zero forcing leaves A phi = A
    out = advance(np.array([1.0, 1.0]), _single_node_system(0.5, w), TRAPEZOIDAL, h, 0.0, 0.0)
    assert out[0] == out[1]
    return float(out[0])


def test_trapezoidal_amplification_zero_at_two():
    assert _trapezoidal_amplification(math.log(2.0), 1.0) == 0.0


def test_trapezoidal_amplification_tends_to_minus_one():
    assert _trapezoidal_amplification(800.0, 1.0) == -1.0
    assert abs(_trapezoidal_amplification(25.0, 1.0)) < 1.0


@given(
    st.floats(min_value=-50.0, max_value=750.0),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_backward_euler_is_a_stable(w, h):
    log_amp = float(backward_euler_log_amplification(w, h))
    assert math.isfinite(log_amp)
    assert log_amp < 0.0
    amp = float(np.exp(log_amp))
    assert 0.0 <= amp <= 1.0


def test_log_amplification_matches_mpmath():
    # -ln(1 + h e^w) at 40 digits, over the exponents the W+ block reaches
    ws = np.linspace(-60.0, 800.0, 431)
    worst = 0.0
    with mpmath.workdps(40):
        for h in np.logspace(-8.0, 1.0, 19):
            got = backward_euler_log_amplification(ws, float(h))
            for w, value in zip(ws, got):
                exact = -mpmath.log1p(mpmath.mpf(float(h)) * mpmath.exp(mpmath.mpf(float(w))))
                worst = max(worst, float(abs((value - exact) / exact)))
    assert worst <= 2e-14


def test_step_coefficients_match_mpmath():
    # A and Q of one step, read off advance (phi = 1 with zero forcing gives A,
    # phi = 0 with g_next = 1 and c = 1 gives Q), against 40 digits, wherever
    # the value exceeds 1e-300; e^w is inf above w = 709.78
    ws = np.linspace(-60.0, 800.0, 173)
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(ws)).any()
    worst_a = worst_q = 0.0
    with mpmath.workdps(40):
        for q in (0.04, 0.5, 0.96):
            system = DiffusiveSystem(fractional_part=q, c=1.0, exponents=ws, weights=np.ones(len(ws)))
            for h in np.logspace(-8.0, 1.0, 10):
                h = float(h)
                for method in METHODS:
                    amp = advance(np.ones(len(ws)), system, method, h, 0.0, 0.0)
                    gain = advance(np.zeros(len(ws)), system, method, h, 0.0, 1.0)
                    assert not np.isnan(amp).any() and not np.isnan(gain).any()
                    assert np.all(gain >= 0.0)
                    lowest = 0.0 if method == BACKWARD_EULER else -1.0
                    assert np.all((amp >= lowest) & (amp <= 1.0))
                    s = mpmath.mpf(h) if method == BACKWARD_EULER else mpmath.mpf(h) / 2
                    for w, a, g in zip(ws, amp, gain):
                        w = mpmath.mpf(float(w))
                        b = 1 / (1 + s * mpmath.exp(w))
                        exact_a = b if method == BACKWARD_EULER else 2 * b - 1
                        exact_q = s * mpmath.exp(mpmath.mpf(q) * w) * b
                        # relative, but to B where the trapezoidal 2B - 1 cancels
                        scale = max(abs(exact_a), b)
                        if scale > 1e-300:
                            worst_a = max(worst_a, float(abs(a - exact_a) / scale))
                        if exact_q > 1e-300:
                            worst_q = max(worst_q, float(abs((g - exact_q) / exact_q)))
                    if method == BACKWARD_EULER:
                        # the log form is the reference, to its own |d ln B| <= 2e-14 |ln B|
                        log_b = backward_euler_log_amplification(ws, h)
                        ref = np.exp(log_b)
                        kept = ref > 1e-300
                        rel = np.abs(amp[kept] - ref[kept]) / ref[kept]
                        assert np.all(rel <= 2e-14 * np.maximum(1.0, np.abs(log_b[kept])))
    assert worst_a <= 4e-15
    assert worst_q <= 2e-13


def test_amplification_rejects_nonpositive_step():
    with pytest.raises(InvalidParameterError):
        backward_euler_log_amplification(1.0, 0.0)
    for h in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            backward_euler_log_amplification(1.0, h)


def test_bounded_forcing_respects_maximum_principle():
    rng = np.random.default_rng(42)
    alpha = 0.7
    system = build_system(
        DerivativeProblem(alpha=alpha, a=0.0, T=100.0, d_upper=lambda t: 0.0),
        gauss_laguerre_rule(8),
    )
    bound_m = 2.5
    limit = np.maximum(
        0.0, bound_m * abs(system.c) * np.exp(system.exponents * (system.fractional_part - 1.0))
    )
    phi = np.zeros(len(system.exponents))
    for _ in range(60):
        h = float(rng.uniform(0.01, 1.5))
        g = float(rng.uniform(-bound_m, bound_m))
        phi = advance(phi, system, BACKWARD_EULER, h, g, g)
        assert np.all(np.abs(phi) <= limit * (1.0 + 1e-12))


def test_evaluate_derivative_is_linear_in_forcing():
    alpha = 0.5
    rule = gauss_laguerre_rule(12)
    grid = uniform_grid(0.0, 1.0, 40)
    g1 = lambda t: t * t  # noqa: E731
    g2 = lambda t: math.sin(3.0 * t)  # noqa: E731
    b1, b2 = 2.25, -0.75

    def problem(fn):
        return DerivativeProblem(alpha=alpha, a=0.0, T=1.0, d_upper=fn)

    out1 = evaluate_derivative(problem(g1), rule, grid)
    out2 = evaluate_derivative(problem(g2), rule, grid)
    combined = evaluate_derivative(
        problem(lambda t: b1 * g1(t) + b2 * g2(t)), rule, grid
    )
    expected = b1 * out1 + b2 * out2
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(combined - expected)) <= 1e-10 * scale


def test_zero_forcing_keeps_output_identically_zero():
    problem = DerivativeProblem(alpha=0.3, a=0.0, T=2.0, d_upper=lambda t: 0.0)
    values = evaluate_derivative(problem, gauss_laguerre_rule(10), uniform_grid(0.0, 2.0, 25))
    assert np.all(values == 0.0)


def test_first_output_is_exactly_zero():
    problem = make_problem("pow2", 0.5)
    values = evaluate_derivative(problem, gauss_laguerre_rule(10), uniform_grid(0.0, 1.0, 5))
    assert values[0] == 0.0


def test_extreme_stiffness_stays_finite():
    problem = make_problem("pow2", 0.9)
    values = evaluate_derivative(problem, gauss_laguerre_rule(60), uniform_grid(0.0, 1.0, 50))
    assert np.all(np.isfinite(values))


def test_end_to_end_accuracy_on_linear_function():
    problem = make_problem("pow1", 0.5)
    values = evaluate_derivative(
        problem, gauss_laguerre_rule(30), uniform_grid(0.0, 1.0, 2000)
    )
    assert values[-1] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-4)


def test_graded_grid_is_supported():
    problem = make_problem("pow2", 0.5)
    grid = graded_grid(0.0, 1.0, 30, exponent=2.0)
    values = evaluate_derivative(problem, gauss_laguerre_rule(10), grid)
    assert values[0] == 0.0
    assert np.all(np.isfinite(values))


def test_trapezoidal_method_runs_end_to_end():
    problem = make_problem("pow1", 0.5)
    values = evaluate_derivative(
        problem, gauss_laguerre_rule(20), uniform_grid(0.0, 1.0, 400), method=TRAPEZOIDAL
    )
    assert values[-1] == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-3)


def _trapezoidal_error_at_end(name: str, alpha: float, n_steps: int) -> float:
    problem = make_problem(name, alpha)
    grid = uniform_grid(problem.a, problem.T, n_steps)
    values = evaluate_derivative(problem, gauss_laguerre_rule(64), grid, method=TRAPEZOIDAL)
    exact = brute_force_caputo(problem, problem.end, 1e-12)
    return abs(values[-1] - exact) / abs(exact)


@pytest.mark.parametrize(
    "name, alpha, bound",
    [("exp", 0.9, 1e-3), ("exp", 0.97, 1e-3), ("exp", 1.95, 1e-3), ("pow2.5", 2.3, 0.1)],
)
def test_trapezoidal_start_leaves_no_start_up_layer(name, alpha, bound):
    # a trapezoidal first step leaves an error of about g(a) / lambda on the
    # stiff modes that its amplification (-> -1) never damps: 0.12 to 0.25 at
    # T for these exp cases, and pow2.5 at alpha = 2.3 has d_upper(a) = inf
    assert _trapezoidal_error_at_end(name, alpha, 100) < bound


@pytest.mark.parametrize("name, alpha, n_steps", [("pow2", 0.5, 100), ("sin", 1.3, 400)])
def test_trapezoidal_keeps_second_order_after_backward_euler_start(name, alpha, n_steps):
    # order 2 would give 16 per fourfold refinement
    coarse = _trapezoidal_error_at_end(name, alpha, n_steps)
    fine = _trapezoidal_error_at_end(name, alpha, 4 * n_steps)
    assert coarse / fine >= 12.0


def test_truncation_reduces_state_size():
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(10)
    grid = uniform_grid(0.0, 1.0, 4)
    sizes = {phi.shape for phi in iter_solution(problem, truncate_rule(rule, 6), grid)}
    assert sizes == {(12,)}
    full = evaluate_derivative(problem, rule, grid)
    cut = evaluate_derivative(problem, truncate_rule(rule, 6), grid)
    assert cut.shape == full.shape
    assert not np.allclose(full[1:], cut[1:])


def test_state_combination_equal_phi_values():
    q = 0.3
    p = 0.7
    expected = p * (1.0 / q + 1.0 / (1.0 - q))
    assert state_combination(q, np.array([p, p])) == pytest.approx([expected], rel=1e-14)


def test_state_combination_direct_substitution():
    # W_minus block first, then W_plus: node k pairs phi[k] with phi[K + k]
    phi = np.array([0.1, 0.3, 0.2, 0.4])
    assert state_combination(0.5, phi) == pytest.approx([0.6, 1.4], rel=1e-13)


def test_state_is_two_k_numbers_independent_of_grid_length():
    problem = make_problem("pow1", 0.5)
    rule = gauss_laguerre_rule(7)
    for n_steps in (5, 50):
        grid = uniform_grid(0.0, 1.0, n_steps)
        count = 0
        for phi in iter_solution(problem, rule, grid):
            assert phi.shape == (14,)
            count += 1
        assert count == n_steps + 1


def test_initial_state_is_exactly_zero():
    problem = make_problem("pow2", 0.5)
    phi = next(iter_solution(problem, gauss_laguerre_rule(6), uniform_grid(0.0, 1.0, 4)))
    assert phi.shape == (12,)
    assert np.all(phi == 0.0)
    assert not phi.flags.writeable


def test_step_rejects_nonpositive_step_size():
    system = _single_node_system(0.5, 0.0)
    phi = np.zeros(2)
    with pytest.raises(InvalidParameterError):
        advance(phi, system, BACKWARD_EULER, 0.0, 0.0, 0.0)
    # the message names the caller's h, not the half step the rule uses
    with pytest.raises(InvalidParameterError, match=r"got -0\.5$"):
        advance(phi, system, TRAPEZOIDAL, -0.5, 0.0, 0.0)
    # the half of the smallest positive step rounds to 0
    with pytest.raises(InvalidParameterError, match=r"got 5e-324$"):
        advance(phi, system, TRAPEZOIDAL, 5e-324, 0.0, 0.0)
    for method in METHODS:
        for h in (math.inf, math.nan):
            with pytest.raises(InvalidParameterError):
                advance(phi, system, method, h, 0.0, 0.0)


def test_non_finite_forcing_reports_offending_time():
    problem = DerivativeProblem(
        alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: math.nan if t > 0.5 else 0.0
    )
    with pytest.raises(EvaluationError, match="0.75"):
        evaluate_derivative(problem, gauss_laguerre_rule(3), uniform_grid(0.0, 1.0, 4))
    # the first nan falls in the second block of a uniform grid
    grid = uniform_grid(0.0, 1.0, 2 * _BLOCK + 1)
    bad = float(grid.points[_BLOCK + 8])
    problem = DerivativeProblem(
        alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: math.nan if t >= bad else 0.0
    )
    for method in METHODS:
        with pytest.raises(EvaluationError, match=re.escape(f"t = {bad}")):
            evaluate_derivative(problem, gauss_laguerre_rule(3), grid, method=method)


@pytest.mark.parametrize(
    "d_upper, T, bad_t, cause",
    [
        (lambda t: math.exp(t), 800.0, 800.0, OverflowError),
        (lambda t: 1.0 / (t - 0.5), 1.0, 0.5, ZeroDivisionError),
    ],
)
def test_forcing_arithmetic_errors_report_offending_time(d_upper, T, bad_t, cause):
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=T, d_upper=d_upper)
    with pytest.raises(EvaluationError, match=re.escape(f"t = {bad_t}")) as info:
        evaluate_derivative(problem, gauss_laguerre_rule(3), uniform_grid(0.0, T, 4))
    assert isinstance(info.value.__cause__, cause)


# the times of a 300-step grid: index 200 lies in its first block pass, 2..513
_P300 = uniform_grid(0.0, 1.0, 300).points.tolist()


class _LenientArray(np.ndarray):
    # an array that float() accepts at one element, as a numpy that only deprecates it would
    def __float__(self):
        return float(self.item())


@pytest.mark.parametrize(
    "d_upper, n_steps, bad_t, cause",
    [
        (lambda t: np.array([2.0 * t]), 4, 0.25, TypeError),
        (lambda t: np.array([2.0 * t]).view(_LenientArray), 4, 0.25, TypeError),
        (lambda t: None, 4, 0.25, TypeError),
        (lambda t: 2j * t, 4, 0.25, TypeError),
        (lambda t: math.sqrt(t - 0.5), 4, 0.25, ValueError),
        (lambda t: "2.0", 4, 0.25, TypeError),
        (lambda t: b"2", 4, 0.25, TypeError),
        (lambda t: 10**400, 4, 0.25, OverflowError),
        # a later call of the same pass raises; the earlier bad value is named
        (lambda t: None if t == _P300[200] else math.sqrt(_P300[250] - t), 300, _P300[200], TypeError),
        # np.array of the pass raises, so each value is checked on its own
        (lambda t: np.array([t]) if t == _P300[200] else None if t == _P300[230] else t,
         300, _P300[200], TypeError),
    ],
    ids=["array", "lenient-array", "none", "complex", "sqrt-domain", "text", "bytes", "huge-int",
         "raise-later-in-pass", "second-bad-in-pass"],
)
def test_forcing_that_is_not_a_number_reports_offending_time(d_upper, n_steps, bad_t, cause):
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=d_upper)
    rule, grid = gauss_laguerre_rule(3), uniform_grid(0.0, 1.0, n_steps)
    phi_stream = lambda: list(iter_solution(problem, rule, grid))  # noqa: E731
    for run in (lambda: evaluate_derivative(problem, rule, grid), phi_stream):
        with pytest.raises(EvaluationError, match=re.escape(f"t = {bad_t}:")) as info:
            run()
        assert isinstance(info.value.__cause__, cause)


@pytest.mark.parametrize(
    "d_upper",
    [
        lambda t: np.float32(math.sin(3.0 * t)),
        lambda t: np.int64(round(8.0 * t)),
        lambda t: np.array(math.sin(3.0 * t)),
        lambda t: t > 0.5,
        lambda t: 2**70 * round(8.0 * t),
    ],
    ids=["float32", "int64", "0-d-array", "bool", "big-int"],
)
def test_forcing_numbers_of_any_type_step_as_their_float(d_upper):
    # block passes, table passes and the phi stream all read v as float(+v)
    problems = [DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=g)
                for g in (d_upper, lambda t: float(+d_upper(t)))]
    rule = gauss_laguerre_rule(6)
    for grid in (uniform_grid(0.0, 1.0, 300), graded_grid(0.0, 1.0, 300, 2.0)):
        for method in METHODS:
            got, want = (evaluate_derivative(p, rule, grid, method) for p in problems)
            assert got.tobytes() == want.tobytes()
        got, want = (np.array(list(iter_solution(p, rule, grid))) for p in problems)
        assert got.tobytes() == want.tobytes()


def test_boolean_forcing_steps_as_zero_or_one():
    # a step forcing such as t > 0.5 is a number, 0 or 1
    rule, grid = gauss_laguerre_rule(6), uniform_grid(0.0, 1.0, 8)
    step = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: t > 0.5)
    ramp = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 1.0 if t > 0.5 else 0.0)
    got = evaluate_derivative(step, rule, grid)
    assert got.tobytes() == evaluate_derivative(ramp, rule, grid).tobytes()


@pytest.mark.parametrize("folded", [False, True], ids=["phi", "folded"])
def test_trapezoidal_half_step_that_rounds_to_zero_raises_before_any_yield(folded):
    # 5e-324 / 2 rounds to 0; the first step is backward Euler, so only a later one counts
    calls = []
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1e-323, d_upper=lambda t: calls.append(t) or 1.0)
    rule, grid = gauss_laguerre_rule(6), TimeGrid([0.0, 5e-324, 1e-323])
    stream = iter_solution(problem, rule, grid, method=TRAPEZOIDAL, folded=folded)
    with pytest.raises(InvalidParameterError, match=r"^step size must be positive, got 5e-324$"):
        next(stream)
    with pytest.raises(InvalidParameterError, match=r"got 5e-324$"):
        evaluate_derivative(problem, rule, grid, method=TRAPEZOIDAL)
    assert calls == []
    assert evaluate_derivative(problem, rule, grid).shape == (3,)


def test_the_stream_does_no_work_before_its_first_next():
    # building the iterator calls no d_upper and raises nothing; the first
    # next() makes every check, still before any call
    calls = []
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: calls.append(t) or 1.0)
    tiny = DerivativeProblem(alpha=0.5, a=0.0, T=1e-323, d_upper=problem.d_upper)
    rule = gauss_laguerre_rule(6)
    bad = [
        (problem, uniform_grid(0.0, 1.0, 4), "rk4", r"^unknown method 'rk4'"),
        (problem, uniform_grid(0.0, 2.0, 4), BACKWARD_EULER, r"do not match the problem interval"),
        (tiny, TimeGrid([0.0, 5e-324, 1e-323]), TRAPEZOIDAL, r"^step size must be positive"),
    ]
    for folded in (False, True):
        for case, grid, method, message in bad:
            stream = iter_solution(case, rule, grid, method=method, folded=folded)
            with pytest.raises(InvalidParameterError, match=message):
                next(stream)
        stream = iter_solution(problem, rule, uniform_grid(0.0, 1.0, 4), folded=folded)
        assert calls == []
        assert not np.any(next(stream))  # the zero state at a calls nothing either
        assert calls == []
        next(stream)
        assert calls == [0.25]
        calls.clear()


@pytest.mark.parametrize("method", METHODS)
def test_a_value_that_is_not_finite_in_the_second_block_pass_raises_after_the_first(method):
    # the first step goes alone, then block passes of _PASS steps; a forcing of
    # 1e308 from grid index _PASS + 10 on (in the second pass) takes the
    # values over the largest double there.  Every value of the first pass is
    # yielded, then the second pass calls all its times and raises before it
    # yields any value.
    grid = uniform_grid(0.0, 1e10, 2 * _PASS + 5)
    bad = float(grid.points[_PASS + 10])
    calls = []
    problem = DerivativeProblem(
        alpha=0.5, a=0.0, T=1e10, d_upper=lambda t: calls.append(t) or (1e308 if t >= bad else 1.0)
    )
    stream = iter_solution(problem, gauss_laguerre_rule(6), grid, method=method, folded=True)
    head = list(itertools.islice(stream, _PASS + 2))  # t = a, the lone first step, one pass
    assert len(head) == _PASS + 2 and np.isfinite(head).all()
    assert len(calls) == _PASS + 1
    with pytest.raises(EvaluationError, match=re.escape(f"the solution is not finite at t = {bad}")):
        next(stream)
    assert calls == grid.points[1 : 2 * _PASS + 2].tolist()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("graded", [False, True])
def test_folded_stream_yields_python_floats(graded, method):
    # the zero at t = a too; a uniform grid takes block passes, a graded one table passes
    rule, n_steps = gauss_laguerre_rule(6), _PASS + 5
    grid = graded_grid(0.0, 1.0, n_steps, 2.0) if graded else uniform_grid(0.0, 1.0, n_steps)
    values = list(iter_solution(make_problem("sin", 0.5), rule, grid, method=method, folded=True))
    assert len(values) == n_steps + 1
    assert all(type(v) is float for v in values)


@pytest.mark.parametrize("method", METHODS)
def test_grid_of_one_smallest_positive_step_runs(method):
    # the lone first step is backward Euler whatever the method, so its half never rounds
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=5e-324, d_upper=lambda t: 1.0)
    rule, grid = gauss_laguerre_rule(6), TimeGrid([0.0, 5e-324])
    values = evaluate_derivative(problem, rule, grid, method=method)
    phis = list(iter_solution(problem, rule, grid, method=method))
    assert values[0] == 0.0 and np.isfinite(values).all()
    assert len(phis) == 2 and np.isfinite(phis[1]).all()


def test_unknown_method_rejected():
    problem = make_problem("pow1", 0.5)
    with pytest.raises(InvalidParameterError):
        evaluate_derivative(
            problem, gauss_laguerre_rule(3), uniform_grid(0.0, 1.0, 4), method="rk4"
        )
    system = _single_node_system(0.5, 0.0)
    with pytest.raises(InvalidParameterError):
        advance(np.zeros(2), system, "rk4", 1.0, 0.0, 0.0)


def test_grid_must_match_problem_interval():
    problem = make_problem("pow1", 0.5, a=0.0, T=1.0)
    with pytest.raises(InvalidParameterError):
        evaluate_derivative(problem, gauss_laguerre_rule(3), uniform_grid(0.0, 2.0, 4))


def test_uniform_grid_far_from_zero_is_accepted():
    # steps of a + n h carry rounding of a few ulps of |a|, far above 1e-12 h
    grid = uniform_grid(1e6, 1.0, 1000)
    problem = make_problem("pow2", 0.5, a=1e6, T=1.0)
    values = evaluate_derivative(problem, gauss_laguerre_rule(8), grid)
    assert np.all(np.isfinite(values))


def test_grid_endpoint_check_scales_with_the_interval():
    # 4e-13 off is within an absolute 1e-12, yet four times the whole interval
    problem = make_problem("pow1", 0.5, a=0.0, T=1e-13)
    with pytest.raises(InvalidParameterError, match="do not match"):
        evaluate_derivative(problem, gauss_laguerre_rule(3), uniform_grid(0.0, 5e-13, 4))


def test_grid_endpoint_check_spanning_the_double_range_neither_overflows_nor_passes():
    # t_end - t0 = 2e308 overflows; the problem ends at 0, the grid at 1e308,
    # so the check rejects the grid, warns nothing and calls d_upper never
    calls = []
    problem = DerivativeProblem(alpha=0.5, a=-1e308, T=1e308, d_upper=lambda t: calls.append(t) or 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="do not match"):
            evaluate_derivative(problem, gauss_laguerre_rule(3), TimeGrid([-1e308, 0.0, 1e308]))
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=-10.0, max_value=10.0),
    T=st.floats(min_value=1e-3, max_value=20.0),
    n_steps=st.integers(min_value=1, max_value=80),
    method=st.sampled_from([BACKWARD_EULER, TRAPEZOIDAL]),
    graded=st.booleans(),
)
def test_forcing_is_only_evaluated_inside_the_interval(a, T, n_steps, method, graded):
    times = []

    def d_upper(t):
        times.append(t)
        return 1.0

    problem = DerivativeProblem(alpha=0.5, a=a, T=T, d_upper=d_upper)
    grid = graded_grid(a, T, n_steps) if graded else uniform_grid(a, T, n_steps)
    evaluate_derivative(problem, gauss_laguerre_rule(4), grid, method=method)
    assert times == list(grid.points[1:])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "a, T, n_steps, graded, k, alpha",
    [(0.0, 1.0, 40, False, 12, 0.9), (0.0, 1.0, 40, True, 12, 0.9), (1e6, 1.0, 1000, False, 12, 0.9)]
    # pass edges of the 16-step phi passes, and a rule whose extreme modes
    # overflow e^{-w} and e^w
    + [(0.0, 1.0, n, True, 12, 0.9) for n in (1, 2, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)]
    + [(0.0, 1.0, 2 * _CHUNK + 1, True, 256, 0.96)]
    # a uniform grid whose rounded step lengths take many distinct values
    + [(-0.0752, 63.4726, 1056, False, 12, 0.9)],
)
def test_table_passes_match_an_advance_loop_byte_for_byte(method, a, T, n_steps, graded, k, alpha):
    # a table pass forms each step's (A, Q) from that step's exact length and
    # steps in the two roundings of advance, so far from zero, where uniform
    # steps differ in their last bits, its states still equal this loop's
    problem = make_problem("sin", alpha, a=a, T=T)
    grid = graded_grid(a, T, n_steps, 2.0) if graded else uniform_grid(a, T, n_steps)
    _assert_matches_advance_loop(problem, gauss_laguerre_rule(k), grid, method)


@pytest.mark.parametrize("method", METHODS)
def test_equal_then_graded_steps_match_an_advance_loop_byte_for_byte(method):
    # 100 equal steps, then 300 distinct step lengths: the table passes that
    # cross from one part of the grid to the other step like this loop
    points = np.concatenate((np.arange(101) / 1024, 100 / 1024 + np.linspace(0.0, 1.0, 301)[1:] ** 2))
    problem = make_problem("sin", 0.9, a=0.0, T=float(points[-1]))
    _assert_matches_advance_loop(problem, gauss_laguerre_rule(12), TimeGrid(points), method)


def _assert_matches_advance_loop(problem, rule, grid, method):
    system = build_system(problem, rule)
    phi = np.zeros(len(system.exponents))
    expected = [phi]
    step_method, g_prev = BACKWARD_EULER, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t_prev, t_next in zip(grid.points[:-1], grid.points[1:]):
            g_next = problem.d_upper(float(t_next))
            h = float(t_next) - float(t_prev)
            phi = advance(phi, system, step_method, h, g_prev, g_next)
            expected.append(phi)
            step_method, g_prev = method, g_next
        got = list(iter_solution(problem, rule, grid, method=method))
    assert len(got) == len(expected)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, expected))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("graded", [False, True])
def test_stepping_heap_is_linear_in_k_and_independent_of_n(method, graded):
    k = 64
    bound = 96 * (2 * k * 8) + 32 * 1024  # 96 arrays of 2K doubles, plus fixed overhead
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(k)
    for n_steps in (2_000, 20_000):
        grid = graded_grid(0.0, 1.0, n_steps, 2.0) if graded else uniform_grid(0.0, 1.0, n_steps)
        tracemalloc.start()
        try:
            collections.deque(iter_solution(problem, rule, grid, method=method), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n_steps, peak)


@pytest.mark.parametrize("method", METHODS)
def test_evaluate_derivative_matches_the_state_combination_fold(method):
    problem = make_problem("exp", 1.5, a=-3.7, T=2.3)
    rule = gauss_laguerre_rule(64)
    grid = graded_grid(-3.7, 2.3, 17, 2.0)
    values = evaluate_derivative(problem, rule, grid, method=method)
    folded = _per_step_fold(problem, rule, grid, method)
    assert np.max(np.abs(values - folded)) <= 1e-14 * np.max(np.abs(values))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("graded", [False, True])
def test_evaluate_derivative_heap_is_linear_in_k_and_independent_of_n(method, graded):
    # the block tables of a uniform grid (two of _BLOCK x 2K doubles, one of
    # _BLOCK^2) fit the stepping bound; the N + 1 values returned do not count
    k = 64
    bound = 96 * (2 * k * 8) + 32 * 1024
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(k)
    for n_steps in (2_000, 20_000):
        grid = graded_grid(0.0, 1.0, n_steps, 2.0) if graded else uniform_grid(0.0, 1.0, n_steps)
        tracemalloc.start()
        try:
            evaluate_derivative(problem, rule, grid, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * (n_steps + 1) < bound, (n_steps, peak)


def _per_step_fold(problem, rule, grid, method):
    coef = quadrature_coefficients(rule)
    q = problem.fractional_part
    phis = iter_solution(problem, rule, grid, method=method)
    folded = np.array([coef @ state_combination(q, phi) for phi in phis])
    folded[0] = 0.0
    return folded


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("alpha", [0.4, 1.5, 2.6])
@pytest.mark.parametrize("name", corpus_names())
def test_block_values_match_the_per_step_fold(name, alpha, method):
    # uniform grids take block passes of _PASS_BLOCKS blocks after the first
    # step; partial and single blocks, one block and one step over, a pass that
    # ends mid-block after full ones, exactly one pass and one step over,
    # exactly two passes, two and a partial, and a long run
    for a, T in ((0.0, 1.0), (-3.7, 2.3), (0.5, 40.0)):
        problem = make_problem(name, alpha, a=a, T=T)
        for k in (1, 6, 64):
            rule = gauss_laguerre_rule(k)
            for n_steps in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 6,
                            _PASS + 1, _PASS + 2, 2 * _PASS + 1, 2 * _PASS + 18, 1000):
                grid = uniform_grid(a, T, n_steps)
                values = evaluate_derivative(problem, rule, grid, method=method)
                folded = _per_step_fold(problem, rule, grid, method)
                scale = np.max(np.abs(folded))
                assert values.shape == folded.shape
                assert values[0] == 0.0
                assert np.max(np.abs(values - folded)) <= 1e-12 * scale, (a, T, k, n_steps)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", corpus_names())
def test_graded_table_passes_match_the_per_step_fold(name, method):
    # graded grids take table passes after the first step: _BLOCK steps on the
    # folded stream, _CHUNK on the phi stream the reference folds; partial and
    # single passes of either, one pass and one step over, and a long run
    for alpha in (0.4, 1.5, 2.6):
        problem = make_problem(name, alpha, a=-3.7, T=2.3)
        for k in (6, 64, 256):
            rule = gauss_laguerre_rule(k)
            for n_steps in (1, 2, _CHUNK, _CHUNK + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                            2 * _BLOCK + 1, 1000):
                grid = graded_grid(-3.7, 2.3, n_steps, 2.0)
                values = evaluate_derivative(problem, rule, grid, method=method)
                folded = _per_step_fold(problem, rule, grid, method)
                assert values[0] == 0.0
                assert np.max(np.abs(values - folded)) <= 1e-13 * np.max(np.abs(folded)), (alpha, k, n_steps)


@pytest.mark.parametrize("method", METHODS)
def test_grid_far_from_zero_folds_each_step(method):
    # steps spread by 7e-8 of T/N at N = 1000: a nominal h would move the
    # values by 1e-9; table passes of either stream, partial and single
    problem = make_problem("pow2", 0.5, a=1e6, T=1.0)
    for k in (6, 12, 64):
        rule = gauss_laguerre_rule(k)
        for n_steps in (1, 2, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 1000):
            grid = uniform_grid(1e6, 1.0, n_steps)
            values = evaluate_derivative(problem, rule, grid, method=method)
            folded = _per_step_fold(problem, rule, grid, method)
            assert np.max(np.abs(values - folded)) <= 1e-14 * np.max(np.abs(folded))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("k", [6, 64])
@pytest.mark.parametrize("n_steps", [1, 2, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("a", [0.0, 1e6], ids=["graded", "uniform-far-from-zero"])
def test_folded_stream_off_the_block_path_is_the_dot_of_each_phi(a, n_steps, k, method):
    # the folded and phi streams both take table passes on grids that are
    # not uniform to within 3e-11 of T/N; the folded one steps the frozen modes
    # summed into two columns, so each value is the dot of the system's weights
    # with each phi to rounding.  At a = 1e6, T = 0.9 no N > 1 here gives steps that
    # round alike
    problem = make_problem("sin", 0.9, a=a, T=0.9)
    rule = gauss_laguerre_rule(k)
    grid = uniform_grid(a, 0.9, n_steps) if a else graded_grid(a, 0.9, n_steps, 2.0)
    h = (grid.points[-1] - grid.points[0]) / n_steps
    assert n_steps == 1 or np.max(np.abs(grid.steps - h)) > 3e-11 * h
    weights = build_system(problem, rule).weights
    folded = np.fromiter(iter_solution(problem, rule, grid, method=method, folded=True), float)
    per_phi = np.array([weights.dot(phi) for phi in iter_solution(problem, rule, grid, method=method)])
    assert np.max(np.abs(folded - per_phi)) <= 1e-13 * np.max(np.abs(per_phi))


@pytest.mark.parametrize("alpha", [0.04, 0.5, 1.3, 2.3])
@pytest.mark.parametrize("k", [1, 6, 64])
def test_system_weights_fold_phi_as_the_coefficients_fold_the_state_combination(k, alpha):
    # the system's 2K weights against the K coefficients times the per-node
    # combination phi(-x/q)/q + phi(x/(1-q))/(1-q), on every phi of a run
    problem, rule = make_problem("sin", alpha), gauss_laguerre_rule(k)
    system = build_system(problem, rule)
    assert not system.weights.flags.writeable
    with pytest.raises(ValueError):
        system.weights[0] = 1.0
    coef, q = quadrature_coefficients(rule), problem.fractional_part
    phis = list(iter_solution(problem, rule, uniform_grid(0.0, 1.0, 40)))
    folded = np.array([system.weights @ phi for phi in phis])
    reference = np.array([coef @ state_combination(q, phi) for phi in phis])
    assert np.max(np.abs(folded - reference)) <= 1e-14 * np.max(np.abs(reference))


@st.composite
def _perturbed_grids(draw):
    # steps T/N, each moved by a relative amount up to +-1e-10, so that the
    # largest |step - T/N| falls on both sides of 3e-11 T/N
    n_steps = draw(st.integers(min_value=2, max_value=80))
    a, T = draw(st.floats(min_value=-5.0, max_value=5.0)), draw(st.floats(min_value=0.1, max_value=10.0))
    scale = draw(st.floats(min_value=0.0, max_value=1e-10))
    moves = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n_steps, max_size=n_steps))
    steps = (T / n_steps) * (1.0 + scale * np.array(moves))
    return TimeGrid(a + np.concatenate(([0.0], np.cumsum(steps))))


def _one_step_moved(move, n_steps=8):
    # one step of [0, 1] moved by a relative ``move``, the others by -move / (N - 1),
    # so only the shortest (move < 0) or the longest (move > 0) step strays from T/N
    moves = np.full(n_steps, -move / (n_steps - 1))
    moves[3] = move
    return TimeGrid(np.concatenate(([0.0], np.cumsum((1.0 + moves) / n_steps))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    grid=_perturbed_grids(),
    alpha=st.sampled_from([0.04, 0.5, 1.5, 2.6]),
    method=st.sampled_from(METHODS),
)
@example(grid=_one_step_moved(-5e-11), alpha=0.5, method=BACKWARD_EULER)
@example(grid=_one_step_moved(5e-11), alpha=0.5, method=TRAPEZOIDAL)
@example(grid=_one_step_moved(-2e-11), alpha=0.5, method=BACKWARD_EULER)
def test_block_passes_run_exactly_where_every_step_lies_within_3e_11_of_t_over_n(grid, alpha, method):
    points = grid.points
    h = float(points[-1] - points[0]) / grid.n_steps
    spread = np.max(np.abs(np.diff(points) - h))
    problem = make_problem("sin", alpha, a=float(points[0]), T=float(points[-1] - points[0]))
    rule = gauss_laguerre_rule(6)
    with mock.patch.object(steppers, "_block_tables", wraps=steppers._block_tables) as tables:
        values = evaluate_derivative(problem, rule, grid, method=method)
    assert tables.call_count == (spread <= 3e-11 * h)
    # a block pass takes every step as T/N, which moves the values by about
    # the relative spread of the steps (at most 1.07 times it in 3,000 draws)
    folded = _per_step_fold(problem, rule, grid, method)
    assert np.max(np.abs(values - folded)) <= (1e-12 + 2.0 * spread / h) * np.max(np.abs(folded))


def _outcome(call):
    # the values, or the error a call raised; a numpy warning is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except (EvaluationError, RuntimeWarning) as exc:
            return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", corpus_names())
def test_folded_stream_with_frozen_modes_collapsed_matches_the_per_mode_fold(name, method):
    # T from 1e-300 to 1e250 moves the slow and stiff sets across the whole
    # rule; a reference exponent taken from the wrong end of a set overflows.
    # Where the per-mode fold raises or warns (exp overflows at T = 1e250, and
    # so does pow2's derivative for alpha <= 0.5), the folded stream must too
    for alpha, T in itertools.product((0.04, 0.5, 0.96, 2.3), (1e-300, 1e-8, 1e-2, 1.0, 1e2, 1e8, 1e250)):
        problem = make_problem(name, alpha, a=0.0, T=T)
        grids = (uniform_grid(0.0, T, 40), graded_grid(0.0, T, 40, 1.5), graded_grid(0.0, T, 40, 3.0))
        for grid, k in itertools.product(grids, (8, 64, 256)):
            rule = gauss_laguerre_rule(k)
            case = (alpha, T, k, grid.points[1] / grid.points[-1])
            folded = _outcome(lambda: _per_step_fold(problem, rule, grid, method))
            values = _outcome(lambda: evaluate_derivative(problem, rule, grid, method=method))
            if isinstance(folded, str) or isinstance(values, str):
                assert values == folded, case
                continue
            # values below 2^-1022 (pow2 at T = 1e-300) round to absolute
            # multiples of 2^-1074, not to a relative 1e-13
            q = problem.fractional_part
            floor = np.sum(quadrature_coefficients(rule)) * (1.0 / q + 1.0 / (1.0 - q)) * 2.0**-1074
            assert np.max(np.abs(values - folded)) <= 1e-13 * np.max(np.abs(folded)) + floor, case


@pytest.mark.parametrize("method", METHODS)
def test_folded_stream_steps_only_the_modes_that_move(method, monkeypatch):
    # at K = 256 on a graded grid over [0, 1] about a fifth of the 2K modes
    # move; the phi stream still steps them all
    columns = []

    def counting(exponentials, *args):
        columns.append(len(exponentials[0]))
        return coefficients(exponentials, *args)

    coefficients = steppers._coefficients
    monkeypatch.setattr(steppers, "_coefficients", counting)
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(256)
    grid = graded_grid(0.0, 1.0, 1000, 2.0)
    evaluate_derivative(problem, rule, grid, method=method)
    assert columns and max(columns) <= 2 * 256 // 4
    columns.clear()
    collections.deque(iter_solution(problem, rule, grid, method=method), maxlen=0)
    assert columns and set(columns) == {2 * 256}


@pytest.mark.parametrize("method", METHODS)
def test_trapezoidal_stiff_bound_grows_with_the_step_count(method):
    # the trapezoidal A = -1 + 4 / (h e^w) compounds over the N steps, so a mode
    # with 1e17 <= h_min e^w < 4e17 N freezes under backward Euler only
    grid = uniform_grid(0.0, 1.0, 10)
    points, h_min = grid.points, grid.steps.min()
    w = np.log([1e16, 2e17, 1e18, 3.9e18, 5e18, 1e20]) - math.log(h_min)  # h_min e^w; 4e17 N = 4e18
    system = DiffusiveSystem(fractional_part=0.5, c=1.0, exponents=w, weights=np.ones(len(w)))
    (u, _, _), _ = steppers._collapse(system, method, points, h_min)
    moving = 4 if method == TRAPEZOIDAL else 1
    assert u.tobytes() == np.r_[np.exp(-w[:moving]), 0.0].tobytes()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("alpha", [0.5, 0.04])
@pytest.mark.parametrize("graded", [False, True])
def test_values_that_overflow_raise_evaluation_error_naming_the_first_time(graded, alpha, method):
    # pow2's values pass the largest double inside [0, 1e250]: both streams
    # raise, with no numpy warning, at the first time an advance loop overflows
    problem = make_problem("pow2", alpha, T=1e250)
    rule = gauss_laguerre_rule(64)
    grid = graded_grid(0.0, 1e250, 40, 2.0) if graded else uniform_grid(0.0, 1e250, 40)
    system = build_system(problem, rule)
    phi, step_method, g_prev = np.zeros(2 * rule.npoints), BACKWARD_EULER, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t_prev, t_next in zip(grid.points[:-1].tolist(), grid.points[1:].tolist()):
            g_next = problem.d_upper(t_next)
            phi = advance(phi, system, step_method, t_next - t_prev, g_prev, g_next)
            if not np.all(np.isfinite(phi)):
                break
            step_method, g_prev = method, g_next
    assert not np.all(np.isfinite(phi))
    message = re.escape(f"not finite at t = {t_next}")
    with pytest.raises(EvaluationError, match=message):
        collections.deque(iter_solution(problem, rule, grid, method=method), maxlen=0)
    with pytest.raises(EvaluationError, match=message):
        evaluate_derivative(problem, rule, grid, method=method)
