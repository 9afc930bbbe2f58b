import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from diffcap import (
    BACKWARD_EULER,
    TRAPEZOIDAL,
    DerivativeProblem,
    InsufficientDataError,
    InvalidParameterError,
    TimeGrid,
    UnsupportedOperationError,
    brute_force_caputo,
    corpus_function,
    corpus_names,
    decompose_error,
    evaluate_derivative,
    exact_combination,
    fit_rate,
    gauss_laguerre_rule,
    graded_grid,
    ode_error_constant,
    make_problem,
    quadrature_decay_study,
    quadrature_error,
    reference_quadrature,
    truncate_rule,
    uniform_grid,
    verify_ode_error_bound,
)
from diffcap import analysis, oracle
from diffcap.analysis import LogScaledValue, ode_error_profile
from diffcap.quadrature import MAX_NODES
from diffcap.steppers import quadrature_coefficients


def test_decomposition_vanishes_at_start():
    problem = make_problem("pow2", 0.5)
    rows = decompose_error(
        problem, gauss_laguerre_rule(5), uniform_grid(0.0, 1.0, 4), truth_tol=1e-9
    )
    first = rows[0]
    assert first.n == 0
    assert first.r_total == 0.0
    assert first.r_q == 0.0
    assert first.r_ode == 0.0


def test_decomposition_zero_forcing_is_all_zero():
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 0.0)
    rows = decompose_error(
        problem, gauss_laguerre_rule(5), uniform_grid(0.0, 1.0, 4), truth_tol=1e-9
    )
    for row in rows:
        assert abs(row.r_total) <= 1e-9
        assert abs(row.r_q) <= 1e-9
        assert abs(row.r_ode) <= 1e-9


def test_decomposition_identity_holds_pointwise():
    truth_tol = 1e-9
    problem = make_problem("pow2", 0.5)
    rows = decompose_error(
        problem, gauss_laguerre_rule(20), uniform_grid(0.0, 1.0, 25), truth_tol=truth_tol
    )
    for row in rows:
        assert abs(row.r_total - (row.r_q + row.r_ode)) <= 10.0 * truth_tol
        assert row.oracle_tol == truth_tol


@pytest.mark.parametrize("name", ["pow1", "pow2", "pow3", "pow2.5", "exp", "sin"])
def test_decomposition_identity_across_corpus(name):
    truth_tol = 1e-9
    problem = make_problem(name, 0.5)
    rows = decompose_error(
        problem, gauss_laguerre_rule(8), uniform_grid(0.0, 1.0, 8), truth_tol=truth_tol
    )
    for row in rows:
        assert abs(row.r_total - (row.r_q + row.r_ode)) <= 10.0 * truth_tol


@pytest.mark.parametrize("name, alpha, n_steps, declared", [
    ("sin", 0.7, 150, True), ("pow2.5", 2.3, 130, True), ("exp", 1.4, 64, True),
    ("exp", 1.4, 5, False), ("sin", 0.3, 4, False)])
def test_the_walk_folds_what_a_loop_of_exact_combination_folds(name, alpha, n_steps, declared):
    # the walk takes its times in chunks of at most 64, each chunk in one window
    # call (undeclared data loops over its times within it) and one product;
    # node for node it reads what a loop of exact_combination reads, bit for
    # bit on undeclared data, and its sums differ from the loop's dot products
    # only by the rounding of a differently ordered sum
    problem = make_problem(name, alpha, a=-0.4, T=2.0)
    if not declared:
        problem = dataclasses.replace(problem, window=None)
    rule = gauss_laguerre_rule(10)
    times, _, sums = analysis._walk(problem, rule, uniform_grid(-0.4, 2.0, n_steps),
                                    BACKWARD_EULER, 1e-9)
    chunks = list(oracle._combinations(problem, rule, times, 1e-9))
    assert [len(chunk) for chunk in chunks] == [min(64, n_steps + 1 - start)
                                               for start in range(0, n_steps + 1, 64)]
    coefficients = quadrature_coefficients(rule)
    for t, total, row in zip(times, sums, np.concatenate(chunks)):
        loop = exact_combination(problem, rule, t, 1e-9)
        if declared:
            assert np.all(np.abs(row - loop) <= 1e-15 * np.abs(loop)), t
        else:
            assert row.tolist() == loop.tolist(), t
        assert abs(total - coefficients @ loop) <= 1e-15 * (np.abs(coefficients) @ np.abs(loop))


def test_quadrature_component_is_grid_independent():
    truth_tol = 1e-9
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(10)
    coarse = decompose_error(problem, rule, uniform_grid(0.0, 1.0, 10), truth_tol=truth_tol)
    fine = decompose_error(problem, rule, uniform_grid(0.0, 1.0, 40), truth_tol=truth_tol)
    for i in range(11):
        assert abs(coarse[i].r_q - fine[4 * i].r_q) <= 10.0 * truth_tol


@pytest.mark.parametrize("truth_tol", [1e-6, 1e-7, 1e-15, math.nan, -1.0])
def test_decompose_validates_truth_tol(truth_tol):
    problem = make_problem("pow2", 0.5)
    with pytest.raises(InvalidParameterError):
        decompose_error(
            problem, gauss_laguerre_rule(5), uniform_grid(0.0, 1.0, 4), truth_tol=truth_tol
        )


@pytest.mark.parametrize("truth_tol", [-1.0, 0.0, math.nan, 1e-3, 1e-20])
@pytest.mark.parametrize(
    "entry",
    [
        lambda p, r, tol: ode_error_profile(p, r, uniform_grid(0.0, 1.0, 4), truth_tol=tol),
        lambda p, r, tol: verify_ode_error_bound(p, r, [4], truth_tol=tol),
        lambda p, r, tol: quadrature_decay_study(p, 0.0, [r.npoints], truth_tol=tol),
        lambda p, r, tol: quadrature_error(p, r, 0.0, truth_tol=tol),
        lambda p, r, tol: exact_combination(p, r, 1.0, tol),
        lambda p, r, tol: decompose_error(p, r, uniform_grid(0.0, 1.0, 4), truth_tol=tol),
    ],
    ids=["ode_error_profile", "verify_ode_error_bound", "quadrature_decay_study-at-a",
         "quadrature_error-at-a", "exact_combination", "decompose_error"],
)
def test_analysis_entries_check_truth_tol(entry, truth_tol):
    with pytest.raises(InvalidParameterError, match="tolerance must lie in"):
        entry(make_problem("pow2", 0.5), gauss_laguerre_rule(6), truth_tol)


@pytest.mark.parametrize("k", [4, 12])
@pytest.mark.parametrize("alpha", [0.5, 1.3, 2.7])
@pytest.mark.parametrize("name", corpus_names())
def test_oracles_give_exact_zero_at_left_endpoint(name, alpha, k):
    # pow2.5 at alpha = 2.7 has d_upper(a) = inf; no oracle may read it at t = a
    problem = make_problem(name, alpha, a=-3.7, T=2.3)
    rule = gauss_laguerre_rule(k)
    assert brute_force_caputo(problem, -3.7, 1e-10) == 0.0
    assert reference_quadrature(problem, -3.7, 1e-10) == 0.0
    assert quadrature_error(problem, rule, -3.7, 1e-10) == 0.0
    assert quadrature_decay_study(problem, -3.7, [k], 1e-10).points == ((k, 0.0),)


def test_ode_profile_starts_at_zero_and_shrinks_with_h():
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(4)
    coarse = ode_error_profile(problem, rule, uniform_grid(0.0, 1.0, 16))
    fine = ode_error_profile(problem, rule, uniform_grid(0.0, 1.0, 64))
    assert coarse[0] == 0.0
    assert np.max(np.abs(fine)) < np.max(np.abs(coarse))


@pytest.mark.parametrize("method", [BACKWARD_EULER, TRAPEZOIDAL])
@pytest.mark.parametrize(
    "grid", [uniform_grid(0.0, 1.0, 6), graded_grid(0.0, 1.0, 6, 2.0)], ids=["uniform", "graded"]
)
def test_ode_profile_is_the_r_ode_column(method, grid):
    problem = make_problem("sin", 0.7)
    rule = gauss_laguerre_rule(12)
    profile = ode_error_profile(problem, rule, grid, method=method, truth_tol=1e-9)
    rows = decompose_error(problem, rule, grid, method=method, truth_tol=1e-9)
    assert profile.tolist() == [row.r_ode for row in rows]


def test_error_split_holds_on_data_singular_at_a_near_order_3():
    # a draw of the verify benchmark's pow2.5 cell on which the oracles once
    # raised OracleError: d_upper ~ (tau - a)^{-1/2} with T near 19
    alpha, a, T, truth_tol = 2.845472328259458, -0.9096412322340575, 18.979117086358826, 1e-9
    problem = make_problem("pow2.5", alpha, a=a, T=T)
    rows = decompose_error(problem, gauss_laguerre_rule(10), uniform_grid(a, T, 6),
                           method=BACKWARD_EULER, truth_tol=truth_tol)
    assert len(rows) == 7
    assert all(abs(row.r_total - row.r_q - row.r_ode) <= 10 * truth_tol for row in rows)


@pytest.mark.parametrize("alpha", [1.0 - 1e-6, 2.0 - 1e-6])
def test_error_split_holds_near_integer_orders(alpha):
    # r_total once read 4.5e-6 (alpha 1 - 1e-6) and 6.0e-6 (2 - 1e-6) off the
    # closed form, with no error raised
    truth_tol = 1e-9
    problem = make_problem("pow3", alpha)
    exact = corpus_function("pow3", alpha).exact_caputo
    rule, grid = gauss_laguerre_rule(20), uniform_grid(0.0, 1.0, 8)
    values = evaluate_derivative(problem, rule, grid)
    rows = decompose_error(problem, rule, grid, truth_tol=truth_tol)
    for row, t, value in zip(rows, grid.points.tolist(), values.tolist()):
        truth = exact(t)
        assert abs(row.r_total - (truth - value)) <= 2.0 * max(truth_tol, 5e-13 * abs(truth))
        assert abs(row.r_total - (row.r_q + row.r_ode)) <= 10.0 * truth_tol


def _moved_end_grid(a: float, T: float, index: int, move: str) -> TimeGrid:
    """uniform_grid(a, T, 4) with its point at ``index`` moved by an ulp or by a
    multiple of the slack _check_grid allows each end."""
    points = uniform_grid(a, T, 4).points.copy()
    t = points[index]
    slack = 1e-12 * T + 4.0 * math.ulp(max(abs(a), abs(a + T)))
    points[index] = {
        "-ulp": math.nextafter(t, -math.inf),
        "+ulp": math.nextafter(t, math.inf),
        "-half": t - slack / 2.0,
        "+half": t + slack / 2.0,
        "-twice": t - 2.0 * slack,
        "+twice": t + 2.0 * slack,
    }[move]
    return TimeGrid(points)


@pytest.mark.parametrize("move", ["-ulp", "+ulp", "-half", "+half"])
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("a, T", [(0.0, 1.0), (-3.7, 2.3)])
def test_error_split_takes_every_grid_the_scheme_takes(a, T, index, move):
    problem = make_problem("pow2", 0.5, a=a, T=T)
    rule = gauss_laguerre_rule(4)
    grid = _moved_end_grid(a, T, index, move)
    evaluate_derivative(problem, rule, grid)
    rows = decompose_error(problem, rule, grid, truth_tol=1e-9)
    profile = ode_error_profile(problem, rule, grid, truth_tol=1e-9)
    assert (rows[0].r_total, rows[0].r_q, rows[0].r_ode) == (0.0, 0.0, 0.0)
    assert profile.tolist() == [row.r_ode for row in rows]


@pytest.mark.parametrize("move", ["-twice", "+twice"])
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("a, T", [(0.0, 1.0), (-3.7, 2.3)])
def test_error_split_rejects_every_grid_the_scheme_rejects(a, T, index, move):
    problem = make_problem("pow2", 0.5, a=a, T=T)
    rule = gauss_laguerre_rule(4)
    grid = _moved_end_grid(a, T, index, move)
    for entry in (evaluate_derivative, decompose_error, ode_error_profile):
        with pytest.raises(InvalidParameterError, match="do not match the problem interval"):
            entry(problem, rule, grid)


def test_ode_error_constant_spot_value():
    fn = corpus_function("pow1", 0.5)
    constant = ode_error_constant(
        make_problem("pow1", 0.5),
        gauss_laguerre_rule(1),
        d_upper_sup=fn.d_upper_sup,
        d_upper_plus_sup=fn.d_upper_plus_sup,
    )
    assert constant.value == pytest.approx(math.exp(3.0) / math.pi, rel=1e-12)


def test_ode_error_constant_zero_norms():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        constant = ode_error_constant(
            DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 0.0),
            gauss_laguerre_rule(3),
            d_upper_sup=0.0,
            d_upper_plus_sup=0.0,
        )
    assert constant.value == 0.0
    assert constant.log10 == -math.inf


def _nan_after_half(t):
    return math.nan if t > 0.5 else 1.0


@pytest.mark.parametrize(
    "d_upper, sups",
    [
        (lambda t: 1.0, (math.nan, math.nan)),
        (lambda t: 1.0, (-1.0, -1.0)),
        (lambda t: 1.0, (1.0, math.nan)),
        (lambda t: 1.0, (-1.0, 0.0)),
        (lambda t: math.nan, (None, None)),
        (_nan_after_half, (None, None)),
    ],
    ids=["nan", "negative", "one-nan", "one-negative", "sampled-nan", "sampled-partly-nan"],
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda p, r, sups: ode_error_constant(p, r, *sups),
        lambda p, r, sups: verify_ode_error_bound(p, r, [4], 1e-9, *sups),
    ],
    ids=["ode_error_constant", "verify_ode_error_bound"],
)
def test_ode_error_constant_rejects_nan_and_negative_sups(entry, d_upper, sups):
    problem = DerivativeProblem(
        alpha=0.5, a=0.0, T=1.0, d_upper=d_upper, d_upper_plus=lambda t: 1.0
    )
    with pytest.raises(InvalidParameterError, match="sup-norms"):
        entry(problem, gauss_laguerre_rule(6), sups)


def test_ode_error_constant_log_space_assembly():
    # K = 10, y = t^2, alpha = 0.5: check against the formula evaluated in logs
    fn = corpus_function("pow2", 0.5)
    rule = gauss_laguerre_rule(10)
    constant = ode_error_constant(
        make_problem("pow2", 0.5),
        rule,
        d_upper_sup=fn.d_upper_sup,
        d_upper_plus_sup=fn.d_upper_plus_sup,
    )
    x_max = rule.nodes[-1]
    expected_ln = (
        math.log(1.0 / (2.0 * math.pi))
        + x_max
        + math.log(2.0 + 4.0 * math.exp(min(2.0 * x_max, 700.0)))
    )
    assert constant.log10 == pytest.approx(expected_ln / math.log(10.0), rel=1e-10)


def test_ode_error_constant_sampling_matches_exact_norms():
    fn = corpus_function("pow2", 0.5)
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(2)
    sampled = ode_error_constant(problem, rule)
    exact = ode_error_constant(
        problem, rule, d_upper_sup=fn.d_upper_sup, d_upper_plus_sup=fn.d_upper_plus_sup
    )
    assert sampled.value == pytest.approx(exact.value, rel=1e-12)


def test_ode_error_constant_requires_next_derivative():
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 1.0)
    with pytest.raises(UnsupportedOperationError):
        ode_error_constant(problem, gauss_laguerre_rule(2))


def test_log_scaled_value_decimal_form():
    huge = LogScaledValue(log10=400.25)
    assert huge.value == math.inf
    small = LogScaledValue(log10=-2.0)
    assert small.value == pytest.approx(0.01, rel=1e-12)


def test_ode_error_bound_holds_on_smooth_problem():
    fn = corpus_function("pow2", 0.5)
    report = verify_ode_error_bound(
        make_problem("pow2", 0.5),
        gauss_laguerre_rule(2),
        [16, 64],
        d_upper_sup=fn.d_upper_sup,
        d_upper_plus_sup=fn.d_upper_plus_sup,
    )
    assert report.conclusive
    assert report.all_hold
    for row in report.rows:
        assert row.max_abs_r_ode <= row.bound


def test_ode_error_bound_is_linear_in_h():
    fn = corpus_function("pow2", 0.5)
    report = verify_ode_error_bound(
        make_problem("pow2", 0.5),
        gauss_laguerre_rule(1),
        [32, 64],
        d_upper_sup=fn.d_upper_sup,
        d_upper_plus_sup=fn.d_upper_plus_sup,
    )
    assert report.rows[0].bound == 2.0 * report.rows[1].bound


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("name", ["pow1", "exp"])
def test_ode_error_bound_sample_sweep(name, alpha):
    fn = corpus_function(name, alpha)
    report = verify_ode_error_bound(
        make_problem(name, alpha),
        gauss_laguerre_rule(2),
        [16, 64],
        d_upper_sup=fn.d_upper_sup,
        d_upper_plus_sup=fn.d_upper_plus_sup,
    )
    assert report.conclusive
    assert report.all_hold


def test_ode_error_bound_zero_forcing_holds_trivially():
    problem = DerivativeProblem(
        alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 0.0, d_upper_plus=lambda t: 0.0
    )
    report = verify_ode_error_bound(problem, gauss_laguerre_rule(2), [8])
    assert report.constant.value == 0.0
    assert report.rows[0].max_abs_r_ode <= 1e-9


def test_ode_error_bound_inconclusive_when_constant_overflows():
    fn = corpus_function("pow2", 0.5)
    report = verify_ode_error_bound(
        make_problem("pow2", 0.5),
        gauss_laguerre_rule(80),  # exp(2 x_max) is far beyond double range
        [8],
        d_upper_sup=fn.d_upper_sup,
        d_upper_plus_sup=fn.d_upper_plus_sup,
    )
    assert not report.conclusive
    assert math.isfinite(report.constant.log10)
    assert report.rows[0].holds is None
    assert not report.all_hold


def test_fit_rate_recovers_exact_slopes():
    fit = fit_rate([1.0, 2.0, 4.0], [3.0, 6.0, 12.0])
    assert fit.slope == pytest.approx(1.0, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit = fit_rate([1.0, 2.0, 4.0, 8.0], [0.5, 2.0, 8.0, 32.0])
    assert fit.slope == pytest.approx(2.0, rel=1e-12)


def test_fit_rate_drops_nonpositive_errors_with_warning():
    with pytest.warns(UserWarning, match="nonpositive"):
        fit = fit_rate([1.0, 2.0, 4.0, 8.0], [1.0, 0.0, 4.0, 8.0])
    assert fit.xs == (1.0, 4.0, 8.0)


def test_fit_rate_insufficient_points():
    with pytest.raises(InsufficientDataError), pytest.warns(UserWarning):
        fit_rate([1.0, 2.0, 4.0], [1.0, 0.0, 2.0])


def test_fit_rate_rejects_non_monotone_xs():
    with pytest.raises(InvalidParameterError):
        fit_rate([1.0, 3.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "xs, errs",
    [
        ([0.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0]),
        ([-8.0, -4.0, -2.0, -1.0], [1.0, 2.0, 4.0, 8.0]),
        ([1.0, 2.0, 4.0, math.inf], [1.0, 2.0, 4.0, 8.0]),
        ([1.0, 2.0, 4.0, 8.0], [1.0, 2.0, math.inf, 8.0]),
        ([1.0, 2.0, 4.0, 8.0], [1.0, 2.0, math.nan, 8.0]),
        ([1.0, 2.0, 4.0], [1.0, 2.0]),
    ],
)
def test_fit_rate_rejects_inputs_it_cannot_fit(xs, errs):
    with pytest.raises(InvalidParameterError):
        fit_rate(xs, errs)


def test_decay_study_errors_shrink():
    problem = make_problem("pow2", 0.5)
    study = quadrature_decay_study(problem, 1.0, [5, 10], truth_tol=1e-10)
    (k1, e1), (k2, e2) = study.points
    assert (k1, k2) == (5, 10)
    assert e1 > e2 > study.noise_floor


def test_decay_study_zero_forcing():
    problem = DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=lambda t: 0.0)
    study = quadrature_decay_study(problem, 1.0, [2, 4], truth_tol=1e-10)
    assert all(err <= study.noise_floor for _, err in study.points)


def test_decay_study_requires_increasing_k():
    problem = make_problem("pow2", 0.5)
    with pytest.raises(InvalidParameterError):
        quadrature_decay_study(problem, 1.0, [10, 5], truth_tol=1e-10)


@pytest.mark.parametrize("k_list", [[2.5, 4], [True, 4], [4, MAX_NODES + 1]])
def test_decay_study_takes_integer_node_counts(k_list):
    problem = make_problem("pow2", 0.5)
    with pytest.raises(InvalidParameterError, match="node count"):
        quadrature_decay_study(problem, 1.0, k_list, truth_tol=1e-10)


def test_decay_study_matches_quadrature_error():
    # the study computes the K-independent truth once; each point must still
    # be exactly |quadrature_error| at that K
    problem = make_problem("pow2", 0.5)
    study = quadrature_decay_study(problem, 1.0, [5, 6, 10], truth_tol=1e-10)
    assert study.points == tuple(
        (k, abs(quadrature_error(problem, gauss_laguerre_rule(k), 1.0, 1e-10)))
        for k in (5, 6, 10)
    )


def _laguerre_pair(mpmath, n, x):
    """(L_n(x), L_{n-1}(x)) by the three-term recurrence, in mpmath."""
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    for j in range(n):
        prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
    return cur, prev


def _mp_quadrature_error_pow2_half(mpmath, k):
    """r_q(K) for y = t^2, alpha = 1/2, t = 1, in working precision.

    Owes nothing to ``quadrature`` or ``oracle``: the nodes start from numpy's
    laggauss and are Newton-polished, a_k e^{x_k} = x e^x / ((K+1)^2
    L_{K+1}(x)^2), phi(w, 1) = (2/pi) e^{w/2} (1/lam + expm1(-lam)/lam^2) with
    lam = e^w in closed form, and the truth is Gamma(3) / Gamma(5/2).
    """
    q = mpmath.mpf(1) / 2

    def phi(w):
        lam = mpmath.exp(w)
        if lam < 1e-3:
            # 1/lam + expm1(-lam)/lam^2 cancels; sum_j (-lam)^j / (j+2)! instead
            total, term, j = mpmath.mpf(0), mpmath.mpf(1) / 2, 0
            while abs(term) > mpmath.eps * abs(total) or total == 0:
                total += term
                j += 1
                term *= -lam / (j + 2)
            bracket = total
        else:
            bracket = 1 / lam + mpmath.expm1(-lam) / lam**2
        return 2 / mpmath.pi * mpmath.exp(w * q) * bracket

    rule_sum = mpmath.mpf(0)
    for start in np.polynomial.laguerre.laggauss(k)[0]:
        x = mpmath.mpf(float(start))
        for _ in range(20):
            lk, lkm1 = _laguerre_pair(mpmath, k, x)
            step = lk * x / (k * (lk - lkm1))
            x -= step
            if abs(step) <= mpmath.eps * 1e5 * x:
                break
        else:
            raise AssertionError(f"Newton polish of a {k}-point node did not converge")
        lk1, _ = _laguerre_pair(mpmath, k + 1, x)
        coef = x * mpmath.exp(x) / ((k + 1) ** 2 * lk1**2)
        rule_sum += coef * (phi(-x / q) / q + phi(x / (1 - q)) / (1 - q))
    return 2 / mpmath.gamma(mpmath.mpf(5) / 2) - rule_sum


def test_quadrature_error_matches_mpmath():
    # acceptance criterion 6's r_q at 40 digits: its sign changes (+ at K=5,
    # - at 10..40, + at 80) are properties of the rule, not oracle noise
    truth_tol = 1e-10
    problem = make_problem("pow2", 0.5)
    with mpmath.workdps(40):
        for k in (5, 10, 20, 40, 80):
            reference = float(_mp_quadrature_error_pow2_half(mpmath, k))
            program = quadrature_error(problem, gauss_laguerre_rule(k), 1.0, truth_tol)
            assert abs(program - reference) <= 10.0 * truth_tol, (k, program, reference)


def test_truncated_rule_quadrature_error_runs():
    # the truncation mechanism is exercised without any claimed ordering;
    # dropping only the last couple of nodes changes r_q below one ulp, so
    # the visible-difference check uses a deeper truncation
    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(20)
    full = quadrature_error(problem, rule, 1.0, 1e-10)
    cut = quadrature_error(problem, truncate_rule(rule, 18), 1.0, 1e-10)
    assert math.isfinite(full)
    assert math.isfinite(cut)
    deep = quadrature_error(problem, truncate_rule(rule, 10), 1.0, 1e-10)
    assert deep != full
