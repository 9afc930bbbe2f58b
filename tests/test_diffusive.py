import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from diffcap import (
    DerivativeProblem,
    InvalidOrderError,
    InvalidParameterError,
    TimeGrid,
    build_system,
    gauss_laguerre_rule,
    graded_grid,
    fractional_part,
    signed_prefactor,
    stiffness_report,
    truncate_rule,
    uniform_grid,
)

valid_orders = st.floats(min_value=0.01, max_value=19.99).filter(
    lambda a: abs(a - round(a)) > 1e-6
)


@pytest.mark.parametrize(
    "alpha, expected", [(0.5, 0.5), (1.5, 0.5), (2.3, 0.3), (0.05, 0.05), (3.75, 0.75)]
)
def test_fractional_part_values(alpha, expected):
    assert fractional_part(alpha) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0, 0.0, -0.5, 3.0 + 5e-13, math.inf])
def test_fractional_part_rejects_invalid_orders(alpha):
    with pytest.raises(InvalidOrderError):
        fractional_part(alpha)


@given(valid_orders)
def test_fractional_part_in_unit_interval_and_shift_invariant(alpha):
    q = fractional_part(alpha)
    assert 0.0 < q < 1.0
    assert fractional_part(alpha + 1.0) == pytest.approx(q, abs=1e-12)


@given(valid_orders)
def test_prefactor_positive_and_shift_invariant(alpha):
    # (-1)^floor(alpha) exactly cancels the sign of sin(alpha pi), so the
    # prefactor equals sin(q pi)/pi for every valid order
    c = signed_prefactor(alpha)
    assert c > 0.0
    assert c == pytest.approx(math.sin(fractional_part(alpha) * math.pi) / math.pi, rel=1e-12)
    assert signed_prefactor(alpha + 1.0) == pytest.approx(c, rel=1e-12)


@given(valid_orders)
def test_fractional_part_is_the_exact_offset_from_the_floor(alpha):
    assert fractional_part(alpha) == alpha - math.floor(alpha)


@given(st.floats(min_value=1e-11, max_value=1.0 - 1e-11))
def test_fractional_part_of_an_order_below_one_is_the_order_itself(alpha):
    assert fractional_part(alpha) == alpha


@pytest.mark.parametrize("k", range(1, 12))
@pytest.mark.parametrize("n, sign", [(0, 1), (1, -1), (1, 1), (2, -1), (2, 1), (5, -1), (5, 1)])
def test_signed_prefactor_matches_40_digits_near_integer_orders(n, sign, k):
    # sin(alpha pi) from a rounded alpha pi would be off by about 1e-16 / 10^-k
    # relative; the exact offset min(q, 1 - q) keeps a few ulps at every k
    alpha = n + sign * 10.0**-k
    with mpmath.workdps(40):
        exact = abs(mpmath.sinpi(mpmath.mpf(alpha))) / mpmath.pi
    assert signed_prefactor(alpha) == pytest.approx(float(exact), rel=4 * 2.0**-52, abs=0.0)


def _problem(alpha):
    return DerivativeProblem(alpha=alpha, a=0.0, T=1.0, d_upper=lambda t: 1.0)


def test_build_system_single_node_half_order():
    system = build_system(_problem(0.5), gauss_laguerre_rule(1))
    assert system.exponents == pytest.approx([-2.0, 2.0], abs=1e-12)
    assert system.c == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_build_system_single_node_order_three_halves():
    system = build_system(_problem(1.5), gauss_laguerre_rule(1))
    assert system.exponents == pytest.approx([-2.0, 2.0], abs=1e-12)
    assert system.c == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_build_system_two_nodes():
    system = build_system(_problem(0.5), gauss_laguerre_rule(2))
    expected = [2.0 * (2.0 - math.sqrt(2.0)), 2.0 * (2.0 + math.sqrt(2.0))]
    assert system.exponents[2:] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.3, 2.7])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_node_sets_scale_exactly(alpha, k):
    rule = gauss_laguerre_rule(k)
    system = build_system(_problem(alpha), rule)
    q = system.fractional_part
    w_minus, w_plus = system.exponents[:k], system.exponents[k:]
    assert np.allclose(w_plus * (1.0 - q), rule.nodes, rtol=1e-14)
    assert np.allclose(-w_minus * q, rule.nodes, rtol=1e-14)
    assert np.all(w_minus < 0.0)
    assert np.all(w_plus > 0.0)
    assert len(w_minus) == len(w_plus) == k


def test_stiffness_single_node():
    rows = stiffness_report(build_system(_problem(0.5), gauss_laguerre_rule(1)))
    assert rows[-1].log10_lipschitz == pytest.approx(2.0 / math.log(10.0), rel=1e-14)


def test_stiffness_negative_block_is_contractive():
    rows = stiffness_report(build_system(_problem(0.4), gauss_laguerre_rule(8)))
    negative_rows = rows[:8]
    assert all(r.w < 0.0 and r.log10_lipschitz < 0.0 for r in negative_rows)
    positive_rows = rows[8:]
    assert all(r.w > 0.0 for r in positive_rows)
    # monotone in the node index within the positive block
    values = [r.log10_lipschitz for r in positive_rows]
    assert values == sorted(values)


def test_stiffness_flags_large_exponents():
    problem = _problem(0.9)  # q = 0.9, stretch factor 10 on the positive side
    rule = gauss_laguerre_rule(20)
    largest = stiffness_report(build_system(problem, rule))[-1]
    assert largest.w == pytest.approx(rule.nodes[-1] / 0.1, rel=1e-14)
    assert largest.w < 820.0  # Szego: x_max < 82


def test_problem_validation():
    with pytest.raises(InvalidOrderError):
        DerivativeProblem(alpha=2.0, a=0.0, T=1.0, d_upper=lambda t: 0.0)
    with pytest.raises(InvalidParameterError):
        DerivativeProblem(alpha=0.5, a=0.0, T=0.0, d_upper=lambda t: 0.0)
    with pytest.raises(InvalidParameterError):
        DerivativeProblem(alpha=0.5, a=math.nan, T=1.0, d_upper=lambda t: 0.0)
    # a and T are finite, but a + T overflows
    with pytest.raises(InvalidParameterError, match="a \\+ T"):
        DerivativeProblem(alpha=0.5, a=1e308, T=1e308, d_upper=lambda t: 0.0)


@pytest.mark.parametrize("part", [(-1.0, math.cos), (math.nan, math.cos), (math.inf, math.cos),
                                  (0.5, 2.0), (0.5,), (0.5, math.cos, 1.0), ("0.5", math.cos),
                                  [0.5, math.cos]])
def test_problem_rejects_a_malformed_singular_part(part):
    with pytest.raises(InvalidParameterError, match="singular_part"):
        DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=math.sin, singular_part=part)


def test_problem_keeps_a_declared_singular_part():
    r = math.cos
    problem = DerivativeProblem(alpha=2.5, a=0.0, T=1.0, d_upper=math.sin,
                                singular_part=(np.float64(-0.5), r))
    assert problem.singular_part == (-0.5, r) and type(problem.singular_part[0]) is float
    assert DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=math.sin).singular_part is None


def _assert_derived_fields(problem):
    assert type(problem.alpha) is float
    assert problem.ceil_order == math.ceil(problem.alpha)
    assert problem.fractional_part == fractional_part(problem.alpha)
    assert problem.prefactor == signed_prefactor(problem.alpha)
    assert problem.end == problem.a + problem.T


@pytest.mark.parametrize("alpha", [np.float64(1.5), 0.3, 2.7])
def test_problem_stores_its_derived_constants(alpha):
    problem = DerivativeProblem(alpha=alpha, a=-3.7, T=2.3, d_upper=lambda t: 0.0)
    assert problem.alpha == float(alpha)
    _assert_derived_fields(problem)
    # replace re-runs the validation and recomputes every derived field
    _assert_derived_fields(dataclasses.replace(problem, d_upper=math.sin))
    moved = dataclasses.replace(problem, alpha=np.float64(4.25), a=1.0, T=0.5)
    assert (moved.ceil_order, moved.end) == (5, 1.5)
    _assert_derived_fields(moved)
    with pytest.raises(InvalidOrderError):
        dataclasses.replace(problem, alpha=3.0)
    with pytest.raises(TypeError):
        DerivativeProblem(alpha=0.5, a=0.0, T=1.0, d_upper=math.sin, end=2.0)


def test_uniform_grid_construction():
    grid = uniform_grid(1.0, 2.0, 8)
    assert grid.n_steps == 8
    assert grid.points[0] == 1.0
    assert grid.points[-1] == 3.0
    assert np.array_equal(uniform_grid(1.0, 2.0, np.int64(8)).points, grid.points)


@pytest.mark.parametrize("make_grid", [uniform_grid, graded_grid])
@pytest.mark.parametrize("n_steps", [0, -1, 2.5, True, math.nan, math.inf, "3"])
def test_grids_take_integer_step_counts(make_grid, n_steps):
    with pytest.raises(InvalidParameterError, match="step count"):
        make_grid(0.0, 1.0, n_steps)


def test_graded_grid_clusters_toward_left_endpoint():
    grid = graded_grid(0.0, 1.0, 10, exponent=2.0)
    steps = np.diff(grid.points)
    assert np.all(np.diff(steps) > 0.0)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 1.0


@given(
    st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 200), st.floats(0.1, 4.0)
)
def test_graded_grid_ends_at_a_plus_T(a, T, n_steps, exponent):
    try:
        grid = graded_grid(a, T, n_steps, exponent)
    except InvalidParameterError:  # first steps below the resolution of a
        assume(False)
    assert grid.points[-1] == a + T


@pytest.mark.parametrize(
    "make_grid, message",
    [
        (lambda: TimeGrid(np.array([0.0])), "at least two points"),
        (lambda: TimeGrid(np.array([0.0, math.nan])), "finite"),
        # the step overflows; Tier-1 turns numpy's overflow warning into an error
        (lambda: TimeGrid(np.array([-1e308, 1e308])), "grid steps must be finite"),
        (lambda: graded_grid(0.0, 1.0, 4, 0.0), "grading exponent must be positive"),
    ],
    ids=["one-point", "nan-point", "infinite-step", "zero-exponent"],
)
def test_grid_rejects_invalid_input(make_grid, message):
    with pytest.raises(InvalidParameterError, match=message):
        make_grid()


def test_grid_copies_its_points():
    points = np.array([0.0, 0.5, 1.0])
    grid = TimeGrid(points)
    points[0] = -1.0
    assert grid.points.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize(
    "grid",
    [uniform_grid(1e6, 1.0, 1000), graded_grid(-3.7, 2.3, 33, 2.0), TimeGrid([0.0, 5e-324, 1.0, 1e300])],
    ids=["uniform-far-from-zero", "graded", "custom"],
)
def test_grid_steps_are_the_read_only_differences_of_its_points(grid):
    assert grid.steps.tobytes() == np.diff(grid.points).tobytes()
    assert len(grid.steps) == grid.n_steps
    assert not grid.steps.flags.writeable
    with pytest.raises(ValueError):
        grid.steps[0] = 1.0


def test_grid_steps_survive_edits_to_the_callers_points():
    points = np.array([0.0, 0.5, 1.0])
    grid = TimeGrid(points)
    points[1] = 0.25
    assert grid.steps.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("make_grid", [uniform_grid, graded_grid])
@pytest.mark.parametrize("n_steps", [3, 7, 9])
def test_grids_near_the_top_of_double_range_warn_nothing(make_grid, n_steps):
    # (T / n) n rounds past the largest double for these n; Tier-1 turns the
    # overflow warning numpy would emit into an error
    top = 1.7976931348623157e308
    grid = make_grid(0.0, top, n_steps)
    assert np.all(np.isfinite(grid.points))
    assert grid.points[-1] == top
    with pytest.raises(InvalidParameterError, match="grid points must be finite"):
        make_grid(1e308, 1.5e308, n_steps)


def test_grid_rejects_non_monotone_points():
    with pytest.raises(InvalidParameterError):
        TimeGrid(points=np.array([0.0, 0.5, 0.5, 1.0]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: uniform_grid(0.0, 1.0, 4),
        lambda: truncate_rule(gauss_laguerre_rule(5), 3),
        lambda: build_system(_problem(0.5), gauss_laguerre_rule(5)),
    ],
    ids=["grid", "rule", "system"],
)
def test_value_types_compare_and_hash_by_identity(make):
    # their array fields have no truth value, so field-wise == and hash would raise
    one, other = make(), make()
    assert one == one and one != other
    assert hash(one) == hash(one) and len({one, other, one}) == 2
