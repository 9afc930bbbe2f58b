"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Criterion 6 judges the decay of the quadrature error r_q(K) on its
tail envelope U(K) = max_{k >= K} |r_q(k)| rather than on point values:
r_q changes sign in runs that lengthen with K, |r_q| dips near each zero,
and an order taken from two single K values jumps there.  The README
("Acceptance status") gives the old and new statements and the
high-precision evidence that the sign changes are real.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from diffcap import (
    BACKWARD_EULER,
    TRAPEZOIDAL,
    DiffusiveSystem,
    advance,
    backward_euler_log_amplification,
    brute_force_caputo,
    corpus_function,
    decompose_error,
    evaluate_derivative,
    exact_combination,
    exact_phi,
    fit_rate,
    gauss_laguerre_rule,
    iter_solution,
    ode_error_constant,
    make_problem,
    fractional_part,
    quadrature_decay_study,
    signed_prefactor,
    uniform_grid,
    verify_ode_error_bound,
)
from diffcap.cli import parse_config, run
from diffcap.steppers import quadrature_coefficients, state_combination


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_gauss_laguerre_correctness():
    one = gauss_laguerre_rule(1)
    two = gauss_laguerre_rule(2)
    sqrt2 = math.sqrt(2.0)
    analytic_ok = (
        abs(one.nodes[0] - 1.0) <= 1e-12
        and abs(one.weights[0] - 1.0) <= 1e-12
        and np.allclose(two.nodes, [2.0 - sqrt2, 2.0 + sqrt2], atol=1e-12, rtol=0.0)
        and np.allclose(
            two.weights, [(2.0 + sqrt2) / 4.0, (2.0 - sqrt2) / 4.0], atol=1e-12, rtol=0.0
        )
    )
    moments_ok = True
    for k in range(1, 21):
        rule = gauss_laguerre_rule(k)
        for m in range(2 * k):
            value = float(rule.weights @ rule.nodes**m)
            exact = float(math.factorial(m))
            moments_ok = moments_ok and abs(value - exact) <= 1e-8 * exact
    sums_ok = all(
        abs(float(np.sum(gauss_laguerre_rule(k).weights)) - 1.0) <= 1e-10
        for k in range(1, 65)
    )
    szego_ok = all(
        gauss_laguerre_rule(k).nodes[-1] < 4 * k + 2 for k in range(1, 101)
    )
    _report(
        1,
        "Gauss-Laguerre correctness",
        analytic_ok and moments_ok and sums_ok and szego_ok,
        f"analytic={analytic_ok} moments={moments_ok} sums={sums_ok} szego={szego_ok}",
    )


def test_criterion_02_stepper_exactness_on_constant_forcing():
    worst = 0.0
    h = 1.0
    g = 1.37
    n_steps = 1000
    for lam_h in (1e-3, 1.0, 1e3):
        w = math.log(lam_h / h)
        system = DiffusiveSystem(
            fractional_part=0.5, c=signed_prefactor(0.5), exponents=np.array([w, w]),
            weights=np.ones(2),
        )
        lam = math.exp(w)
        b = system.c * math.exp(w * system.fractional_part) * g
        for method in (BACKWARD_EULER, TRAPEZOIDAL):
            phi = np.zeros(2)
            for _ in range(n_steps):
                phi = advance(phi, system, method, h, g, g)
            if method == BACKWARD_EULER:
                expected = (b / lam) * (1.0 - math.exp(-n_steps * math.log1p(h * lam)))
            else:
                amp = (1.0 - h * lam / 2.0) / (1.0 + h * lam / 2.0)
                expected = (h * b / (1.0 + h * lam / 2.0)) * (1.0 - amp**n_steps) / (1.0 - amp)
            worst = max(worst, abs(float(phi[0]) - expected) / abs(expected))
    _report(2, "stepper exactness vs closed-form recurrence", worst <= 1e-13,
            f"worst relative deviation {worst:.2e} over {n_steps} steps")


def test_criterion_03_a_stability_and_overflow_safety():
    values = evaluate_derivative(
        make_problem("pow2", 0.9), gauss_laguerre_rule(60), uniform_grid(0.0, 1.0, 500)
    )
    finite_ok = bool(np.all(np.isfinite(values)))
    # A in (0, 1) is asserted through the log-amplification -s: s finite and
    # positive is the exact statement (the materialized A underflows to 0.0
    # at the stiff corner and rounds to 1.0 at the anti-stiff corner)
    ws = np.linspace(-50.0, 750.0, 1601)
    amp_ok = True
    for h in (1e-6, 1e-4, 1e-2, 1.0):
        log_amp = backward_euler_log_amplification(ws, h)
        amp = np.exp(log_amp)
        amp_ok = amp_ok and bool(
            np.all(np.isfinite(log_amp))
            and np.all(log_amp < 0.0)
            and np.all(amp >= 0.0)
            and np.all(amp <= 1.0)
        )
    _report(3, "A-stability and overflow safety", finite_ok and amp_ok,
            f"finite outputs={finite_ok}, amplification in (0,1) via log form={amp_ok}")


def test_criterion_04_end_to_end_accuracy():
    problem = make_problem("pow1", 0.5)
    rule = gauss_laguerre_rule(30)
    exact = 2.0 / math.sqrt(math.pi)
    cross = brute_force_caputo(problem, 1.0, 1e-11)
    oracle_ok = abs(cross - exact) <= 1e-10

    n_list = (250, 500, 1000, 2000)
    coef = quadrature_coefficients(rule)
    q = problem.fractional_part
    exact_combo = exact_combination(problem, rule, 1.0, 1e-12)
    composite = []
    ode_part = []
    for n_steps in n_list:
        grid = uniform_grid(0.0, 1.0, n_steps)
        *_, last = iter_solution(problem, rule, grid, method=BACKWARD_EULER)
        scheme = float(coef @ state_combination(q, last))
        composite.append(abs(scheme - exact))
        ode_part.append(abs(float(coef @ (exact_combo - state_combination(q, last)))))
    decreasing = all(a > b for a, b in zip(composite, composite[1:]))
    hs = [1.0 / n for n in n_list]
    ode_slope = fit_rate(hs, ode_part).slope
    composite_slope = fit_rate(hs, composite).slope
    slope_ok = 0.85 <= ode_slope <= 1.15
    _report(
        4,
        "end-to-end accuracy toward 2/sqrt(pi)",
        oracle_ok and decreasing and slope_ok,
        f"errors {['%.3e' % e for e in composite]} strictly decreasing={decreasing}; "
        f"ODE-error slope {ode_slope:.4f} in [0.85, 1.15] "
        f"(composite slope {composite_slope:.3f} carries the K=30 quadrature floor "
        f"r_q = -2.5e-05)",
    )


def test_criterion_05_error_decomposition_identity():
    truth_tol = 1e-9
    identity_ok = True
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        problem = make_problem("pow2", alpha)
        rows = decompose_error(
            problem, gauss_laguerre_rule(20), uniform_grid(0.0, 1.0, 200), truth_tol=truth_tol
        )
        gap = max(abs(r.r_total - (r.r_q + r.r_ode)) for r in rows)
        worst = max(worst, gap)
        identity_ok = identity_ok and gap <= 10.0 * truth_tol

    problem = make_problem("pow2", 0.5)
    rule = gauss_laguerre_rule(20)
    coarse = decompose_error(problem, rule, uniform_grid(0.0, 1.0, 100), truth_tol=truth_tol)
    fine = decompose_error(problem, rule, uniform_grid(0.0, 1.0, 400), truth_tol=truth_tol)
    invariance_gap = max(abs(coarse[i].r_q - fine[4 * i].r_q) for i in range(101))
    invariance_ok = invariance_gap <= 10.0 * truth_tol
    _report(
        5,
        "error-decomposition identity",
        identity_ok and invariance_ok,
        f"worst identity gap {worst:.2e} <= 1e-8; "
        f"r_q N-invariance gap {invariance_gap:.2e}",
    )


#: criterion 6: the sweep, the node counts across which the tail envelope
#: must strictly decrease, and the two quadrupling windows whose fitted
#: orders must differ by at least the margin.  Each window spans at least two
#: full sign runs of r_q; pure and 1/K-corrected power laws move the order
#: between them by at most about 0.2, superalgebraic decay by well over 1.
_DECAY_SWEEP = range(5, 81)
_DECAY_CHECKPOINTS = (5, 10, 20, 40, 80)
_ORDER_WINDOWS = ((5, 20), (20, 80))
_ORDER_MARGIN = 1.0


@dataclass(frozen=True)
class _EnvelopeVerdict:
    envelope: tuple[float, ...]  # U(K) at the checkpoints
    decreasing: bool
    orders: tuple[float, float]  # lower window, upper window

    @property
    def order_grows(self) -> bool:
        return self.orders[1] - self.orders[0] >= _ORDER_MARGIN

    @property
    def ok(self) -> bool:
        return self.decreasing and self.order_grows


def _decay_envelope_verdict(points, noise_floor: float) -> _EnvelopeVerdict:
    """Criterion 6's statistic on sweep points (K, |r_q(K)|), K consecutive.

    The tail envelope U(K) = max_{k >= K} |r_q(k)| is non-increasing by
    construction and ignores the dips of |r_q| at its sign changes.  Decay:
    U strictly decreases across the checkpoints, all above the noise floor.
    Growing order: the least-squares order of ln U against ln K over the
    upper window exceeds that over the lower window by the margin.
    """
    ks, errs = (np.array(column) for column in zip(*points))
    envelope = np.maximum.accumulate(errs[::-1])[::-1]
    at = dict(zip(ks.tolist(), envelope.tolist()))
    checkpoints = tuple(at[k] for k in _DECAY_CHECKPOINTS)
    decreasing = all(u > noise_floor for u in checkpoints) and all(
        a > b for a, b in zip(checkpoints, checkpoints[1:])
    )
    orders = []
    for lo, hi in _ORDER_WINDOWS:
        window = (ks >= lo) & (ks <= hi)
        orders.append(-fit_rate(ks[window], envelope[window]).slope)
    return _EnvelopeVerdict(envelope=checkpoints, decreasing=decreasing, orders=tuple(orders))


@functools.lru_cache(maxsize=1)
def _criterion_06_study():
    return quadrature_decay_study(make_problem("pow2", 0.5), 1.0, _DECAY_SWEEP, truth_tol=1e-10)


def test_criterion_06_quadrature_decay():
    study = _criterion_06_study()
    verdict = _decay_envelope_verdict(study.points, study.noise_floor)
    _report(
        6,
        "quadrature decay (superalgebraic signature)",
        verdict.ok,
        f"tail envelope U(K) at K = {_DECAY_CHECKPOINTS}: "
        f"{['%.3e' % u for u in verdict.envelope]} strictly decreasing above "
        f"{study.noise_floor:.0e}={verdict.decreasing}; fitted orders over K in "
        f"{_ORDER_WINDOWS}: {verdict.orders[0]:.2f} -> {verdict.orders[1]:.2f}, "
        f"growth >= {_ORDER_MARGIN}={verdict.order_grows} (r_q changes sign, so the "
        f"envelope replaces point values; see README, 'Acceptance status')",
    )


def test_criterion_06_statistic_rejects_algebraic_decay():
    study = _criterion_06_study()
    assert _decay_envelope_verdict(study.points, study.noise_floor).ok
    ks = np.array(_DECAY_SWEEP, dtype=float)
    for label, errs in (
        ("K^-4", ks**-4),
        ("K^-4 (1 + 3/K)", ks**-4 * (1.0 + 3.0 / ks)),
        ("K^-4 (1 - 2/K)", ks**-4 * (1.0 - 2.0 / ks)),
    ):
        verdict = _decay_envelope_verdict(zip(_DECAY_SWEEP, errs), study.noise_floor)
        assert verdict.decreasing, label
        assert not verdict.order_grows, f"{label}: orders {verdict.orders}"
    stalled = _decay_envelope_verdict(zip(_DECAY_SWEEP, np.maximum(ks**-4, 1e-6)), study.noise_floor)
    assert not stalled.decreasing
    assert not stalled.ok


def test_criterion_07_ode_error_bound():
    spot_fn = corpus_function("pow1", 0.5)
    spot = ode_error_constant(
        make_problem("pow1", 0.5),
        gauss_laguerre_rule(1),
        d_upper_sup=spot_fn.d_upper_sup,
        d_upper_plus_sup=spot_fn.d_upper_plus_sup,
    )
    spot_ok = abs(spot.value - math.exp(3.0) / math.pi) <= 1e-12 * spot.value

    fn = corpus_function("pow2", 0.5)
    problem = make_problem("pow2", 0.5)
    bound_ok = True
    for k in (1, 2, 3, 4):
        report = verify_ode_error_bound(
            problem,
            gauss_laguerre_rule(k),
            [16, 64, 256, 1024],
            d_upper_sup=fn.d_upper_sup,
            d_upper_plus_sup=fn.d_upper_plus_sup,
        )
        bound_ok = bound_ok and report.conclusive and report.all_hold
    _report(
        7,
        "a-priori ODE error bound",
        spot_ok and bound_ok,
        f"spot C = {spot.value:.6f} vs e^3/pi = {math.exp(3.0) / math.pi:.6f}; "
        f"bound holds for K <= 4 across N in {{16, 64, 256, 1024}}: {bound_ok}",
    )


def test_criterion_08_phi_asymptotics():
    ok = True
    details = []
    for alpha in (0.3, 0.7):
        problem = make_problem("pow2", alpha)
        q = fractional_part(alpha)
        ws = np.arange(15.0, 30.5, 1.0)
        pos = np.polyfit(
            ws, [math.log(abs(exact_phi(problem, w, 1.0, 1e-13))) for w in ws], 1
        )[0]
        ws = np.arange(-30.0, -14.5, 1.0)
        neg = np.polyfit(
            ws, [math.log(abs(exact_phi(problem, w, 1.0, 1e-13))) for w in ws], 1
        )[0]
        ok = ok and abs(pos - (q - 1.0)) <= 0.1 and abs(neg - q) <= 0.1
        details.append(f"alpha={alpha}: +{pos:.3f}/(q-1)={q - 1.0:.1f}, {neg:.3f}/q={q:.1f}")
    _report(8, "auxiliary-solution decay asymptotics", ok, "; ".join(details))


def test_criterion_09_linear_time_constant_memory():
    problem = make_problem("pow1", 0.5)
    rule = gauss_laguerre_rule(30)

    def best_times(*sizes: int) -> list[float]:
        # the sizes take turns, so a slow stretch of the host hits them alike;
        # CPU time leaves out the time the process spends descheduled
        grids = [uniform_grid(0.0, 1.0, n_steps) for n_steps in sizes]
        best = [math.inf] * len(sizes)
        for _ in range(3):
            for i, grid in enumerate(grids):
                start = time.process_time()
                evaluate_derivative(problem, rule, grid)
                best[i] = min(best[i], time.process_time() - start)
        return best

    best_times(2000)  # warmup
    t_small, t_large = best_times(10_000, 20_000)
    ratio = t_large / t_small
    time_ok = ratio <= 2.5

    sizes = set()
    for n_steps in (100, 10_000):
        for phi in iter_solution(problem, rule, uniform_grid(0.0, 1.0, n_steps)):
            sizes.add(phi.shape)
    memory_ok = sizes == {(60,)}
    _report(
        9,
        "O(N) time, O(1) memory",
        time_ok and memory_ok,
        f"time ratio {ratio:.2f} <= 2.5 for N 1e4 -> 2e4; state is 2K = 60 numbers "
        f"at every step independent of N: {memory_ok}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    configs = (
        "command = nodes\nK = 7",
        "command = stiffness\nalpha = 0.7\nK = 5",
        "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 50\nK = 10\nfunction = pow2",
        "command = decompose\nalpha = 0.5\na = 0\nT = 1\nN = 8\nK = 8\nfunction = pow2",
        "command = convergence\nalpha = 0.5\na = 0\nT = 1\nK = 8\nfunction = pow1\n"
        "N_list = 4,8,16",
    )
    ok = True
    for idx, text in enumerate(configs):
        first = tmp_path / f"{idx}_first.csv"
        second = tmp_path / f"{idx}_second.csv"
        assert run(parse_config(text + f"\noutput = {first}")) == 0
        assert run(parse_config(text + f"\noutput = {second}")) == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    _report(10, "CLI rerun determinism", ok, f"{len(configs)} commands byte-identical")
