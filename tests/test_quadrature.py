import math

import mpmath
import numpy as np
import pytest

from diffcap import InvalidParameterError, gauss_laguerre_rule, truncate_rule
from diffcap import quadrature
from diffcap.quadrature import MAX_NODES, _rule, _scaled_laguerre


def _two_point_oracle():
    # roots of the quadratic Laguerre polynomial x^2 - 4x + 2, plus a 2x2
    # linear solve enforcing exactness on the moments 1 and x
    nodes = np.array([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)])
    vandermonde = np.vstack([np.ones(2), nodes])
    weights = np.linalg.solve(vandermonde, np.array([1.0, 1.0]))
    return nodes, weights


def test_single_point_rule_is_exact():
    rule = gauss_laguerre_rule(1)
    assert rule.nodes[0] == pytest.approx(1.0, abs=1e-12)
    assert rule.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_two_point_rule_matches_analytic_oracle():
    nodes, weights = _two_point_oracle()
    rule = gauss_laguerre_rule(2)
    assert rule.nodes == pytest.approx(nodes, abs=1e-12)
    assert rule.weights == pytest.approx(weights, abs=1e-12)


def test_five_point_rule_respects_szego_bound():
    rule = gauss_laguerre_rule(5)
    assert rule.nodes[-1] < 22.0


@pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 33, 64, 100])
def test_rule_invariants(k):
    rule = gauss_laguerre_rule(k)
    assert rule.npoints == k
    assert np.all(rule.nodes > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.nodes[-1] < 4 * k + 2
    assert np.all(rule.weights > 0.0)
    # the tight 1e-12 sum holds for small rules (see below); accumulated
    # recurrence noise grows it to ~1e-12 by K = 100
    assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_weight_sum_tight_for_small_rules(k):
    rule = gauss_laguerre_rule(k)
    assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_moment_exactness(k):
    rule = gauss_laguerre_rule(k)
    for m in range(2 * k):
        approx = float(rule.weights @ rule.nodes**m)
        assert approx == pytest.approx(float(math.factorial(m)), rel=1e-8)


def test_weight_sum_up_to_64():
    for k in range(1, 65):
        rule = gauss_laguerre_rule(k)
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-10)


def test_log_weights_are_computed_directly():
    rule = gauss_laguerre_rule(20)
    assert np.allclose(np.exp(rule.log_weights), rule.weights, rtol=1e-15)
    # at the cap the smallest weights underflow double precision while the
    # log form stays finite and meaningful
    big = gauss_laguerre_rule(MAX_NODES)
    assert np.all(np.isfinite(big.log_weights))
    assert big.log_weights[-1] < -700.0


def test_rules_are_deterministic():
    # the shared rule against a fresh generation that bypasses the cache
    a = gauss_laguerre_rule(48)
    b = _rule.__wrapped__(48)
    assert a is not b
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.log_weights.tobytes() == b.log_weights.tobytes()


def test_rule_is_generated_once_per_count():
    assert gauss_laguerre_rule(48) is gauss_laguerre_rule(np.int64(48))


def _integer_index_laguerre(n, x):
    # the recurrence as first written, with int indices converted at every pass
    prev = 0.0
    cur = math.exp(-0.5 * x)
    for j in range(n):
        prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
    return cur, prev


@pytest.mark.parametrize("n", [1, 2, 64, 256, 257])
def test_scaled_laguerre_is_bit_identical_to_integer_index_loop(n):
    # gauss_laguerre_rule's bit-identical nodes and weights rest on this; the
    # weights evaluate degree K + 1, hence n = 257
    k = min(n, MAX_NODES)
    xs = np.concatenate((gauss_laguerre_rule(k).nodes, np.geomspace(1e-3, 4.0 * k + 2.0, 64)))
    for x in xs.tolist():
        got, expected = _scaled_laguerre(n, x), _integer_index_laguerre(n, x)
        assert [v.hex() for v in got] == [v.hex() for v in expected], x


def test_rule_arrays_are_read_only():
    # every caller of gauss_laguerre_rule(4) shares these arrays
    rule = gauss_laguerre_rule(4)
    for array in (rule.nodes, rule.log_weights, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("k", [0, -3, MAX_NODES + 1, True, math.nan, "3", 3.0, np.float64(3.0)])
def test_invalid_node_count_rejected(k):
    # with 1 and 3 cached: True == 1 and 3.0 == 3 hash alike, so a cache
    # keyed on the raw argument would hand these a rule (functools.cache
    # keys a lone int by itself but a numpy integer by a tuple, which True,
    # 3.0 and np.float64(3.0) match)
    for count in (1, 3, np.int64(1), np.int64(3)):
        gauss_laguerre_rule(count)
    with pytest.raises(InvalidParameterError, match="node count"):
        gauss_laguerre_rule(k)


def test_non_integer_node_count_rejected():
    with pytest.raises(InvalidParameterError):
        gauss_laguerre_rule(2.5)


def test_full_truncation_is_identity():
    rule = gauss_laguerre_rule(5)
    assert truncate_rule(rule, 5) is rule


def test_truncation_keeps_prefix():
    rule = gauss_laguerre_rule(2)
    cut = truncate_rule(rule, 1)
    assert cut.npoints == 1
    assert cut.nodes[0] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert cut.weights[0] == pytest.approx((2.0 + math.sqrt(2.0)) / 4.0, abs=1e-12)
    assert float(np.sum(cut.weights)) < 1.0


@pytest.mark.parametrize("k_star", [1, 4, np.int64(9)])
def test_truncation_is_a_read_only_prefix(k_star):
    rule = gauss_laguerre_rule(10)
    cut = truncate_rule(rule, k_star)
    assert cut.npoints == k_star and type(cut.npoints) is int
    for part, whole in ((cut.nodes, rule.nodes), (cut.log_weights, rule.log_weights)):
        assert np.array_equal(part, whole[:k_star])
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0] = 0.0


@pytest.mark.parametrize("k_star", [0, 11, 2.5, True, np.float64(3.0)])
def test_truncation_bounds_enforced(k_star):
    rule = gauss_laguerre_rule(10)
    with pytest.raises(InvalidParameterError):
        truncate_rule(rule, k_star)


def _mp_laguerre_pair(mpmath, n, x):
    """(L_n(x), L_{n-1}(x)) by the three-term recurrence, in mpmath."""
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    for j in range(n):
        prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
    return cur, prev


@pytest.mark.parametrize("k", [10, 30, 64, 128])
def test_rule_matches_forty_digit_recomputation(k):
    # each float node polished by Newton at 40 digits, then
    # ln a_k = ln x - 2 ln((K+1) |L_{K+1}(x)|); no code from quadrature
    rule = gauss_laguerre_rule(k)
    worst_node = worst_log_weight = 0.0
    with mpmath.workdps(40):
        for node, log_weight in zip(rule.nodes, rule.log_weights):
            x = mpmath.mpf(float(node))
            for _ in range(4):  # quadratic from 1e-13: far below 40 digits
                lk, lkm1 = _mp_laguerre_pair(mpmath, k, x)
                x -= lk * x / (k * (lk - lkm1))
            lk1, _ = _mp_laguerre_pair(mpmath, k + 1, x)
            exact = mpmath.log(x) - 2 * mpmath.log((k + 1) * abs(lk1))
            worst_node = max(worst_node, float(abs(node - x) / x))
            worst_log_weight = max(worst_log_weight, float(abs(log_weight - exact)))
    assert worst_node <= 2e-13
    assert worst_log_weight <= 5e-11


def test_newton_that_runs_out_of_iterations_raises(monkeypatch):
    # the unmemoized generator, so no rule of this process is built with one iteration
    monkeypatch.setattr(quadrature, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(InvalidParameterError, match="did not converge"):
        quadrature._rule.__wrapped__(8)
