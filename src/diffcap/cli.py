"""Command-line front end: config parsing, experiment orchestration, CSV output.

Configs are UTF-8 text, one ``key = value`` per line, ``#`` starting a comment
line.  Unknown keys, duplicate keys, and keys a command does not use all abort
(silent typos corrupt experiments).  Numbers in the CSV output use the
shortest round-trip decimal representation, so a fixed config reproduces its
output byte for byte.

Exit codes: 0 success, 2 config error, 3 numerical failure (NaN/Inf),
4 oracle failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import DECOMPOSE_TOL_MAX, decompose_error, fit_rate
from .diffusive import (
    DerivativeProblem,
    TimeGrid,
    build_system,
    fractional_part,
    graded_grid,
    stiffness_report,
    uniform_grid,
)
from .errors import (
    EvaluationError,
    InsufficientDataError,
    InvalidParameterError,
    OracleError,
)
from .oracle import TOL_MAX, TOL_MIN, brute_force_caputo, corpus_function, corpus_names, make_problem
from .quadrature import MAX_NODES, QuadratureRule, gauss_laguerre_rule, truncate_rule
from .steppers import METHODS, evaluate_derivative

COMMANDS = ("derivative", "decompose", "convergence", "nodes", "stiffness")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4


class ConfigError(ValueError):
    """A config file is malformed or fails validation."""


@dataclass
class RunConfig:
    command: str
    alpha: float | None = None
    a: float | None = None
    T: float | None = None
    n_steps: int | None = None
    n_list: tuple[int, ...] | None = None
    k: int | None = None
    k_list: tuple[int, ...] | None = None
    k_star: int | None = None
    method: str = "backward-euler"
    grid_kind: str = "uniform"
    grid_exponent: float = 1.0
    function: str | None = None
    truth_tol: float = 1e-9
    output: str | None = None


#: derivative runs the scheme on one grid; decompose adds the oracle's truth_tol
_GRID_RUN_KEYS = dict(
    command=False, alpha=True, a=True, T=True, N=True, K=True, K_star=False,
    method=False, grid=False, function=True, output=False,
)

#: the keys each command accepts, True marking the required ones
_COMMAND_KEYS = {
    "nodes": dict(command=False, K=True, K_star=False, output=False),
    "stiffness": dict(command=False, alpha=True, K=True, K_star=False, output=False),
    "derivative": _GRID_RUN_KEYS,
    "decompose": dict(_GRID_RUN_KEYS, truth_tol=False),
    "convergence": dict(
        command=False, alpha=True, a=True, T=True, N=False, N_list=False, K=False,
        K_list=False, K_star=False, method=False, function=True, truth_tol=False, output=False,
    ),
}

_KNOWN_KEYS = {key for keys in _COMMAND_KEYS.values() for key in keys}


def _parse_lines(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = value
    return pairs


def _as_int(pairs: dict[str, str], key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {pairs[key]!r}") from None


def _as_float(pairs: dict[str, str], key: str) -> float:
    try:
        value = float(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {pairs[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {pairs[key]!r}")
    return value


def _as_int_list(pairs: dict[str, str], key: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part.strip()) for part in pairs[key].split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {pairs[key]!r}") from None
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{key}: must be strictly increasing, got {pairs[key]!r}")
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; every violation is a :class:`ConfigError`."""
    pairs = _parse_lines(text)
    if "command" not in pairs:
        raise ConfigError("missing required key 'command'")
    command = pairs["command"]
    if command not in COMMANDS:
        raise ConfigError(f"command: expected one of {COMMANDS}, got {command!r}")
    keys = _COMMAND_KEYS[command]
    for key in pairs:
        if key not in keys:
            raise ConfigError(f"key {key!r} is not used by command {command!r}")
    missing = {key for key, required in keys.items() if required} - pairs.keys()
    if missing:
        raise ConfigError(f"command {command!r} is missing keys: {sorted(missing)}")

    config = RunConfig(command=command)
    if "alpha" in pairs:
        config.alpha = _as_float(pairs, "alpha")
        try:
            fractional_part(config.alpha)
        except InvalidParameterError as exc:
            raise ConfigError(f"alpha: {exc}") from None
    if "a" in pairs:
        config.a = _as_float(pairs, "a")
    if "T" in pairs:
        config.T = _as_float(pairs, "T")
        if config.T <= 0.0:
            raise ConfigError(f"T: must be positive, got {config.T}")
    if "N" in pairs:
        config.n_steps = _as_int(pairs, "N")
        if config.n_steps < 1:
            raise ConfigError(f"N: must be at least 1, got {config.n_steps}")
    if "N_list" in pairs:
        config.n_list = _as_int_list(pairs, "N_list")
        if config.n_list[0] < 1:
            raise ConfigError("N_list: entries must be at least 1")
    if "K" in pairs:
        config.k = _as_int(pairs, "K")
        if not 1 <= config.k <= MAX_NODES:
            raise ConfigError(f"K: must lie in [1, {MAX_NODES}], got {config.k}")
    if "K_list" in pairs:
        config.k_list = _as_int_list(pairs, "K_list")
        if config.k_list[0] < 1 or config.k_list[-1] > MAX_NODES:
            raise ConfigError(f"K_list: entries must lie in [1, {MAX_NODES}]")
    if "K_star" in pairs:
        config.k_star = _as_int(pairs, "K_star")
        if config.k is None:
            raise ConfigError("K_star requires an explicit K")
        if not 1 <= config.k_star <= config.k:
            raise ConfigError(f"K_star: must lie in [1, K], got {config.k_star}")
    if "method" in pairs:
        config.method = pairs["method"]
        if config.method not in METHODS:
            raise ConfigError(f"method: expected one of {METHODS}, got {config.method!r}")
    if "grid" in pairs:
        value = pairs["grid"]
        if value == "uniform":
            config.grid_kind = "uniform"
        else:
            match = re.fullmatch(r"graded\(([^)]+)\)", value)
            if not match:
                raise ConfigError(f"grid: expected 'uniform' or 'graded(exponent)', got {value!r}")
            try:
                config.grid_exponent = float(match.group(1))
            except ValueError:
                raise ConfigError(f"grid: bad grading exponent in {value!r}") from None
            if not math.isfinite(config.grid_exponent):
                raise ConfigError(f"grid: grading exponent must be finite, got {value!r}")
            if config.grid_exponent <= 0.0:
                raise ConfigError("grid: grading exponent must be positive")
            config.grid_kind = "graded"
    if "function" in pairs:
        config.function = pairs["function"]
        if config.function not in corpus_names():
            raise ConfigError(
                f"function: unknown corpus name {config.function!r}; known: {corpus_names()}"
            )
    if "truth_tol" in pairs:
        config.truth_tol = _as_float(pairs, "truth_tol")
        if not TOL_MIN <= config.truth_tol <= TOL_MAX:
            raise ConfigError(f"truth_tol: must lie in [{TOL_MIN}, {TOL_MAX}]")
        if command == "decompose" and config.truth_tol > DECOMPOSE_TOL_MAX:
            raise ConfigError("truth_tol: decompose requires truth_tol <= 1e-8")
    if "output" in pairs:
        config.output = pairs["output"]
    if command == "convergence":
        if (config.n_list is None) == (config.k_list is None):
            raise ConfigError("convergence: give exactly one of N_list or K_list")
        if config.n_list is not None:
            if config.k is None:
                raise ConfigError("convergence: K is required with N_list")
            if config.n_steps is not None:
                raise ConfigError("convergence: N conflicts with N_list")
        else:
            if config.n_steps is None:
                raise ConfigError("convergence: N is required with K_list")
            if config.k is not None:
                raise ConfigError("convergence: K conflicts with K_list")
    return config


def _fmt(value: float) -> str:
    return repr(float(value))


def _rule_for(config: RunConfig, k: int):
    rule = gauss_laguerre_rule(k)
    if config.k_star is not None:
        rule = truncate_rule(rule, config.k_star)
    return rule


def _grid_for(config: RunConfig) -> TimeGrid:
    if config.grid_kind == "graded":
        return graded_grid(config.a, config.T, config.n_steps, config.grid_exponent)
    return uniform_grid(config.a, config.T, config.n_steps)


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise EvaluationError(f"non-finite {what} detected")


def _run_nodes(config: RunConfig) -> list[str]:
    rule = _rule_for(config, config.k)
    lines = ["k,node,weight"]
    for k, (node, weight) in enumerate(zip(rule.nodes, rule.weights), start=1):
        lines.append(f"{k},{_fmt(node)},{_fmt(weight)}")
    return lines


def _run_stiffness(config: RunConfig) -> list[str]:
    problem = DerivativeProblem(alpha=config.alpha, a=0.0, T=1.0, d_upper=lambda t: 0.0)
    lines = ["k,w,log10_lipschitz"]
    for row in stiffness_report(build_system(problem, _rule_for(config, config.k))):
        lines.append(f"{row.k},{_fmt(row.w)},{_fmt(row.log10_lipschitz)}")
    return lines


def _run_derivative(config: RunConfig) -> list[str]:
    problem = make_problem(config.function, config.alpha, a=config.a, T=config.T)
    exact = corpus_function(config.function, config.alpha, a=config.a, T=config.T).exact_caputo
    grid = _grid_for(config)
    values = evaluate_derivative(problem, _rule_for(config, config.k), grid, method=config.method)
    _check_finite(values, "derivative values")
    lines = ["n,t,value,exact_if_known,abs_err_if_known"]
    # Python floats format faster than numpy scalars and repr the same
    ts, vs = grid.points.tolist(), values.tolist()
    if exact is None:
        lines += [f"{n},{t!r},{v!r},," for n, (t, v) in enumerate(zip(ts, vs))]
    else:
        lines += [f"{n},{t!r},{v!r},{x!r},{abs(v - x)!r}"
                  for n, (t, v, x) in enumerate(zip(ts, vs, map(exact, ts)))]
    return lines


def _run_decompose(config: RunConfig) -> list[str]:
    problem = make_problem(config.function, config.alpha, a=config.a, T=config.T)
    grid = _grid_for(config)
    rule = _rule_for(config, config.k)
    rows = decompose_error(problem, rule, grid, method=config.method, truth_tol=config.truth_tol)
    lines = ["n,t,r_total,r_q,r_ode"]
    for row, t in zip(rows, grid.points):
        _check_finite(np.array([row.r_total, row.r_q, row.r_ode]), "error components")
        lines.append(f"{row.n},{_fmt(t)},{_fmt(row.r_total)},{_fmt(row.r_q)},{_fmt(row.r_ode)}")
    return lines


def _max_error(config: RunConfig, n_steps: int, rule: QuadratureRule) -> float:
    problem = make_problem(config.function, config.alpha, a=config.a, T=config.T)
    exact = corpus_function(config.function, config.alpha, a=config.a, T=config.T).exact_caputo
    grid = uniform_grid(config.a, config.T, n_steps)
    values = evaluate_derivative(problem, rule, grid, method=config.method)
    _check_finite(values, "derivative values")
    if exact is not None:
        truths = np.array([exact(float(t)) for t in grid.points])
    else:
        truths = np.array([brute_force_caputo(problem, float(t), config.truth_tol)
                           for t in grid.points])
    return float(np.max(np.abs(values - truths)))


def _run_convergence(config: RunConfig) -> list[str]:
    if config.n_list is not None:
        resolutions = config.n_list
        rule = _rule_for(config, config.k)
        errs = [_max_error(config, n, rule) for n in resolutions]
    else:
        resolutions = config.k_list
        errs = [_max_error(config, config.n_steps, _rule_for(config, k)) for k in resolutions]
    # a closed form that is infinite at t = a makes the max error infinite
    _check_finite(np.array(errs), "max errors")
    lines = ["resolution,max_err"]
    for resolution, err in zip(resolutions, errs):
        lines.append(f"{resolution},{_fmt(err)}")
    with warnings.catch_warnings():
        # fit_rate warns once per dropped zero error; the error below names them all
        warnings.simplefilter("ignore")
        try:
            fit = fit_rate([float(r) for r in resolutions], errs)
        except InsufficientDataError as exc:
            zero = [str(r) for r, err in zip(resolutions, errs) if err == 0.0]
            if not zero:
                raise
            raise InsufficientDataError(
                f"{exc}; the max error is 0 at resolutions {', '.join(zero)}"
            ) from None
    lines.append(f"{_fmt(fit.slope)},{_fmt(fit.r2)}")
    return lines


_RUNNERS = {
    "nodes": _run_nodes,
    "stiffness": _run_stiffness,
    "derivative": _run_derivative,
    "decompose": _run_decompose,
    "convergence": _run_convergence,
}


def run(config: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        # overflow shows up as a non-finite value, which every runner reports
        with np.errstate(over="ignore", invalid="ignore"):
            lines = _RUNNERS[config.command](config)
    except (EvaluationError,) as exc:
        print(f"diffcap: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OracleError as exc:
        print(f"diffcap: oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (InvalidParameterError, InsufficientDataError, ConfigError) as exc:
        print(f"diffcap: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = "\n".join(lines) + "\n"
    if config.output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(config.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"diffcap: config error: cannot write {config.output!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffcap",
        description="Fractional-derivative experiments driven by key = value configs.",
    )
    parser.add_argument(
        "target",
        help="config file path ('-' for stdin), or one of: " + ", ".join(COMMANDS),
    )
    parser.add_argument(
        "settings",
        nargs="*",
        metavar="key=value",
        help="config entries when the first argument is a command name",
    )
    args = parser.parse_args(argv)
    if args.target in COMMANDS:
        text = "\n".join([f"command = {args.target}", *args.settings])
    elif args.target == "-":
        text = sys.stdin.read()
    else:
        if args.settings:
            print("diffcap: config error: key=value settings only follow a command name",
                  file=sys.stderr)
            return EXIT_CONFIG
        try:
            text = Path(args.target).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"diffcap: config error: cannot read {args.target!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"diffcap: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
