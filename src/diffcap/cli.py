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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import DECOMPOSE_TOL_MAX, decompose_error, fit_rate
from .diffusive import (DerivativeProblem, TimeGrid, build_system, fractional_part, graded_grid,
                        stiffness_report, uniform_grid)
from .errors import EvaluationError, InsufficientDataError, InvalidParameterError, OracleError
from .corpus import corpus_function, make_problem
from .oracle import TOL_MAX, _validate_tol, brute_force_caputo
from .quadrature import QuadratureRule, _check_count, gauss_laguerre_rule, truncate_rule
from .steppers import BACKWARD_EULER, METHODS, evaluate_derivative

COMMANDS = ("derivative", "decompose", "convergence", "nodes", "stiffness")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4


class ConfigError(ValueError):
    """A config file is malformed or fails validation."""


@dataclass
class RunConfig:
    """A parsed config as library objects: one (rule, grid) pair per scheme run,
    one run per entry of ``resolutions`` in a convergence sweep."""

    command: str
    problem: DerivativeProblem | None = None
    exact: Callable[[float], float] | None = None
    rules: tuple[QuadratureRule, ...] = ()
    grids: tuple[TimeGrid, ...] = ()
    resolutions: tuple[int, ...] = ()
    method: str = BACKWARD_EULER
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


#: how each numeric key's text becomes its value
_NUMBERS = dict(
    alpha=_as_float, a=_as_float, T=_as_float, truth_tol=_as_float, N=_as_int, K=_as_int,
    K_star=_as_int, N_list=_as_int_list, K_list=_as_int_list,
)


@contextmanager
def _building(key: str):
    """Turn the library's rejection of ``key``'s value into a ConfigError that names
    the key.  The grid builders keep their own overflow silent."""
    try:
        yield
    except InvalidParameterError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _grading_exponent(value: str) -> float | None:
    """The exponent x of ``graded(x)``, or None for ``uniform``."""
    if value == "uniform":
        return None
    match = re.fullmatch(r"graded\(([^)]+)\)", value)
    if not match:
        raise ConfigError(f"grid: expected 'uniform' or 'graded(exponent)', got {value!r}")
    try:
        return float(match.group(1))
    except ValueError:
        raise ConfigError(f"grid: bad grading exponent in {value!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse a config and build its problem, rules and grids through the library,
    which checks every value; each violation is a ConfigError naming its key."""
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

    v = {key: parse(pairs, key) for key, parse in _NUMBERS.items() if key in pairs}
    if "K_star" in v and "K" not in v:
        raise ConfigError("K_star requires an explicit K")
    if command == "convergence":
        if ("N_list" in v) == ("K_list" in v):
            raise ConfigError("convergence: give exactly one of N_list or K_list")
        sweep, needed, conflicting = ("N_list", "K", "N") if "N_list" in v else ("K_list", "N", "K")
        if needed not in v:
            raise ConfigError(f"convergence: {needed} is required with {sweep}")
        if conflicting in v:
            raise ConfigError(f"convergence: {conflicting} conflicts with {sweep}")
    method = pairs.get("method", BACKWARD_EULER)
    if method not in METHODS:
        raise ConfigError(f"method: expected one of {METHODS}, got {method!r}")
    exponent = _grading_exponent(pairs.get("grid", "uniform"))
    config = RunConfig(command, method=method, output=pairs.get("output"))

    # where one build takes several keys, the key it would misname is checked first
    if "alpha" in v:
        with _building("alpha"):
            fractional_part(v["alpha"])
        with _building("T"):  # stiffness takes neither a nor T and runs on this problem
            config.problem = DerivativeProblem(v["alpha"], v.get("a", 0.0), v.get("T", 1.0),
                                               d_upper=lambda t: 0.0)
    if "function" in pairs:
        args = (pairs["function"], v["alpha"], v["a"], v["T"])
        with _building("function"):
            config.exact = corpus_function(*args).exact_caputo
        config.problem = make_problem(*args)

    if "K_list" in v:
        config.resolutions = v["K_list"]
        with _building("K_list"):
            config.rules = tuple(gauss_laguerre_rule(k) for k in v["K_list"])
    else:
        with _building("K"):
            config.rules = (gauss_laguerre_rule(v["K"]),)
    if "K_star" in v:
        with _building("K_star"):
            config.rules = (truncate_rule(config.rules[0], v["K_star"]),)

    if "N_list" in v:
        config.resolutions = v["N_list"]
        with _building("N_list"):
            config.grids = tuple(uniform_grid(v["a"], v["T"], n) for n in v["N_list"])
        config.rules *= len(config.grids)
    elif exponent is not None:
        with _building("N"):
            _check_count(v["N"], "step count")
        with _building("grid"):
            config.grids = (graded_grid(v["a"], v["T"], v["N"], exponent),)
    elif "N" in v:
        with _building("N"):
            config.grids = (uniform_grid(v["a"], v["T"], v["N"]),) * len(config.rules)

    if "truth_tol" in v:
        upper = DECOMPOSE_TOL_MAX if command == "decompose" else TOL_MAX
        with _building("truth_tol"):
            config.truth_tol = _validate_tol(v["truth_tol"], upper)
    return config


def _fmt(value: float) -> str:
    return repr(float(value))


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise EvaluationError(f"non-finite {what} detected")


def _run_nodes(config: RunConfig) -> list[str]:
    [rule] = config.rules
    lines = ["k,node,weight"]
    for k, (node, weight) in enumerate(zip(rule.nodes, rule.weights), start=1):
        lines.append(f"{k},{_fmt(node)},{_fmt(weight)}")
    return lines


def _run_stiffness(config: RunConfig) -> list[str]:
    lines = ["k,w,log10_lipschitz"]
    for row in stiffness_report(build_system(config.problem, config.rules[0])):
        lines.append(f"{row.k},{_fmt(row.w)},{_fmt(row.log10_lipschitz)}")
    return lines


def _run_derivative(config: RunConfig) -> list[str]:
    [rule], [grid], exact = config.rules, config.grids, config.exact
    values = evaluate_derivative(config.problem, rule, grid, method=config.method)
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
    [rule], [grid] = config.rules, config.grids
    rows = decompose_error(config.problem, rule, grid, method=config.method,
                           truth_tol=config.truth_tol)
    lines = ["n,t,r_total,r_q,r_ode"]
    for row, t in zip(rows, grid.points):
        _check_finite(np.array([row.r_total, row.r_q, row.r_ode]), "error components")
        lines.append(f"{row.n},{_fmt(t)},{_fmt(row.r_total)},{_fmt(row.r_q)},{_fmt(row.r_ode)}")
    return lines


def _max_error(config: RunConfig, rule: QuadratureRule, grid: TimeGrid) -> float:
    values = evaluate_derivative(config.problem, rule, grid, method=config.method)
    truth = config.exact or (lambda t: brute_force_caputo(config.problem, t, config.truth_tol))
    truths = np.array([truth(float(t)) for t in grid.points])
    return float(np.max(np.abs(values - truths)))


def _run_convergence(config: RunConfig) -> list[str]:
    resolutions = config.resolutions
    errs = [_max_error(config, rule, grid) for rule, grid in zip(config.rules, config.grids)]
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
    except EvaluationError as exc:
        print(f"diffcap: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OracleError as exc:
        print(f"diffcap: oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (InvalidParameterError, InsufficientDataError) as exc:
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
        prog="diffcap", description="Fractional-derivative experiments driven by key = value configs.")
    parser.add_argument(
        "target", help="config file path ('-' for stdin), or one of: " + ", ".join(COMMANDS))
    parser.add_argument("settings", nargs="*", metavar="key=value",
                        help="config entries when the first argument is a command name")
    args = parser.parse_args(argv)
    try:
        if args.target in COMMANDS:
            text = "\n".join([f"command = {args.target}", *args.settings])
        elif args.settings:
            raise ConfigError("key=value settings only follow a command name")
        else:
            try:  # stdin's undecodable bytes come as surrogates: restore and decode them
                text = (sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")
                        if args.target == "-" else Path(args.target).read_text(encoding="utf-8"))
            except (OSError, UnicodeError) as exc:
                raise ConfigError(f"cannot read {args.target!r}: {exc}") from None
        config = parse_config(text)
    except ConfigError as exc:
        print(f"diffcap: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
