import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import diffcap
from diffcap.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_ORACLE,
    ConfigError,
    main,
    parse_config,
    run,
)
from diffcap import (
    brute_force_caputo,
    evaluate_derivative,
    graded_grid,
    make_problem,
    truncate_rule,
    uniform_grid,
)
from diffcap.errors import EvaluationError, OracleError
from diffcap.quadrature import gauss_laguerre_rule


def test_parse_minimal_nodes_config():
    config = parse_config("command = nodes\nK = 2")
    assert config.command == "nodes"
    assert [rule.npoints for rule in config.rules] == [2]


def test_parse_supports_comments_and_blank_lines():
    config = parse_config("# a comment\n\ncommand = nodes\nK = 3\n")
    assert config.rules[0].npoints == 3


def test_parse_rejects_integer_order():
    text = "command = derivative\nalpha = 1.0\na = 0\nT = 1\nN = 10\nK = 5\nfunction = pow2"
    with pytest.raises(ConfigError, match="integer"):
        parse_config(text)


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("command = nodes\nnodes = 5\nK = 2")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("command = nodes\nK = 2\nK = 3")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("command nodes")


def test_parse_rejects_unknown_command():
    with pytest.raises(ConfigError, match="command"):
        parse_config("command = integrate\nK = 2")


def test_parse_rejects_missing_required_keys():
    with pytest.raises(ConfigError, match="missing"):
        parse_config("command = derivative\nalpha = 0.5")


def test_parse_rejects_keys_foreign_to_command():
    with pytest.raises(ConfigError, match="not used"):
        parse_config("command = nodes\nK = 2\nalpha = 0.5")


def test_parse_validates_ranges():
    with pytest.raises(ConfigError, match="K"):
        parse_config("command = nodes\nK = 0")
    with pytest.raises(ConfigError, match="K_star"):
        parse_config("command = nodes\nK = 4\nK_star = 5")
    with pytest.raises(ConfigError, match="method"):
        parse_config(
            "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 4\nK = 4\n"
            "function = pow2\nmethod = rk4"
        )
    with pytest.raises(ConfigError, match="grid"):
        parse_config(
            "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 4\nK = 4\n"
            "function = pow2\ngrid = chebyshev"
        )
    with pytest.raises(ConfigError, match="function"):
        parse_config(
            "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 4\nK = 4\nfunction = pow7"
        )
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(
            "command = convergence\nalpha = 0.5\na = 0\nT = 1\nK = 4\n"
            "function = pow1\nN_list = 8,8,16"
        )


def test_parse_graded_grid():
    config = parse_config(
        "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 4\nK = 4\n"
        "function = pow2\ngrid = graded(2.0)"
    )
    assert len(config.grids) == 1
    assert config.grids[0].points.tolist() == graded_grid(0, 1, 4, 2.0).points.tolist()


def test_parse_convergence_requires_exactly_one_sweep():
    base = "command = convergence\nalpha = 0.5\na = 0\nT = 1\nK = 4\nfunction = pow1\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(base + "N_list = 4,8\nK_list = 2,4\nN = 4")
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config(base + "N_list = 4,8\nN = 4")
    config = parse_config(base + "N_list = 4,8,16")
    assert config.resolutions == (4, 8, 16)
    assert [grid.n_steps for grid in config.grids] == [4, 8, 16]
    assert [rule.npoints for rule in config.rules] == [4, 4, 4]


def test_parse_convergence_node_sweep():
    base = "command = convergence\nalpha = 0.5\na = 0\nT = 1\nfunction = pow1\n"
    config = parse_config(base + "K_list = 2,4,8\nN = 50")
    assert config.resolutions == (2, 4, 8)
    assert [rule.npoints for rule in config.rules] == [2, 4, 8]
    assert [grid.n_steps for grid in config.grids] == [50, 50, 50]
    with pytest.raises(ConfigError, match="N is required"):
        parse_config(base + "K_list = 2,4,8")
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config(base + "K_list = 2,4,8\nN = 50\nK = 4")


def test_run_convergence_node_sweep(capsys):
    config = parse_config(
        "command = convergence\nalpha = 0.5\na = 0\nT = 1\nN = 50\n"
        "function = pow1\nK_list = 2,4,8"
    )
    assert run(config) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "resolution,max_err"
    assert [line.split(",")[0] for line in lines[1:4]] == ["2", "4", "8"]


@pytest.mark.parametrize(
    "sweep, calls", [("K = 8\nN_list = 8,16,32", 1), ("N = 50\nK_list = 2,4,8", 3)]
)
def test_convergence_builds_one_rule_per_k(monkeypatch, capsys, sweep, calls):
    import diffcap.cli as cli

    built = []

    def counting_rule(k):
        built.append(k)
        return gauss_laguerre_rule(k)

    monkeypatch.setattr(cli, "gauss_laguerre_rule", counting_rule)
    config = parse_config(
        "command = convergence\nalpha = 0.5\na = 0\nT = 1\nfunction = pow1\n" + sweep
    )
    assert run(config) == EXIT_OK
    assert len(built) == calls


def test_parse_k_star_requires_k():
    with pytest.raises(ConfigError, match="K_star requires"):
        parse_config(
            "command = convergence\nalpha = 0.5\na = 0\nT = 1\nN = 50\n"
            "function = pow1\nK_list = 2,4\nK_star = 2"
        )


_DERIVATIVE = "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 4\nK = 4\nfunction = pow2\n"
_DECOMPOSE = _DERIVATIVE.replace("derivative", "decompose")
_CONVERGENCE = "command = convergence\nalpha = 0.5\na = 0\nT = 1\nfunction = pow1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _CONVERGENCE + "K = 4\nN_list = 0,4",
            "N_list: step count must be an integer in [1, inf], got 0",
        ),
        (
            _CONVERGENCE + "N = 10\nK_list = 0,4",
            "K_list: node count must be an integer in [1, 256], got 0",
        ),
        (
            _CONVERGENCE + "N = 10\nK_list = 2,300",
            "K_list: node count must be an integer in [1, 256], got 300",
        ),
        (_DECOMPOSE + "truth_tol = 1e-3", "truth_tol: tolerance must lie in [1e-14, 1e-08], got 0.001"),
        (_DECOMPOSE + "truth_tol = 1e-20", "truth_tol: tolerance must lie in [1e-14, 1e-08], got 1e-20"),
        (_DECOMPOSE + "truth_tol = 1e-7", "truth_tol: tolerance must lie in [1e-14, 1e-08], got 1e-07"),
        (
            _CONVERGENCE + "K = 4\nN_list = 4,8,16\ntruth_tol = 1e-3",
            "truth_tol: tolerance must lie in [1e-14, 1e-06], got 0.001",
        ),
        (
            _DERIVATIVE + "truth_tol = 1e-9",
            "key 'truth_tol' is not used by command 'derivative'",
        ),
        (_DERIVATIVE + "grid = graded(x)", "grid: bad grading exponent in 'graded(x)'"),
        (
            _DERIVATIVE + "grid = graded(-1)",
            "grid: grading exponent must be positive and finite, got -1.0",
        ),
        (
            _DERIVATIVE + "grid = graded(0)",
            "grid: grading exponent must be positive and finite, got 0.0",
        ),
        (
            _DERIVATIVE + "grid = graded(nan)",
            "grid: grading exponent must be positive and finite, got nan",
        ),
        (
            _DERIVATIVE + "grid = graded(inf)",
            "grid: grading exponent must be positive and finite, got inf",
        ),
        (
            _DERIVATIVE + "grid = graded(1e400)",
            "grid: grading exponent must be positive and finite, got inf",
        ),
        (
            _DERIVATIVE.replace("N = 4", "N = 0") + "grid = graded(2)",
            "N: step count must be an integer in [1, inf], got 0",
        ),
        ("command = nodes\nK =\n", "line 2: empty value for 'K'"),
        (_CONVERGENCE + "N = 50\nK_list = 2,4\nK_star = 2", "K_star requires an explicit K"),
        (
            _DERIVATIVE.replace("T = 1\n", "T = -1\n"),
            "T: interval length must be positive, got -1.0",
        ),
        (_DERIVATIVE.replace("N = 4", "N = 0"), "N: step count must be an integer in [1, inf], got 0"),
        (_DERIVATIVE.replace("\na = 0\n", "\na = x\n"), "a: expected a number, got 'x'"),
        (_DERIVATIVE.replace("\na = 0\n", "\na = inf\n"), "a: must be finite, got 'inf'"),
        (
            _CONVERGENCE + "K = 4\nN_list = 4,x",
            "N_list: expected comma-separated integers, got '4,x'",
        ),
        ("alpha = 0.5\nK = 4", "missing required key 'command'"),
        (_CONVERGENCE + "N_list = 4,8,16", "convergence: K is required with N_list"),
        (
            "command = nodes\nK = 4\nK_star = 5",
            "K_star: truncation count must be an integer in [1, 4], got 5",
        ),
        (
            _DERIVATIVE.replace("pow2", "pow7"),
            "function: unknown corpus function 'pow7'; "
            "known: ('pow1', 'pow2', 'pow3', 'pow2.5', 'exp', 'sin')",
        ),
        (
            _DERIVATIVE.replace("pow2", "pow7").replace("T = 1\n", "T = -1\n"),
            "T: interval length must be positive, got -1.0",
        ),
        (
            _DERIVATIVE.replace("alpha = 0.5", "alpha = 2.0"),
            "alpha: integer orders are rejected (sin(alpha*pi) degenerates), got 2.0",
        ),
        (
            _DERIVATIVE.replace("a = 0\nT = 1", "a = 1e308\nT = 1e308"),
            "T: interval end a + T overflows, got a = 1e+308, T = 1e+308",
        ),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_run_nodes_single_point(tmp_path, capsys):
    config = parse_config("command = nodes\nK = 1")
    assert run(config) == EXIT_OK
    assert capsys.readouterr().out == "k,node,weight\n1,1.0,1.0\n"


def test_run_derivative_on_constant_function(tmp_path):
    # y(t) = t with alpha in (1, 2) has zero upper derivative: all outputs 0
    out = tmp_path / "deriv.csv"
    config = parse_config(
        f"command = derivative\nalpha = 1.5\na = 0\nT = 1\nN = 10\nK = 5\n"
        f"function = pow1\noutput = {out}"
    )
    assert run(config) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,t,value,exact_if_known,abs_err_if_known"
    assert len(lines) == 12
    assert all(line.split(",")[2] == "0.0" for line in lines[1:])


def test_run_derivative_smoke_with_exact_column(tmp_path):
    out = tmp_path / "deriv.csv"
    config = parse_config(
        f"command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 100\nK = 20\n"
        f"function = pow2\noutput = {out}"
    )
    assert run(config) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 102
    last = lines[-1].split(",")
    assert float(last[1]) == 1.0
    assert float(last[3]) == pytest.approx(math.gamma(3.0) / math.gamma(2.5), rel=1e-12)
    assert float(last[4]) == pytest.approx(abs(float(last[2]) - float(last[3])), abs=1e-15)


def test_run_derivative_without_closed_form_leaves_columns_empty(capsys):
    config = parse_config(
        "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 4\nK = 4\nfunction = sin"
    )
    assert run(config) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(",,")


def test_run_derivative_exact_column_is_infinite_at_a(capsys):
    # the closed form (t - a)^(2.5 - alpha) of pow2.5 is infinite at t = a for alpha > 2.5
    argv = ["derivative", "alpha=2.7", "a=0", "T=1", "N=4", "K=8", "function=pow2.5"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0,0.0,0.0,inf,inf"
    assert all(math.isfinite(float(field)) for line in lines[2:] for field in line.split(","))


def test_run_derivative_with_overflowing_forcing_is_numerical_failure(capsys):
    argv = ["derivative", "alpha=0.5", "a=0", "T=800", "N=40", "K=16", "function=exp"]
    assert main(argv) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "a, T, code, prefix",
    [
        # the scheme's values overflow past the largest double
        ("1e300", "1e300", EXIT_NUMERICAL, "diffcap: numerical failure:"),
        # the interval end a + T itself overflows
        ("1e308", "1e308", EXIT_CONFIG, "diffcap: config error: T: interval end a + T overflows"),
    ],
)
def test_run_derivative_overflow_prints_one_line_and_no_numpy_warning(a, T, code, prefix, capsys):
    argv = ["derivative", "function=pow2", "alpha=0.5", f"a={a}", f"T={T}", "N=4", "K=16"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1


def test_run_derivative_whose_values_overflow_names_the_time(capsys):
    # the scheme's values, not its forcing, pass the largest double here
    argv = ["derivative", "function=pow2", "alpha=0.5", "a=0", "T=1e250", "N=40", "K=64"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err == "diffcap: numerical failure: the solution is not finite at t = 2.5e+248\n"


_TOP = "T=1.7976931348623157e308"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["derivative", "a=0", _TOP, "N=3"], EXIT_NUMERICAL),
        (["convergence", "a=0", _TOP, "N_list=3,7,9"], EXIT_NUMERICAL),
        (["derivative", "a=-1e308", "T=1.7e308", "N=7", "grid=graded(2)"], EXIT_NUMERICAL),
        (["derivative", "a=1e308", "T=1e308", "N=3"], EXIT_CONFIG),
    ],
    ids=["uniform-top", "convergence-top", "graded-wide", "end-overflows"],
)
def test_grids_near_the_top_of_double_range_print_one_line_and_no_numpy_warning(argv, code, capsys):
    # the grid builders silence their own overflow; the config parser adds no guard
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "function=pow2", "alpha=0.5", "K=16"]) == code
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.count("\n") == 1


def test_run_derivative_exact_column_is_infinite_where_the_closed_form_overflows(capsys):
    # 1.5 t^1.5 exceeds the largest double at t = 1e250; the scheme's values,
    # whose error grows with the interval length, stay finite there
    argv = ["derivative", "alpha=0.5", "a=0", "T=1e250", "N=4", "K=16", "function=pow2"]
    assert main(argv) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows[-1][3:] == ["inf", "inf"]
    assert all(math.isfinite(float(row[2])) for row in rows)


def test_run_trapezoidal_derivative_never_evaluates_before_a(capsys):
    # t_1 - h rounds below a here, where the upper derivative (t - a)^0.5 of pow2.5 is complex
    argv = ["derivative", "alpha=0.5", "a=0.028", "T=1.18", "N=5", "K=8", "function=pow2.5",
            "method=trapezoidal"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all(math.isfinite(float(field)) for line in lines[1:] for field in line.split(","))


def test_run_convergence_with_infinite_exact_value_is_numerical_failure(capsys):
    argv = ["convergence", "alpha=2.7", "a=0", "T=1", "K=12", "function=pow2.5", "N_list=8,16,32"]
    assert main(argv) == EXIT_NUMERICAL
    assert "non-finite max errors" in capsys.readouterr().err


def test_run_convergence_with_zero_errors_names_them(capsys):
    # the order-1.5 Caputo derivative of t is 0, and so is every scheme value
    argv = ["convergence", "alpha=1.5", "a=0", "T=1", "K=12", "function=pow1", "N_list=8,16,32"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == EXIT_CONFIG
    assert caught == []
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "diffcap: config error: rate fit needs at least 3 positive-error points, 0 survived; "
        "the max error is 0 at resolutions 8, 16, 32"
    ]


def test_run_convergence_with_too_few_points_is_config_error(capsys):
    assert main(["convergence", "alpha=0.5", "a=0", "T=1", "K=12", "function=pow2",
                 "N_list=4,8"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "diffcap: config error: rate fit needs at least 3 positive-error points, 2 survived"
    ]


def test_run_decompose_schema(capsys):
    config = parse_config(
        "command = decompose\nalpha = 0.5\na = 0\nT = 1\nN = 5\nK = 8\n"
        "function = pow2\ntruth_tol = 1e-9"
    )
    assert run(config) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,t,r_total,r_q,r_ode"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[2] == "0.0" and first[3] == "0.0" and first[4] == "0.0"


def test_run_convergence_emits_summary_row(capsys):
    config = parse_config(
        "command = convergence\nalpha = 0.5\na = 0\nT = 1\nK = 12\n"
        "function = pow1\nN_list = 8,16,32"
    )
    assert run(config) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "resolution,max_err"
    assert len(lines) == 5
    errs = [float(line.split(",")[1]) for line in lines[1:4]]
    assert errs[0] > errs[1] > errs[2] > 0.0
    # the fit is against the resolution column, so an N-sweep has slope -p
    slope, r2 = (float(part) for part in lines[-1].split(","))
    assert slope < 0.0
    assert 0.0 <= r2 <= 1.0


def test_run_stiffness_rows(capsys):
    config = parse_config("command = stiffness\nalpha = 0.5\nK = 3")
    assert run(config) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,w,log10_lipschitz"
    assert len(lines) == 7
    assert float(lines[1].split(",")[1]) < 0.0
    assert float(lines[-1].split(",")[1]) > 0.0


@pytest.mark.parametrize(
    "text",
    [
        "command = nodes\nK = 7",
        "command = stiffness\nalpha = 0.7\nK = 5",
        "command = derivative\nalpha = 0.5\na = 0\nT = 1\nN = 20\nK = 8\nfunction = pow2",
        "command = decompose\nalpha = 0.5\na = 0\nT = 1\nN = 4\nK = 6\nfunction = pow2",
        "command = convergence\nalpha = 0.5\na = 0\nT = 1\nK = 8\nfunction = pow1\nN_list = 4,8,16",
    ],
)
def test_rerun_is_byte_identical(tmp_path, text):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert run(parse_config(text + f"\noutput = {first}")) == EXIT_OK
    assert run(parse_config(text + f"\noutput = {second}")) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_main_reads_config_file(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("command = nodes\nK = 1\n", encoding="utf-8")
    assert main([str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "k,node,weight\n1,1.0,1.0\n"


def test_main_supports_inline_command_form(capsys):
    assert main(["nodes", "K=1"]) == EXIT_OK
    assert capsys.readouterr().out == "k,node,weight\n1,1.0,1.0\n"


def test_main_missing_file_is_config_error(capsys):
    assert main(["/nonexistent/path.cfg"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("diffcap: config error:")
    assert err.count("\n") == 1


def test_main_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"command = nodes\nK = 2\n\xff\xfe\n")
    assert main([str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"diffcap: config error: cannot read {str(path)!r}: ")
    assert "can't decode byte 0xff" in captured.err
    assert captured.err.count("\n") == 1


def test_main_stdin_that_is_not_utf8_is_config_error(monkeypatch, capsys):
    # sys.stdin decodes undecodable bytes to lone surrogates; they fail the
    # read as in a file instead of reaching the parser
    monkeypatch.setattr("sys.stdin", io.StringIO("command = nodes\nK = 2\n\udcff\n"))
    assert main(["-"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("diffcap: config error: cannot read '-': ")
    assert "can't decode byte 0xff" in captured.err
    assert captured.err.count("\n") == 1


def test_unwritable_output_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.csv"
    assert main(["nodes", "K=2", f"output={target}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"diffcap: config error: cannot write {str(target)!r}")
    assert captured.err.count("\n") == 1
    assert not target.exists()


def test_main_reports_parse_errors_on_stderr(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("command = nodes\nK = banana\n", encoding="utf-8")
    assert main([str(path)]) == EXIT_CONFIG
    assert "K" in capsys.readouterr().err


def test_run_maps_failures_to_exit_codes(monkeypatch, capsys):
    import diffcap.cli as cli

    config = parse_config("command = nodes\nK = 1")
    monkeypatch.setitem(cli._RUNNERS, "nodes", lambda cfg: (_ for _ in ()).throw(
        EvaluationError("non-finite value")
    ))
    assert run(config) == EXIT_NUMERICAL
    monkeypatch.setitem(cli._RUNNERS, "nodes", lambda cfg: (_ for _ in ()).throw(
        OracleError("tolerance not met")
    ))
    assert run(config) == EXIT_ORACLE
    err = capsys.readouterr().err
    assert "numerical failure" in err and "oracle failure" in err


def _csv_columns(text):
    # a column left empty (no closed form) is dropped
    rows = [line.rstrip(",").split(",") for line in text.splitlines()[1:]]
    return [[float(field) for field in column] for column in zip(*rows)]


@pytest.mark.parametrize(
    "settings, rule, grid",
    [
        # the truncated rule of K_star
        (["K=12", "K_star=5"], lambda: truncate_rule(gauss_laguerre_rule(12), 5),
         lambda: uniform_grid(-0.5, 2.0, 9)),
        # the graded grid of grid=graded(e)
        (["K=12", "grid=graded(1.5)"], lambda: gauss_laguerre_rule(12),
         lambda: graded_grid(-0.5, 2.0, 9, 1.5)),
        # grid=uniform written out is the default grid
        (["K=12", "grid=uniform"], lambda: gauss_laguerre_rule(12),
         lambda: uniform_grid(-0.5, 2.0, 9)),
    ],
    ids=["k-star", "graded", "uniform"],
)
def test_run_derivative_values_are_the_library_call(settings, rule, grid, capsys):
    argv = ["derivative", "alpha=1.3", "a=-0.5", "T=2", "N=9", "function=sin", *settings]
    assert main(argv) == EXIT_OK
    columns = _csv_columns(capsys.readouterr().out)
    problem = make_problem("sin", 1.3, a=-0.5, T=2.0)
    assert columns[1] == grid().points.tolist()
    assert columns[2] == evaluate_derivative(problem, rule(), grid()).tolist()


def test_run_convergence_without_closed_form_measures_against_brute_force(capsys):
    argv = ["convergence", "alpha=0.5", "a=0", "T=1", "K=8", "N_list=4,8,16", "function=sin",
            "truth_tol=1e-8"]
    assert main(argv) == EXIT_OK
    resolutions, errs = _csv_columns(capsys.readouterr().out)[:2]
    problem = make_problem("sin", 0.5)
    for n_steps, err in zip((4, 8, 16), errs):
        grid = uniform_grid(0.0, 1.0, n_steps)
        values = evaluate_derivative(problem, gauss_laguerre_rule(8), grid)
        truths = [brute_force_caputo(problem, float(t), 1e-8) for t in grid.points]
        assert err == max(abs(v - truth) for v, truth in zip(values, truths))
    assert resolutions[:3] == [4.0, 8.0, 16.0]


def test_main_reads_config_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("command = nodes\nK = 1\n"))
    assert main(["-"]) == EXIT_OK
    assert capsys.readouterr().out == "k,node,weight\n1,1.0,1.0\n"


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_main_rejects_settings_after_a_config_file(stdin, tmp_path, monkeypatch, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("command = nodes\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("command = nodes\n"))
    assert main(["-" if stdin else str(path), "K=1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "diffcap: config error: key=value settings only follow a command name\n"
    )


@pytest.mark.parametrize("argv", [
    ["nodes", "K=256"],
    ["derivative", "alpha=0.6", "a=0", "T=1", "N=40", "K=64", "function=sin", "grid=graded(2)"],
])
def test_output_is_identical_in_fresh_processes(argv, capsys):
    # each fresh process generates its rule; this process reuses a cached one
    k = int(next(arg for arg in argv if arg.startswith("K="))[2:])
    gauss_laguerre_rule(k)
    assert main(argv) == EXIT_OK
    in_process = capsys.readouterr().out.encode("utf-8")
    env = dict(os.environ)
    src = str(Path(diffcap.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    streams = [
        subprocess.run([sys.executable, "-m", "diffcap.cli", *argv], env=env,
                       capture_output=True, check=True).stdout
        for _ in range(2)
    ]
    assert streams[0] == streams[1] == in_process


def _readme_block(after: str, fence: str) -> str:
    # the first block fenced by ``fence`` after the README line ``after``
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rest = text[text.index(after + "\n"):]
    start = rest.index(fence + "\n") + len(fence) + 1
    return rest[start:rest.index("\n```\n", start) + 1]


def test_readme_example_config_writes_its_grid(tmp_path, monkeypatch, capsys):
    # a "#" only starts a comment line, so a comment after a value would
    # reach the parser as part of that value
    text = _readme_block("Example config:", "```")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "example.cfg").write_text(text, encoding="utf-8")
    assert main(["example.cfg"]) == EXIT_OK, capsys.readouterr().err
    n_steps = int(re.search(r"^N = (\d+)$", text, re.M).group(1))
    output = re.search(r"^output = (\S+)$", text, re.M).group(1)
    assert len((tmp_path / output).read_text(encoding="utf-8").splitlines()) == n_steps + 2


def test_readme_quick_start_runs():
    namespace = {}
    exec(_readme_block("## Library quick start", "```python"), namespace)
    values, grid = namespace["values"], namespace["grid"]
    assert len(values) == len(grid.points) and values[0] == 0.0
