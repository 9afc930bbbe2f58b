"""The benchmark tracer (perfbench/tracing.py) rebinds diffcap module attributes
by name, so every name it rebinds must exist, and uninstalling must restore
each module exactly.  A name that only the tracer reads (an import kept for it)
would otherwise vanish unnoticed and break every traced benchmark run."""

import contextlib
import importlib.util
import io
from pathlib import Path

import diffcap
import diffcap.cli  # noqa: F401 - the tracer instruments the CLI module too

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_MODULES = ("quadrature", "diffusive", "steppers", "oracle", "analysis", "cli")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict[str, dict]:
    return {name: dict(vars(getattr(diffcap, name))) for name in _MODULES}


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


def test_tracer_installs_on_every_layer_and_uninstalls_cleanly():
    tracing = _load_tracing()
    before = _namespaces()
    saved = tracing.install(tracing.Tracer(), diffcap)
    try:
        during = _namespaces()
        assert {name for name in _MODULES if not _same(before[name], during[name])} == set(_MODULES)
    finally:
        tracing.uninstall(saved)
    after = _namespaces()
    for name in _MODULES:
        assert _same(before[name], after[name]), name


def test_traced_run_counts_one_forcing_call_per_step():
    # the stepper must still run through iter_solution and call d_upper once
    # per step, or the tracer's stepping and forcing numbers stop meaning much;
    # a uniform grid of several blocks and a partial one, one of two block
    # passes and a partial one (one counted resumption per value across the
    # passes the stream chains), and a graded grid
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, diffcap)
    rule = diffcap.gauss_laguerre_rule(6)
    block = diffcap.steppers._BLOCK
    grids = {
        "uniform": diffcap.uniform_grid(0.0, 1.0, 16),
        "blocks": diffcap.uniform_grid(0.0, 1.0, 2 * block + 5),
        "passes": diffcap.uniform_grid(0.0, 1.0, 2 * diffcap.steppers._PASS_BLOCKS * block + 5),
        "graded": diffcap.graded_grid(0.0, 1.0, 2 * block + 5),
    }
    runs = [(method, label) for method in diffcap.METHODS for label in grids]
    try:
        for method, label in runs:
            tracer.request = f"{method} {label}"
            tracer.begin("bench.request")
            problem = diffcap.oracle.make_problem("pow2", 0.5)
            diffcap.steppers.evaluate_derivative(problem, rule, grids[label], method=method)
            tracer.end()
            tracer.request = None
    finally:
        tracing.uninstall(saved)
    for method, label in runs:
        request, grid = f"{method} {label}", grids[label]
        metrics, _ = tracing.layer_metrics(tracer, {request: {"ok": True, "points": grid.n_steps}})
        assert metrics["steppers.forcing_calls_per_step"] == 1.0, request
        steps = [s for s in tracer.spans if s.name == "steppers.step" and s.request == request]
        assert [s.attrs for s in steps] == [{"N": grid.n_steps, "K": 6, "steps": grid.n_steps}], request


def test_traced_oracles_count_their_quadratures():
    # the tracer counts quad calls by rebinding oracle.integrate, so every
    # oracle quadrature must still go through that module attribute;
    # brute_force_caputo is one QAWS integral on [0, 1] whether or not the
    # problem declares its singular part, as pow2.5 does
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, diffcap)
    runs = [(name, oracle) for name in ("sin", "pow2.5")
            for oracle in ("brute_force_caputo", "reference_quadrature")]
    try:
        for name, oracle in runs:
            tracer.request = f"{name} {oracle}"
            tracer.begin("bench.request")
            getattr(diffcap.oracle, oracle)(diffcap.oracle.make_problem(name, 0.5), 0.7, 1e-9)
            tracer.end()
            tracer.request = None
    finally:
        tracing.uninstall(saved)
    quads = {f"{name} {oracle}": 0 for name, oracle in runs}
    for (request, counter, _), n in tracer.counts.items():
        if counter == "oracle.quad_calls":
            quads[request] += n
    assert quads["pow2.5 brute_force_caputo"] == quads["sin brute_force_caputo"] == 1, quads
    assert all(n >= 1 for n in quads.values()), quads


def test_traced_cli_run_counts_one_forcing_call_per_step():
    # the CLI must build its problem through the make_problem the tracer
    # rebinds in diffcap.cli, or its forcing calls go uncounted
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, diffcap)
    argv = ["derivative", "alpha=0.6", "a=0", "T=1", "N=40", "K=8", "function=sin",
            "grid=graded(2)"]
    stdout = io.StringIO()
    try:
        tracer.request = "cli"
        tracer.begin("bench.request")
        with contextlib.redirect_stdout(stdout):
            assert diffcap.cli.main(argv) == 0
        tracer.end()
        tracer.request = None
    finally:
        tracing.uninstall(saved)
    assert len(stdout.getvalue().splitlines()) == 42
    metrics, _ = tracing.layer_metrics(tracer, {"cli": {"ok": True, "points": 40}})
    assert metrics["steppers.forcing_calls_per_step"] == 1.0
    steps = [s for s in tracer.spans if s.name == "steppers.step"]
    assert [s.attrs for s in steps] == [{"N": 40, "K": 8, "steps": 40}]
