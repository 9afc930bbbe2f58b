"""The benchmark tracer (perfbench/tracing.py) rebinds diffcap module attributes
by name, so every name it rebinds must exist, and uninstalling must restore
each module exactly.  A name that only the tracer reads (an import kept for it)
would otherwise vanish unnoticed and break every traced benchmark run."""

import importlib.util
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
