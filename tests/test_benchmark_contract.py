"""The benchmark's tracer binds package functions and their arguments by name.

``perfbench/tracing.py`` wraps each layer function on every module that
binds it and reads counters from named arguments.  These tests load it as
it is, so renaming a layer or a counted parameter fails here and not only
when the benchmark runs.  The benchmark's own self-test runs here as well,
so a change that stops a traced layer from firing, or makes its counters
differ between identical runs, fails too.
"""

import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import cylwidth.cli  # noqa: F401  (loads every module the tracer patches)

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "cylwidth"
        for key, value in vars(module).items()
        if callable(value)
    }


def test_tracer_installs_on_the_package_and_uninstalls():
    tracing = _load_tracing()
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        # install() raises unless every binding of every layer is wrapped
        tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_counted_arguments_are_parameters_of_their_layer():
    tracing = _load_tracing()
    checked = 0
    for module_name, attr, name, count in tracing.LAYERS:
        if count is None:
            continue
        read = set(re.findall(r'\ba\["(\w+)"\]', inspect.getsource(count)))
        params = inspect.signature(getattr(sys.modules[module_name], attr)).parameters
        assert read <= set(params), f"{name} counter reads {read - set(params)}"
        checked += len(read)
    # starts, pairs, points, vectors, orbit, k
    assert checked == 6


def test_benchmark_selftest_passes():
    # a few seconds: every workload at a tiny size, once untraced, twice traced
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert done.returncode == 0, done.stdout + done.stderr
