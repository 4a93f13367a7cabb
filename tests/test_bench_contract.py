"""The names the benchmark in ``perfbench/`` looks up in the package.

``perfbench/run.py`` wraps the attributes listed by ``tracing._targets`` and
times the backend kernels named in ``layers.KERNELS``; a change to the
package that drops one of those names breaks the benchmark, so it fails
here first.  The benchmark's files are loaded by path and not changed.
"""

import importlib.util
import sys
from pathlib import Path

from dirframes import backend

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_targets_exist():
    targets = _load("tracing")._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_backend_names_exist():
    import dirframes._kernels_py  # noqa: F401  (imported by perfbench/layers.py)

    assert callable(backend.backend_name)
    assert isinstance(backend.HAVE_COMPILED, bool)
    assert all(callable(getattr(backend, k, None)) for k in _load("layers").KERNELS)
