"""Thread pinning, package lookup and the environment record.

Import this module before numpy: it pins every BLAS/OpenMP pool to one
thread, because the solver's output bytes depend on the BLAS thread count.
The benchmark measures the package in this checkout's ``src/``, never an
installed copy.
"""

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_package():
    """Put ``src/`` first on the path and check that dirframes loads from it."""
    init = SRC / "dirframes" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no package source at {init}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dirframes

    if Path(dirframes.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: dirframes resolved to {dirframes.__file__}, not {init}")
    return dirframes


def _blas_name(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_commit():
    # read .git directly: the benchmark may run where git is not installed,
    # and in an exported checkout there is no .git at all
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def describe(seed):
    """Everything that decides the output bytes and the timings of a run."""
    import numpy as np

    from dirframes import backend

    return {
        "backend": backend.backend_name(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
    }
