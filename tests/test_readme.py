"""The README's Python quickstart, run as written.

The block is read from ``README.md`` when the test runs, so the documented
API is the tested API: the package's ``__all__`` must be ``__version__``
plus exactly the names the block imports, and the block must print the
recovery it promises.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

import dirframes

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "README must hold exactly one python block"
    return blocks[0]


def _package_imports(source):
    return [alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "dirframes"
            for alias in node.names]


def test_package_exports_what_the_quickstart_imports():
    names = _package_imports(_quickstart())
    assert names
    assert sorted(dirframes.__all__) == sorted(["__version__", *names])


def test_quickstart_runs_as_written():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quickstart(), str(README), "exec"), {"__name__": "__readme__"})
    match = re.fullmatch(r"(\d+\.\d) dB vs baseline (\d+\.\d) dB \((\d+) iterations, (\w+)\)\n",
                         out.getvalue())
    assert match, out.getvalue()
    recovered, baseline, _, stop_reason = match.groups()
    assert stop_reason == "tolerance"
    assert float(recovered) - float(baseline) >= 15.0
