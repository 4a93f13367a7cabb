#!/usr/bin/env python3
"""Check that the tests kill a committed list of one-line mutants.

    python3 scripts/mutants.py [--root DIR]

``--root`` is a checkout (default: the one holding this script).  Each
entry of ``MUTANTS`` names a file of the checkout, an exact text that must
occur in it once, the text that replaces it, and the pytest ids that the
replacement must make fail.  The script first runs the union of those ids
on an unmutated copy of the checkout, where every one must pass.  Then, for
each mutant, it copies the checkout to a temporary directory, applies the
one replacement and runs only that mutant's ids.  A mutant is killed when
every one of its ids fails.

The script prints one line per mutant and a summary line, and exits 0 only
when every id passes unmutated and every mutant is killed.  It copies
the checkout once per mutant and the heap tests start child interpreters,
so a run takes about 20 s on a 2-core VM; it is not part of the tier-1
suite.  Run it after tightening, loosening or
re-deriving a check, and add a mutant here when a new test is shown to
bite.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

_HEAP = [f"tests/test_solver.py::test_loop_makes_no_new_large_temporaries[{case}]"
         for case in ("scrambled-hadamard-0.4", "scrambled-hadamard-0.6",
                      "complex-noiselet-0.4", "complex-noiselet-0.6")]

_KERNEL = "tests/test_sensing.py::test_kernel_bytes_match_rotating_write"

_ATOMS = [f"tests/test_frames.py::test_atom_norms[{case}]"
          for case in ("dadcf", "rdadcf", "dadcf-4", "rdadcf-4", "pyramid-4",
                       "dct-4", "dft-4", "dht-4")] + [
    "tests/test_frames.py::test_mixed_atoms_match_cosine_closed_form[4]",
    "tests/test_frames.py::test_mixed_atoms_match_cosine_closed_form[8]",
    # at M = 4 the only even pair is (2, 2), whose atoms are symmetric
    "tests/test_frames.py::test_rdadcf_even_pair_atoms_match_cosine_closed_form[8]",
    "tests/test_acceptance.py::test_criterion_4_atom_identities",
]

_ORTHONORMAL = "tests/test_transforms.py::test_transform_matrix_rejects_rows_that_are_not_orthonormal"

_SEEDED = "tests/test_sensing.py::test_operator_matches_seeded_definition"
_NOISELET_ADJOINT = "tests/test_sensing.py::test_noiselet_adjoint_matches_definition"
# the odd powers of two, whose butterfly ends in the 45-degree turn
_ODD_NOISELET = ([f"{_SEEDED}[complex-noiselet-{n}]" for n in (512, 2048)]
                 + [f"{_NOISELET_ADJOINT}_at_odd_log2[{n}]" for n in (512, 2048)])

# (name, file, exact old text, new text, ids that must fail)
MUTANTS = [
    ("primal-copy", "src/dirframes/solver.py",
     "        np.clip(x_new, 0.0, 1.0, out=x_new)\n",
     "        np.clip(x_new, 0.0, 1.0, out=x_new)\n        x_new = x_new.copy()\n",
     _HEAP),
    ("fresh-seam-weights", "src/dirframes/solver.py",
     "        w = self._weights\n",
     "        w = np.empty_like(self._weights)\n",
     _HEAP),
    ("frame-step-copy", "src/dirframes/solver.py",
     "        frame.adjoint_blocks(dual_l1(z1[chunk], a, gamma), out=blocks)\n",
     "        blocks[...] = frame.adjoint_blocks(dual_l1(z1[chunk], a, gamma))\n",
     _HEAP),
    ("butterfly-groups-swapped", "src/dirframes/_kernels_py.py",
     "    for low in range(0, bits, RADIX_BITS):\n",
     "    lows = list(range(0, bits, RADIX_BITS))\n"
     "    lows[:2] = lows[1::-1]\n"
     "    for low in lows:\n",
     # complex n = 32 is checked to a tolerance, which a group swap keeps
     [f"{_KERNEL}[{2**k}-fwht]" for k in range(5, 21)]
     + [f"{_KERNEL}[{n}-{name}]" for n in (64, 128)
        for name in ("noiselet", "noiselet_adjoint")]),
    ("atom-row-major", "src/dirframes/frames.py",
     'op.analysis[index].reshape(M, M, order="F")',
     "op.analysis[index].reshape(M, M)",
     _ATOMS),
    ("orthonormality-unchecked", "src/dirframes/transforms.py",
     "        if res > _GRAM_TOL:\n",
     "        if False:\n",
     [f"{_ORTHONORMAL}[real]", f"{_ORTHONORMAL}[complex]"]),
    ("gram-without-conj", "src/dirframes/transforms.py",
     "self.entries @ self.entries.conj().T",
     "self.entries @ self.entries.T",
     [f"{_ORTHONORMAL}[complex]"]),
    ("noiselet-turn-sign-flipped", "src/dirframes/sensing.py",
     "        row_signs[rows >= h] *= -1.0\n",
     "        row_signs[rows >= h] *= 1.0\n",
     _ODD_NOISELET),
    ("noiselet-row-signs-dropped", "src/dirframes/sensing.py",
     "    rows, row_signs = _turn(j, t, q, h)\n",
     "    rows, row_signs = _turn(j, t, q, h)[0], np.ones(len(j))\n",
     _ODD_NOISELET + [f"{_SEEDED}[complex-noiselet]", _NOISELET_ADJOINT]),
]


def _copy(root, dest):
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".bench_work", ".hypothesis"))


def _failed(checkout, ids):
    """Run ``ids`` in ``checkout``; the set of ids that did not pass."""
    report = Path(checkout) / "junit.xml"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(checkout) / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    f"--junitxml={report}", *ids],
                   cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    passed = set()
    if report.is_file():
        for case in ET.parse(report).iter("testcase"):
            if not any(child.tag in ("failure", "error", "skipped") for child in case):
                module = case.get("classname").replace(".", "/") + ".py"
                passed.add(f"{module}::{case.get('name')}")
    return set(ids) - passed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path,
                   help="checkout whose tests are checked")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(args.root, clean)
        every = sorted({i for m in MUTANTS for i in m[4]})
        bad = _failed(clean, every)
        for test_id in sorted(bad):
            print(f"does not pass unmutated: {test_id}")
        ok = not bad
        killed = 0
        for name, rel, old, new, ids in MUTANTS:
            copy = Path(tmp) / name
            _copy(args.root, copy)
            path = copy / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: the old text occurs {text.count(old)} times in {rel}")
                ok = False
                continue
            path.write_text(text.replace(old, new))
            survived = set(ids) - _failed(copy, ids)
            killed += not survived
            print(f"{name}: {'killed' if not survived else 'SURVIVED'}, "
                  f"{len(ids) - len(survived)} of {len(ids)} ids fail")
            for test_id in sorted(survived):
                print(f"  still passes: {test_id}")
            shutil.rmtree(copy)
        ok = ok and killed == len(MUTANTS)
    print(f"{killed} of {len(MUTANTS)} mutants killed; "
          f"{len(every) - len(bad)} of {len(every)} ids pass unmutated")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
