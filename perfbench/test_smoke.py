"""Smoke test of the benchmark on 64 x 64 images.

    python3 -m pytest perfbench/test_smoke.py

Runs one untraced and one traced pass of every workload at a small size and
checks that every metric BENCHMARK.json names is emitted with its unit, that
spans nest (no child outlives its parent), that each solve's layer self times
add up to its wall time, and that the predicted layer bypasses show.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

env.require_package()

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = 64
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _units(spec):
    return {name: unit for name, (unit, _) in spec.items()}


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
def test_untraced_pass(name):
    result, _, _, tally = run.run(name, 0, 0, 0, size=SMALL)
    assert result["correct"], tally.problems
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _units(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_pass(name):
    result, _, tracers, tally = run.run(name, 0, 0, 1, size=SMALL)
    assert result["correct"], tally.problems
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(layers.PER_LAYER)

    for tracer in tracers:
        spans = tracer.spans
        tree_self = defaultdict(float)
        for span, own in zip(spans, tracer.self_times()):
            assert own >= -1e-9, span
            tree_self[span.root] += own
            if span.parent is not None:
                parent = spans[span.parent]
                assert parent.start <= span.start and span.end <= parent.end, (parent, span)
        for root, total in tree_self.items():
            assert total == pytest.approx(spans[root].duration, rel=1e-9, abs=1e-9)
        roots = {spans[r].name for r in tree_self}
        assert ("cli.main" if name == "noiselet-cli" else "solver.solve") in roots

    assert metrics["sensing.calls"] > 0 and metrics["frames.calls"] > 0
    assert metrics["solver.gate.passes"] > 0
    if name == "noiselet-cli":
        assert metrics["backend.fwht.calls"] == 0
        assert metrics["backend.noiselet.calls"] > 0 and metrics["cli.io_ms"] > 0
    else:
        assert metrics["backend.fwht.calls"] > 0
        assert metrics["backend.noiselet.calls"] == 0 and metrics["cli.io_ms"] == 0
    bypassed = ("solver.prox_l12.self_ms", "solver.diff.apply_ms", "solver.diff.adjoint_ms")
    for key in bypassed:
        assert (metrics[key] == 0) == (name == "texture-l1"), key
