"""Fast tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_stabnode()

import tracing  # noqa: E402
import workloads  # noqa: E402
from stabnode import spectral  # noqa: E402
from tracing import Span  # noqa: E402


def _spans(*rows):
    return [Span(name, start, end, parent) for name, start, end, parent in rows]


class TestSelfTime:
    def test_nested_spans(self):
        spans = _spans(("root", 0.0, 10.0, -1),
                       ("a", 1.0, 4.0, 0),
                       ("a.inner", 2.0, 3.0, 1),
                       ("b", 5.0, 9.0, 0),
                       ("b.inner", 5.5, 6.0, 3),
                       ("b.inner", 7.0, 8.5, 3))
        assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = _spans(("root", 0.0, 10.0, -1),
                       ("x", 2.0, 6.0, 0),
                       ("y", 4.0, 7.0, 0),
                       ("z", 9.0, 12.0, 0))
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_summary_and_ancestry(self):
        spans = _spans(("grad", 0.0, 4.0, -1),
                       ("fwd", 0.0, 1.0, 0),
                       ("fwd", 1.0, 2.0, 0),
                       ("bwd", 2.0, 3.5, 0),
                       ("fwd", 2.5, 2.7, 3),
                       ("fwd", 5.0, 6.0, -1))
        totals = tracing.summarize(spans)
        assert totals["fwd"].calls == 4
        assert totals["fwd"].self_s == pytest.approx(3.2)
        assert totals["grad"].self_s == pytest.approx(0.5)
        assert totals["bwd"].self_s == pytest.approx(1.3)
        assert tracing.calls_inside(spans, "fwd", "grad") == 3


class TestFlops:
    def test_formula(self):
        # layers 3->4->2 on 5 rows: matmuls of 5x3x4 and 5x4x2 multiply-adds
        assert tracing.mlp_forward_flops([3, 4, 2], 5) == 2 * (5 * 3 * 4 + 5 * 4 * 2)
        assert tracing.mlp_backward_flops([3, 4, 2], 5) == 2 * 2 * (5 * 3 * 4 + 5 * 4 * 2)

    def test_paper_network(self):
        sizes = [512, 200, 200, 200, 512]
        assert tracing.mlp_forward_flops(sizes, 256) == 2 * 256 * (2 * 512 * 200 + 2 * 200 * 200)


class TestInstall:
    def test_wraps_counts_and_restores(self):
        original = spectral.VbeSolver.advance
        tracer = tracing.Tracer()
        solver = spectral.VbeSolver(16)
        coeffs = spectral.to_spectral(spectral.generate_vbe_ic(spectral.IcSpec(), 16)).coeffs
        with tracing.installed(tracer):
            assert spectral.VbeSolver.advance is not original
            solver.advance(coeffs, 3)
        assert spectral.VbeSolver.advance is original
        [span] = tracer.spans
        assert span.name == "spectral.vbe_advance"
        assert span.counts == {"steps": 3}
        assert tracer.missing == []

    def test_absent_name_is_reported_not_fatal(self):
        tracer = tracing.Tracer()
        targets = (tracing.Target("spectral", "no_such_function", "x"),
                   tracing.Target("spectral", "NoSuchClass.advance", "y"),
                   tracing.Target("no_such_module", "f", "z"),
                   tracing.Target("spectral", "grid", "spectral.grid"))
        with tracing.installed(tracer, targets):
            spectral.grid(4, 1.0)
        assert tracer.missing == ["spectral.no_such_function", "spectral.NoSuchClass.advance",
                                  "no_such_module.f"]
        assert [s.name for s in tracer.spans] == ["spectral.grid"]
        metrics = tracing.layer_metrics(tracer, {})
        assert metrics["trace.missing_names"] == 3

    def test_every_target_exists(self):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            pass
        assert tracer.missing == []


class TestBenchmarkFile:
    def test_metric_lists_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
                == list(tracing.LAYER_METRICS))
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.SMOKE))
def test_smoke_run(name, tmp_path):
    """Reduced sizes through the real CLI: untraced then traced, no failed ops."""
    workload = workloads.SMOKE[name]
    out = run.measure(workload, seed=0, seconds=0, trace=True, run_dir=tmp_path / "run")
    result = out["result"]
    assert result["failed"] == 0, out["record"]["failed_checks"]
    assert result["correct"] and result["attempted"] > 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.missing_names"] == 0
    assert metrics[f"cli.{workload.model_stage}_s"] > 0
    if name == "vbe-train":
        assert metrics["neural_ode.forwards_per_gradient"] == 40
    if name == "kse-rom":
        assert metrics["rom.rows_ok_ratio"] == 1.0
    plain = run.measure(workload, seed=0, seconds=0, trace=False, run_dir=tmp_path / "plain")
    assert plain["result"]["failed"] == 0
    assert set(plain["result"]["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in plain["result"]["metrics"].values())
