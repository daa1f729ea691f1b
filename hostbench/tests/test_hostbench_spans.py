"""Layer spans: self-time arithmetic, per-op figures, install and restore."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def _span(id_, name, start, end, parent=None, **attrs):
    return {"id": id_, "name": name, "parent": parent, "start": start,
            "end": end, "attrs": attrs}


def _op():
    """One cold op: a substrate miss that simulates one site."""
    return [
        _span(1, "api.assessment", 0.0, 1.0),
        _span(2, "api.substrates", 0.1, 0.9, 1, state="miss"),
        _span(3, "snapshot.run", 0.1, 0.9, 2),
        _span(4, "snapshot.run_site", 0.1, 0.9, 3),
        _span(5, "workload.generate", 0.2, 0.4, 4, jobs=70),
        _span(6, "workload.schedule", 0.4, 0.6, 4),
    ]


class TestSelfTime:
    def test_children_are_subtracted(self):
        selfs = spans.self_times(_op())
        assert selfs[1] == pytest.approx(0.2)
        assert selfs[4] == pytest.approx(0.4)
        assert selfs[5] == pytest.approx(0.2)

    def test_overlapping_children_count_once(self):
        selfs = spans.self_times([
            _span(1, "serve.request", 0.0, 1.0),
            _span(2, "serve.handle", 0.1, 0.6, 1),
            _span(3, "serve.handle", 0.4, 0.8, 1),
        ])
        assert selfs[1] == pytest.approx(0.3)

    def test_self_times_add_up_to_the_roots(self):
        op = _op()
        assert sum(spans.self_times(op).values()) == pytest.approx(1.0)


class TestLayerMetrics:
    def test_per_op_figures(self):
        metrics = spans.layer_metrics(_op(), n_ops=1, op_wall_s=1.25,
                                      new_configs=1)
        assert metrics["snapshot.run_site_ms"] == pytest.approx(800.0)
        assert metrics["snapshot.self_ms"] == pytest.approx(400.0)
        assert metrics["workload.jobs"] == 70
        assert metrics["api.substrates.runs"] == 1
        assert metrics["api.substrates.sims_per_new_config"] == 1.0
        assert metrics["trace.coverage"] == pytest.approx(0.8)
        assert metrics["catalog.writes"] == 0

    def test_outcomes_of_substrate_requests(self):
        found = spans.layer_metrics([
            _span(1, "api.substrates", 0.0, 0.1, state="hit"),
            _span(2, "api.substrates", 0.0, 0.5, state="coalesced"),
            _span(3, "api.substrates", 0.0, 0.1, state="miss"),
        ], n_ops=3, op_wall_s=0.7, new_configs=0)
        assert (found["api.substrates.hits"], found["api.substrates.runs"],
                found["api.substrates.coalesced_waits"],
                found["api.substrates.loads"]) == \
            pytest.approx((1 / 3, 0.0, 1 / 3, 1 / 3))
        assert found["api.substrates.sims_per_new_config"] == 0.0

    def test_queue_wait_is_handle_start_minus_submit_start(self):
        found = spans.layer_metrics([
            _span(1, "serve.request", 0.0, 1.0),
            _span(2, "serve.submit", 0.1, 0.9, 1),
            _span(3, "serve.handle", 0.35, 0.85, 2),
        ], n_ops=1, op_wall_s=1.0, new_configs=0)
        assert found["serve.queue_wait_ms"] == pytest.approx(250.0)

    def test_select_ops_keeps_whole_trees(self):
        tree = _op() + [_span(7, "serve.request", 2.0, 2.1)]
        kept = spans.select_ops(tree, lambda root: root["start"] < 1.0)
        assert sorted(s["id"] for s in kept) == [1, 2, 3, 4, 5, 6]


def test_install_traces_a_real_run_and_restore_puts_originals_back():
    from repro.api import Assessment, SubstrateCache, default_spec
    from repro.api.assessment import Assessment as AssessmentClass
    import repro.api.batch as batch

    original_run_live = AssessmentClass.__dict__["run_live"]
    original_compile = batch.compile_sweep
    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        assert batch.compile_sweep is not original_compile
        Assessment.from_spec(default_spec(node_scale=0.05, campaign_seed=3),
                             substrates=SubstrateCache()).run()
    finally:
        installed.restore()
    assert AssessmentClass.__dict__["run_live"] is original_run_live
    assert batch.compile_sweep is original_compile
    dumped = recorder.dump()
    names = {span["name"] for span in dumped}
    assert {"api.assessment", "api.substrates", "snapshot.run",
            "snapshot.run_site", "workload.generate", "workload.schedule",
            "power.model", "power.measure"} <= names
    root = next(s for s in dumped if s["parent"] is None)
    metrics = spans.layer_metrics(dumped, 1, root["end"] - root["start"], 1)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert metrics["api.substrates.runs"] == 1.0


def test_benchmark_json_declares_exactly_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
