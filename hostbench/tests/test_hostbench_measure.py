"""The benchmark's timing arithmetic: tail rule, class bands, probe scaling."""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402


class TestTailRule:
    @pytest.mark.parametrize("n", [11, 12, 40, 100, 333])
    def test_tail_leaves_exactly_ten_samples_beyond(self, n):
        values = [float(i) for i in range(n)]
        tail = measure.latency_summary(values)["tail"]
        assert sum(v > tail for v in values) == measure.TAIL_BEYOND

    def test_tail_is_the_highest_such_percentile(self):
        # One rank higher would leave only nine samples beyond.
        assert measure.tail_rank(100) == 89
        assert measure.tail_percentile(100) == pytest.approx(100 * 89 / 99)

    def test_too_few_samples_fall_back_to_the_largest(self):
        summary = measure.latency_summary([float(i) for i in range(10)])
        assert summary["samples"] == 10
        assert summary["tail"] == 9.0
        assert summary["tail_pct"] == 100.0

    def test_summary_reports_median_and_count(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0] * 5
        summary = measure.latency_summary(values)
        assert summary["p50"] == statistics.median(values)
        assert summary["samples"] == 25


class TestClassBands:
    def _mix(self):
        # 30% fast reads, 40% medium, 10% slow, 20% very slow.
        classes = ["read"] * 30 + ["live"] * 40 + ["temporal"] * 10 + \
            ["cold"] * 20
        latency = [2.0] * 30 + [5.0] * 40 + [60.0] * 10 + [500.0] * 20
        return classes, latency

    def test_bands_follow_median_cost_not_label_order(self):
        classes, latency = self._mix()
        order = list(reversed(range(len(classes))))
        bands = measure.class_bands([classes[i] for i in order],
                                    [latency[i] for i in order])
        assert [b["class"] for b in bands] == ["read", "live", "temporal",
                                               "cold"]
        assert [round(b["end"]) for b in bands] == [30, 70, 80, 100]

    def test_percentiles_clear_of_boundaries_pass(self):
        bands = measure.class_bands(*self._mix())
        verdict = measure.check_class_margins(bands, {"p50": 50.0, "tail": 95.0})
        assert verdict["ok"]
        assert verdict["margins"] == {"p50": pytest.approx(20.0),
                                      "tail": pytest.approx(15.0)}

    def test_percentile_near_a_boundary_fails(self):
        bands = measure.class_bands(*self._mix())
        verdict = measure.check_class_margins(bands, {"tail": 75.0})
        assert not verdict["ok"]
        assert verdict["margins"]["tail"] == pytest.approx(5.0)

    def test_one_class_has_no_boundary(self):
        bands = measure.class_bands(["a"] * 5, [1.0] * 5)
        assert measure.check_class_margins(bands, {"p50": 50.0})["ok"]


class TestProbeAdjustment:
    def test_reference_speed_leaves_time_unchanged(self):
        assert measure.adjust(123.0, measure.PROBE_REFERENCE_MS) == 123.0

    def test_a_slower_host_scales_down(self):
        assert measure.adjust(100.0, 2 * measure.PROBE_REFERENCE_MS) == 50.0

    def test_bracket_is_the_mean_of_both_probes(self):
        assert measure.bracket_probe_ms(6.0, 10.0) == 8.0

    def test_nonpositive_probe_is_rejected(self):
        with pytest.raises(ValueError):
            measure.adjust(1.0, 0.0)

    def _log(self, slowdown):
        log = measure.OpLog()
        ref = measure.PROBE_REFERENCE_MS
        # Two blocks: the host runs at reference speed, then 1.5x slower;
        # the program's work is the same in both.
        log.add_block([100 * slowdown, 200 * slowdown], ["op"] * 2, 0,
                      0.3 * slowdown, ref * slowdown, ref * slowdown)
        log.add_block([150 * slowdown, 300 * slowdown], ["op"] * 2, 0,
                      0.45 * slowdown, 1.5 * ref * slowdown,
                      1.5 * ref * slowdown)
        return log

    def test_blocks_are_scaled_by_their_own_probe(self):
        log = self._log(1.0)
        assert log.adjusted_ms == pytest.approx([100.0, 200.0, 100.0, 200.0])
        summary = log.summary()
        assert summary["raw"]["op_p50_ms"] == pytest.approx(175.0)
        assert summary["adjusted"]["op_p50_ms"] == pytest.approx(150.0)
        assert summary["adjusted"]["ops_per_s"] == pytest.approx(4 / 0.6)

    def test_uniform_host_slowdown_cancels(self):
        fast, slow = self._log(1.0).summary(), self._log(2.0).summary()
        for name in ("op_p50_ms", "op_tail_ms", "ops_per_s"):
            assert slow["adjusted"][name] == pytest.approx(
                fast["adjusted"][name])
        assert slow["raw"]["op_p50_ms"] == pytest.approx(
            2 * fast["raw"]["op_p50_ms"])

    def test_failures_do_not_count_as_completed(self):
        log = measure.OpLog()
        log.add_block([10.0] * 4, ["op"] * 4, 1, 0.04,
                      measure.PROBE_REFERENCE_MS, measure.PROBE_REFERENCE_MS)
        summary = log.summary()
        assert summary["attempted"] == 4 and summary["failed"] == 1
        assert summary["adjusted"]["ops_per_s"] == pytest.approx(3 / 0.04)

    def test_probe_kernel_times_a_positive_interval(self):
        assert measure.probe_kernel() > 0.0


def test_relative_iqr_uses_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert measure.relative_iqr(values) == pytest.approx((q3 - q1) / q2)
