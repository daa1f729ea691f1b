"""The mixed-fleet calibration: pinned to the per-node oracle, and cheap.

:func:`utilization_for_fleet_power` replaced a bisection that evaluated
every node's power model at every step.  The calibrated target seeds each
site's job stream, so the replacement must reproduce the oracle's answer
exactly (``==``, not approx) — any drift would move every golden fixture.
The count gate keeps the per-node loop from coming back.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from oracles.calibration import (
    per_node_fleet_utilization,
    per_node_site_target_utilization,
)
from strategies import fleet_power_targets, mixed_fleets

from repro.inventory.catalog import default_catalog
from repro.power.calibration import FLEET_BISECTION_STEPS, utilization_for_fleet_power
from repro.power.node_power import NodePowerModel
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment

IRIS_SITES = ("QMUL", "CAM", "DUR", "STFC CLOUD", "STFC SCARF", "IMP")

#: A compute run and an empty storage run: the shape of a small IRIS site.
NO_STORAGE_FLEET = [(default_catalog().node("cpu-compute-standard"), 5),
                    (default_catalog().node("storage-server"), 0)]


def _fleet_args(runs):
    """(models, counts) for the fast path and the per-node spec list."""
    models = [NodePowerModel(spec) for spec, _ in runs]
    counts = [count for _, count in runs]
    specs = [spec for spec, count in runs for _ in range(count)]
    return models, counts, specs


class TestDifferentialPin:
    @pytest.mark.parametrize("scale", [0.02, 0.1, 1.0])
    def test_iris_sites_match_per_node_oracle(self, scale):
        config = build_iris_snapshot_config(node_scale=scale)
        experiment = SnapshotExperiment(config)
        assert tuple(site.site for site in config.sites) == IRIS_SITES
        for site in config.sites:
            _, specs = experiment._site_specs(site)
            assert (experiment._site_target_utilization(site, specs)
                    == per_node_site_target_utilization(site, specs)), site.site

    @given(runs=mixed_fleets(), target=fleet_power_targets)
    @example(runs=NO_STORAGE_FLEET, target=0.0)      # below every idle draw
    @example(runs=NO_STORAGE_FLEET, target=1000.0)   # above every maximum
    @settings(max_examples=60, deadline=None)
    def test_random_fleets_match_per_node_oracle(self, runs, target):
        models, counts, specs = _fleet_args(runs)
        utilization = utilization_for_fleet_power(models, counts, target)
        assert utilization == per_node_fleet_utilization(specs, target)
        assert 0.0 <= utilization <= 1.0

    def test_compute_model_equal_to_storage_model(self, compute_spec):
        split, _, _ = _fleet_args([(compute_spec, 4), (compute_spec, 3)])
        merged, _, specs = _fleet_args([(compute_spec, 7)])
        assert (utilization_for_fleet_power(split, [4, 3], 300.0)
                == utilization_for_fleet_power(merged, [7], 300.0)
                == per_node_fleet_utilization(specs, 300.0))

    def test_validation(self, compute_power_model):
        with pytest.raises(ValueError, match="same length"):
            utilization_for_fleet_power([compute_power_model], [1, 2], 300.0)
        with pytest.raises(ValueError, match="at least one node"):
            utilization_for_fleet_power([compute_power_model], [0], 300.0)
        with pytest.raises(ValueError, match="non-negative"):
            utilization_for_fleet_power([compute_power_model] * 2, [3, -1], 300.0)


class TestEvaluationCountGate:
    """Calibration cost is bounded by distinct specs, never by node count."""

    @staticmethod
    def _calls_per_site(monkeypatch, scale):
        calls = {"n": 0}
        original = NodePowerModel.wall_power_w

        def counting(self, utilization):
            calls["n"] += 1
            return original(self, utilization)

        monkeypatch.setattr(NodePowerModel, "wall_power_w", counting)
        config = build_iris_snapshot_config(node_scale=scale)
        experiment = SnapshotExperiment(config)
        per_site = {}
        for site in config.sites:
            _, specs = experiment._site_specs(site)
            calls["n"] = 0
            experiment._site_target_utilization(site, specs)
            distinct = len({spec.model for spec in specs})
            assert calls["n"] <= (FLEET_BISECTION_STEPS + 2) * distinct, site.site
            per_site[site.site] = calls["n"]
        return per_site

    def test_calls_bounded_and_scale_independent(self, monkeypatch):
        small = self._calls_per_site(monkeypatch, 0.1)
        full = self._calls_per_site(monkeypatch, 1.0)
        assert small == full
