"""The per-node mixed-fleet calibration bisection.

This is the loop :meth:`SnapshotExperiment._site_target_utilization` ran
before the inversion moved to
:func:`repro.power.calibration.utilization_for_fleet_power`: it builds one
power model per node and, at each of the 60 bisection steps, evaluates
every node's wall power and takes the mean of that list.  Its cost grows
with the fleet; its answers are what the fast path must reproduce exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.inventory.node import NodeSpec
from repro.power.node_power import NodePowerModel
from repro.snapshot.config import SiteSnapshotConfig


def per_node_fleet_utilization(specs: Sequence[NodeSpec], target: float) -> float:
    """Invert the mean wall power of one model per node in ``specs``."""
    models = [NodePowerModel(spec) for spec in specs]

    def mean_power(utilization: float) -> float:
        return float(np.mean([m.wall_power_w(utilization) for m in models]))

    low_power = mean_power(0.0)
    high_power = mean_power(1.0)
    if target <= low_power:
        return 0.0
    if target >= high_power:
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        if mean_power(mid) < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def per_node_site_target_utilization(
    site: SiteSnapshotConfig, specs: Sequence[NodeSpec]
) -> float:
    """A site's calibrated load, evaluating every node at every step."""
    if site.target_node_power_w is None:
        return site.default_utilization
    target = site.target_node_power_w * site.calibration_margin
    return per_node_fleet_utilization(specs, target)
