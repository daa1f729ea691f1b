"""Calibrating utilisation against an observed average node power.

The snapshot reproduction needs to drive each simulated site at whatever
load level makes its average per-node wall power match the per-node power
implied by the paper's Table 2 (energy / nodes / 24 h).  Because the node
power model is strictly monotonic in utilisation, that inverse is a simple
bisection.  :func:`utilization_for_target_power` inverts one node model;
:func:`utilization_for_fleet_power` inverts a mixed fleet's mean power and
is what the snapshot orchestration calibrates every site with, so the
assumption (power observed => load inferred) is a single, testable piece
of code.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.power.node_power import NodePowerModel

#: Bisection steps of the fleet inversion.  The calibrated target seeds the
#: job stream, so this count (and the loop below) is part of every pinned
#: result: changing it moves the golden fixtures.
FLEET_BISECTION_STEPS = 60


def utilization_for_target_power(
    model: NodePowerModel,
    target_wall_power_w: float,
    tolerance_w: float = 0.01,
    max_iterations: int = 100,
) -> float:
    """The utilisation at which ``model`` draws ``target_wall_power_w``.

    Returns 0.0 when the target is at or below idle power and 1.0 when it is
    at or above the maximum — the caller is expected to check
    :attr:`~repro.power.node_power.NodePowerModel.idle_wall_power_w` /
    :attr:`~repro.power.node_power.NodePowerModel.max_wall_power_w` if it
    needs to know whether clamping occurred.
    """
    if target_wall_power_w < 0:
        raise ValueError("target_wall_power_w must be non-negative")
    if tolerance_w <= 0:
        raise ValueError("tolerance_w must be positive")
    idle = model.idle_wall_power_w
    maximum = model.max_wall_power_w
    if target_wall_power_w <= idle:
        return 0.0
    if target_wall_power_w >= maximum:
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        power = float(model.wall_power_w(mid))
        if abs(power - target_wall_power_w) <= tolerance_w:
            return mid
        if power < target_wall_power_w:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def utilization_for_fleet_power(
    models: Sequence[NodePowerModel],
    counts: Sequence[int],
    target_wall_power_w: float,
) -> float:
    """The utilisation at which a mixed fleet's mean wall power hits a target.

    The fleet is ``counts[i]`` nodes of ``models[i]``, in that order (the
    snapshot passes its compute run, then its storage run).  Each bisection
    step evaluates every distinct model once and expands the results with
    :func:`numpy.repeat`, so the array :func:`numpy.mean` reduces is,
    element for element, the per-node array — the targets are bit-identical
    to evaluating every node, at a cost independent of the fleet size.

    Returns 0.0 when the target is at or below the fleet's idle mean and 1.0
    when it is at or above its maximum; otherwise the midpoint after
    :data:`FLEET_BISECTION_STEPS` halvings.
    """
    if len(models) != len(counts):
        raise ValueError("models and counts must have the same length")
    repeats = np.asarray(counts, dtype=np.intp)
    if np.any(repeats < 0) or int(repeats.sum()) == 0:
        raise ValueError("counts must be non-negative with at least one node")

    def mean_power(utilization: float) -> float:
        per_model = np.array([model.wall_power_w(utilization) for model in models],
                             dtype=np.float64)
        return float(np.mean(np.repeat(per_model, repeats)))

    if target_wall_power_w <= mean_power(0.0):
        return 0.0
    if target_wall_power_w >= mean_power(1.0):
        return 1.0
    low, high = 0.0, 1.0
    for _ in range(FLEET_BISECTION_STEPS):
        mid = 0.5 * (low + high)
        if mean_power(mid) < target_wall_power_w:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def clamped_target_power(model: NodePowerModel, target_wall_power_w: float) -> float:
    """The power the model can actually reproduce for a requested target.

    Targets below idle clamp to idle and above maximum clamp to maximum;
    used by the snapshot report to quantify how much of any per-site energy
    discrepancy is attributable to clamping rather than measurement effects.
    """
    if target_wall_power_w < 0:
        raise ValueError("target_wall_power_w must be non-negative")
    return float(min(max(target_wall_power_w, model.idle_wall_power_w),
                     model.max_wall_power_w))


__all__ = [
    "FLEET_BISECTION_STEPS",
    "clamped_target_power",
    "utilization_for_fleet_power",
    "utilization_for_target_power",
]
