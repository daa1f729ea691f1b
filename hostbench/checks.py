"""Output checks: every op's answer is verified before it counts.

Each check returns a list of error strings (empty when the answer is
right), so a caller counts a failed op without stopping the run.  The
checks read plain result documents — what ``as_dict()`` returns in process
and what the server sends over HTTP — so the same rules serve every
workload.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

#: Relative tolerance of the arithmetic invariants and the golden fixture
#: (the golden regression suite pins to the same figure).
RTOL = 1e-9

#: The pinned spec whose answer is committed under ``tests/golden``.
GOLDEN_FIXTURE = "tests/golden/assessment_iris_scale005_seed7.json"
GOLDEN_SPEC = {"node_scale": 0.05, "campaign_seed": 7}


def _close(actual: Any, expected: float) -> bool:
    return (isinstance(actual, (int, float)) and not isinstance(actual, bool)
            and math.isclose(actual, expected, rel_tol=RTOL, abs_tol=1e-12))


def _match(actual: Any, expected: Any, path: str, errors: List[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or sorted(actual) != sorted(expected):
            errors.append(f"{path}: keys differ")
            return
        for key in expected:
            _match(actual[key], expected[key], f"{path}.{key}", errors)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            errors.append(f"{path}: length differs")
            return
        for index, (a, e) in enumerate(zip(actual, expected)):
            _match(a, e, f"{path}[{index}]", errors)
    elif isinstance(expected, float):
        if not _close(actual, expected):
            errors.append(f"{path}: {actual!r} != {expected!r}")
    elif actual != expected:
        errors.append(f"{path}: {actual!r} != {expected!r}")


def check_golden(payload: Mapping[str, Any],
                 golden: Mapping[str, Any]) -> List[str]:
    """The pinned spec's answer against the committed golden fixture."""
    errors: List[str] = []
    for key in ("spec", "summary", "table2", "breakdown_kg"):
        if key not in payload:
            errors.append(f"golden: answer lacks {key!r}")
            continue
        _match(payload[key], golden[key], f"golden.{key}", errors)
    return errors


def _echoes(spec: Mapping[str, Any], requested: Mapping[str, Any],
            errors: List[str]) -> None:
    for name, value in requested.items():
        if spec.get(name) != value:
            errors.append(f"spec.{name}: {spec.get(name)!r} != {value!r}")


def _total_is_sum(summary: Mapping[str, Any], errors: List[str]) -> None:
    try:
        total = summary["active_kg"] + summary["embodied_kg"]
    except (KeyError, TypeError):
        errors.append("summary lacks active_kg/embodied_kg")
        return
    if not _close(summary.get("total_kg"), total):
        errors.append(f"total_kg {summary.get('total_kg')!r} != active + "
                      f"embodied {total!r}")


def check_assessment(payload: Mapping[str, Any],
                     requested: Mapping[str, Any]) -> List[str]:
    """An assessment answer: the request echoed, total = active + embodied,
    and active = energy x intensity x PUE (the paper's eq. 1-2)."""
    errors: List[str] = []
    _echoes(payload.get("spec", {}), requested, errors)
    summary = payload.get("summary", {})
    _total_is_sum(summary, errors)
    try:
        active = (summary["energy_kwh"] * summary["intensity_g_per_kwh"]
                  / 1000.0 * summary["pue"])
    except (KeyError, TypeError):
        errors.append("summary lacks energy_kwh/intensity_g_per_kwh/pue")
        return errors
    if not (summary["energy_kwh"] > 0 and _close(summary["active_kg"], active)):
        errors.append(f"active_kg {summary['active_kg']!r} != energy x "
                      f"intensity x pue {active!r}")
    return errors


def check_temporal(payload: Mapping[str, Any],
                   requested: Mapping[str, Any]) -> List[str]:
    """A temporal answer: the request echoed, total = active + embodied,
    and a non-empty emission profile."""
    errors: List[str] = []
    _echoes(payload.get("spec", {}), requested, errors)
    summary = payload.get("summary", {})
    _total_is_sum(summary, errors)
    if not summary.get("intervals", 0) > 0:
        errors.append("temporal profile has no intervals")
    return errors


def check_ensemble(payload: Mapping[str, Any], n_samples: int) -> List[str]:
    """An ensemble answer: the sample count, ordered finite quantiles, and
    mean total = mean active + mean embodied."""
    errors: List[str] = []
    summary = payload.get("summary", {})
    if summary.get("samples") != n_samples:
        errors.append(f"ensemble samples {summary.get('samples')!r} != "
                      f"{n_samples}")
    quantiles = payload.get("quantiles", {}).get("total_kg", {})
    values = [quantiles[label] for label in sorted(quantiles)]
    if not values or not all(math.isfinite(v) for v in values):
        errors.append("ensemble total_kg quantiles missing or not finite")
    elif any(a > b for a, b in zip(values, values[1:])):
        errors.append("ensemble total_kg quantiles are not ordered")
    try:
        mean_total = summary["active_kg_mean"] + summary["embodied_kg_mean"]
        if not math.isclose(summary["total_kg_mean"], mean_total,
                            rel_tol=1e-9):
            errors.append("ensemble mean total != mean active + mean embodied")
    except (KeyError, TypeError):
        errors.append("ensemble summary lacks the mean columns")
    return errors


def check_sweep(rows: Sequence[Mapping[str, Any]], pue: Sequence[float],
                intensity: Sequence[float]) -> List[str]:
    """A sweep answer: one row per grid point, each self-consistent."""
    errors: List[str] = []
    expected = {(p, i) for p in pue for i in intensity}
    got = {(row.get("pue"), row.get("intensity_g_per_kwh")) for row in rows}
    if len(rows) != len(pue) * len(intensity) or got != expected:
        errors.append(f"sweep rows do not cover the {len(pue)}x"
                      f"{len(intensity)} grid")
    for row in rows:
        before = len(errors)
        _total_is_sum(row, errors)
        if len(errors) > before:
            break
    return errors


def load_golden(root) -> Dict[str, Any]:
    """The committed golden fixture, read from a checkout root."""
    return json.loads((Path(root) / GOLDEN_FIXTURE).read_text(encoding="utf-8"))


__all__ = [
    "GOLDEN_FIXTURE",
    "GOLDEN_SPEC",
    "RTOL",
    "check_assessment",
    "check_ensemble",
    "check_golden",
    "check_sweep",
    "check_temporal",
    "load_golden",
]
