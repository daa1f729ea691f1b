"""Steadiness report: run every workload on several seeds, compare spreads.

From the root of a repro checkout::

    python3 hostbench/steadiness.py --runs 10 --seconds 25

Each run is ``run.py --trace 0`` with its own seed; runs of different
workloads alternate, so a slow spell of the host hits all of them alike.
For every end-to-end metric the report gives the median over runs and the
interquartile distance as a share of the median (``measure.relative_iqr``,
the spread the acceptance rule uses), both for the host-adjusted values the
benchmark reports and for the raw values of the same runs.  The report is
printed and written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402

TIMINGS = ("op_p50_ms", "op_tail_ms", "ops_per_s")


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    """One benchmark run; returns its run record."""
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if result.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{result.stdout[-2000:]}\n{result.stderr[-2000:]}")
    path = HERE / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def series(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, List[float]]]:
    """Per metric, the adjusted (reported) and raw values across runs."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for name in TIMINGS:
        out[name] = {
            "adjusted": [r["untraced"]["adjusted"][name] for r in records],
            "raw": [r["untraced"]["raw"][name] for r in records]}
    out["setup_s"] = {
        "adjusted": [r["metrics"]["setup_s"] for r in records],
        "raw": [statistics.median(r["setup"]["raw_s"]) for r in records]}
    rss = [r["metrics"]["peak_rss_mb"] for r in records]
    out["peak_rss_mb"] = {"adjusted": rss, "raw": rss}
    return out


def report(records: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    workloads = {}
    for workload, runs in records.items():
        metrics = {}
        for name, values in series(runs).items():
            metrics[name] = {
                kind: {"median": statistics.median(v),
                       "relative_iqr": measure.relative_iqr(v),
                       "values": v}
                for kind, v in values.items()}
            metrics[name]["adjusted_steadier"] = (
                metrics[name]["adjusted"]["relative_iqr"]
                < metrics[name]["raw"]["relative_iqr"])
        workloads[workload] = {
            "runs": len(runs),
            "seeds": [r["provenance"]["seed"] for r in runs],
            "samples": [r["untraced"]["samples"] for r in runs],
            "failed": sum(r["untraced"]["failed"] for r in runs),
            "class_margins_ok": all(r["untraced"]["class_margins"]["ok"]
                                    for r in runs),
            "probe_ms_median": [r["untraced"]["probe_ms"]["median"]
                                for r in runs],
            "metrics": metrics,
        }
    first = next(iter(records.values()))[0]["provenance"]
    return {"schema_version": run.SCHEMA_VERSION,
            "provenance": {key: first[key] for key in
                           ("commit", "src_sha256", "python", "numpy", "nproc")},
            "workloads": workloads}


def render(doc: Dict[str, Any]) -> str:
    lines = [f"{'workload':<14}{'metric':<14}{'median':>12}"
             f"{'IQR/med adj':>13}{'IQR/med raw':>13}  adj steadier"]
    for workload, entry in doc["workloads"].items():
        for name, kinds in entry["metrics"].items():
            steadier = ("-" if name == "peak_rss_mb"
                        else "yes" if kinds["adjusted_steadier"] else "no")
            lines.append(
                f"{workload:<14}{name:<14}{kinds['adjusted']['median']:>12.4f}"
                f"{kinds['adjusted']['relative_iqr']:>13.4f}"
                f"{kinds['raw']['relative_iqr']:>13.4f}  {steadier}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS),
                        choices=run.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path,
                        default=HERE / "results" / "steadiness.json")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 to give quartiles")
    records: Dict[str, List[Dict[str, Any]]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workloads:
            records[workload].append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed} done", flush=True)
    doc = report(records)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(render(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
