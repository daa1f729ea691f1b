"""Run one benchmark workload and print its metrics.

From the root of a repro checkout::

    python3 hostbench/run.py --workload cold_assess --seed 1 --seconds 25 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` the metrics are the end-to-end ones, every timing
host-adjusted (see ``measure.py``); with ``--trace 1`` they are the
per-layer figures of a traced run.  A table with units and sample counts
goes to stdout, the full run record to ``hostbench/out/``, and the last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 only when every output check passed (and,
traced, when the layers cover at least ``MIN_COVERAGE`` of op time).

This process never imports ``repro``: the workload runs in a worker
process (``worker.py``), and this one times the worker's setup and probes
the host while the worker waits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cold_assess", "warm_session", "serve_http")

#: Run-record layout version; bump when a field changes meaning.
SCHEMA_VERSION = 1

#: Setups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Share of op wall time the traced layers must account for: time no layer
#: accounts for is a bug, and a traced run below this fails.
MIN_COVERAGE = 0.95

#: A run must end within 180 s; the worker is killed past this.
RUN_DEADLINE_S = 170.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("trace.coverage", "trace.overhead",
                "api.substrates.sims_per_new_config"):
        return "ratio"
    return "count"


PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (name, _unit(name)) for name in (
        ["import.repro_s"]
        + [metric for metric, _span, _what in spans.LAYER_METRICS]
        + list(spans.DERIVED_METRICS)
        + ["serve.rejected", "host.probe_ms", "trace.overhead"]))


class Worker:
    """One worker process, timed from launch until it reports ``READY``."""

    def __init__(self, root: Path, args: argparse.Namespace, workload: str,
                 deadline: float):
        command = [sys.executable, str(HERE / "worker.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        before = measure.probe_reading()
        start = time.perf_counter()
        # A session of its own, so a deadline kill also takes the server a
        # serve_http worker starts.
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.timer = threading.Timer(max(1.0, deadline - time.perf_counter()),
                                     self.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_raw_s = time.perf_counter() - start
        after = measure.probe_reading()
        self.ready = line.strip() == "READY"
        self.setup_probe_ms = measure.bracket_probe_ms(before, after)
        self.setup_s = measure.adjust(self.setup_raw_s, self.setup_probe_ms)

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self, command: str) -> Optional[Dict[str, Any]]:
        """Send ``GO`` (run and return the record) or ``STOP`` (end)."""
        try:
            if self.ready:
                self.proc.stdin.write(command + "\n")
                self.proc.stdin.flush()
            out, _ = self.proc.communicate()
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.kill()
                self.proc.wait()
        if not self.ready or self.proc.returncode != 0:
            return None
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if command == "GO" and lines else {}


def run_workload(root: Path, args: argparse.Namespace, workload: str
                 ) -> Tuple[Optional[Dict[str, Any]], Dict[str, float]]:
    """One workload's run: its record and its metrics (``None`` on failure)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    main = Worker(root, args, workload, deadline)
    record = main.finish("GO")
    if record is None:
        return None, {}
    setups = [main]
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            extra = Worker(root, args, workload, deadline)
            if extra.finish("STOP") is None:
                return None, {}
            setups.append(extra)
    record["setup"] = {
        "raw_s": [w.setup_raw_s for w in setups],
        "probe_ms": [w.setup_probe_ms for w in setups],
        "adjusted_s": [w.setup_s for w in setups],
    }
    untraced = record["untraced"]
    if args.trace:
        traced = record["traced"]
        import_s = record["import_s"]
        if import_s is None:
            import_s = traced["import_s"]
        metrics = dict(traced["layers"])
        metrics["import.repro_s"] = import_s
        metrics["host.probe_ms"] = traced["probe_ms"]["median"]
        metrics["trace.overhead"] = (traced["adjusted"]["op_p50_ms"]
                                     / untraced["adjusted"]["op_p50_ms"])
        metrics.setdefault("serve.rejected", 0.0)
        metrics = {name: metrics[name] for name, _unit in PER_LAYER}
    else:
        metrics = dict(untraced["adjusted"])
        metrics["setup_s"] = statistics.median(record["setup"]["adjusted_s"])
        metrics["peak_rss_mb"] = untraced["peak_rss_mb"]
        metrics = {name: metrics[name] for name, _unit in END_TO_END}
    return record, metrics


def _phases(record: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [record[key] for key in ("untraced", "traced") if key in record]


def _table(workload: str, record: Dict[str, Any], metrics: Dict[str, float],
           units: Dict[str, str]) -> str:
    phase = record.get("traced", record["untraced"])
    lines = [f"{workload}: {phase['samples']} timed ops, tail at "
             f"p{phase['tail_pct']:.1f}, {len(record['setup']['adjusted_s'])} "
             f"setup sample(s), host probe median "
             f"{phase['probe_ms']['median']:.3f} ms"]
    for name, value in metrics.items():
        lines.append(f"  {name:<40} {value:>14.4f} {units[name]}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not ((root / "src" / "repro" / "__init__.py").is_file()
            and (root / checks.GOLDEN_FIXTURE).is_file()):
        print("error: run from the root of a repro checkout (src/repro and "
              f"{checks.GOLDEN_FIXTURE} are required)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    units = dict(PER_LAYER if args.trace else END_TO_END)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    attempted = failed = 0
    covered = True
    combined: Dict[str, Dict[str, Any]] = {}
    cpus = os.sched_getaffinity(0)
    for workload in names:
        # An in-process workload runs on one CPU, with this process and its
        # readings on the same one; the server needs every CPU.
        os.sched_setaffinity(0, cpus)
        if workload != "serve_http":
            measure.pin_to_one_cpu()
        record, metrics = run_workload(root, args, workload)
        if record is None:
            print(f"error: {workload} did not complete", file=sys.stderr)
            return 1
        attempted += sum(p["attempted"] for p in _phases(record))
        failed += sum(p["failed"] for p in _phases(record))
        record.update(schema_version=SCHEMA_VERSION, workload=workload,
                      seconds=args.seconds, trace=args.trace, metrics=metrics)
        (out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(record, indent=1), encoding="utf-8")
        print(_table(workload, record, metrics, units), flush=True)
        for error in [e for p in _phases(record) for e in p["errors"]][:5]:
            print(f"  check failed: {error}", flush=True)
        if args.trace and metrics["trace.coverage"] < MIN_COVERAGE:
            covered = False
            print(f"  check failed: trace.coverage "
                  f"{metrics['trace.coverage']:.4f} < {MIN_COVERAGE}", flush=True)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in metrics.items():
            combined[prefix + name] = {"value": value, "unit": units[name]}
    correct = failed == 0 and covered
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
