"""The process that runs one workload: set up, wait for the go, measure.

Started by ``run.py`` from the checkout root, with ``src`` on the path::

    python3 hostbench/worker.py --workload cold_assess --seed 1 --seconds 25 --trace 0

Protocol on stdout/stdin: after setup (import, golden check, warm-up, first
op) the worker prints ``READY`` and waits for one line on stdin.  ``GO``
starts the timed run, whose record is printed as the last stdout line;
anything else ends the process (``run.py`` uses this to time setup alone).
The parent times setup and probes the host while the worker waits, so the
probe never overlaps program work.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("cold_assess", "warm_session", "serve_http")


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the in-process workloads ---------------------------------------------------------


class InProcess:
    """A workload whose ops call the library in this process.

    Every op is timed between two host readings.  The host switches
    between speed states every second or so, sometimes for a fraction of a
    second; a reading only tracks the ops right next to it.
    """

    name = ""
    new_configs_per_op = 0

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, item: Any) -> Any:
        raise NotImplementedError

    def check(self, item: Any, output: Any) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _first_op(self) -> None:
        """The first op: run and checked, never timed."""
        item = next(self.items)
        errors = self.check(item, self.execute(item))
        if errors:
            raise SystemExit(f"first op failed: {errors[:3]}")

    def _golden(self) -> None:
        from repro.api import Assessment, SubstrateCache, default_spec

        result = Assessment.from_spec(default_spec(**checks.GOLDEN_SPEC),
                                      substrates=SubstrateCache()).run()
        errors = checks.check_golden(result.as_dict(),
                                     checks.load_golden(self.root))
        if errors:
            raise SystemExit(f"golden check failed: {errors[:3]}")

    def timed(self, seconds: float, traced: bool = False) -> Dict[str, Any]:
        """Closed loop for ``seconds``: blocks of ops between host probes.

        With ``traced`` the layer spans are installed for the loop and the
        summary gains the per-op layer figures.
        """
        recorder = spans.Recorder() if traced else None
        installed = spans.install(recorder) if traced else None
        try:
            summary = self._loop(seconds, recorder)
        finally:
            if installed is not None:
                installed.restore()
        summary["peak_rss_mb"] = peak_rss_mb()
        return summary

    def _loop(self, seconds: float,
              recorder: Optional[spans.Recorder]) -> Dict[str, Any]:
        log = measure.OpLog()
        items = self.items
        op_spans: List[spans.Span] = []
        deadline = time.perf_counter() + seconds
        before = measure.probe_reading()
        while time.perf_counter() < deadline:
            item = next(items)
            mark = len(recorder.spans) if recorder is not None else 0
            start = time.perf_counter()
            try:
                output = self.execute(item)
            except Exception as exc:  # noqa: BLE001 - a failed op counts
                output, errors = None, [f"{type(exc).__name__}: {exc}"]
            else:
                errors = None
            raw_ms = (time.perf_counter() - start) * 1000.0
            after = measure.probe_reading()
            if recorder is not None:
                op_spans.extend(recorder.spans[mark:])
            if errors is None:
                errors = self.check(item, output)
            if errors:
                log.note(errors)
            log.add_block([raw_ms], [self.name], int(bool(errors)),
                          raw_ms / 1000.0, before, after)
            before = after
        summary = log.summary()
        if recorder is not None:
            dumped = spans.as_dicts(op_spans)
            summary["layers"] = spans.layer_metrics(
                dumped, len(log.raw_ms), sum(log.raw_ms) / 1000.0,
                new_configs=self.new_configs_per_op * len(log.raw_ms))
            summary["shares"] = spans.layer_shares(dumped)
        return summary


class ColdAssess(InProcess):
    """One caller; each op a whole cold pipeline on a fresh cache."""

    name = "cold_assess"
    new_configs_per_op = 1

    def setup(self) -> None:
        self._golden()
        self.items = inputs.cold_assess_specs(self.seed)
        self._first_op()

    def execute(self, doc):
        from repro.api import Assessment, SubstrateCache, default_spec

        cache = SubstrateCache()
        return Assessment.from_spec(default_spec(**doc),
                                    substrates=cache).run(), cache

    def check(self, doc, output) -> List[str]:
        result, cache = output
        errors = checks.check_assessment(result.as_dict(), doc)
        if cache.snapshot_runs != 1:
            errors.append(f"expected one simulation, ran {cache.snapshot_runs}")
        return errors

    def scale_check(self) -> Dict[str, Any]:
        """One traced op at full scale, to compare layer shares with 0.1."""
        recorder = spans.Recorder()
        installed = spans.install(recorder)
        try:
            doc = dict(next(self.items), node_scale=1.0)
            start = time.perf_counter()
            output = self.execute(doc)
            op_s = time.perf_counter() - start
        finally:
            installed.restore()
        return {"op_s": op_s, "errors": self.check(doc, output),
                "shares": spans.layer_shares(recorder.dump())}


class WarmSession(InProcess):
    """One caller; each op a fixed analyst session over a warm cache."""

    name = "warm_session"

    def setup(self) -> None:
        from repro.api import Assessment, SubstrateCache, default_spec

        self._golden()
        self.cache = SubstrateCache()
        self.physical = inputs.warm_session_config(self.seed)
        Assessment.from_spec(default_spec(**self.physical),
                             substrates=self.cache).run()
        self.runs_after_setup = self.cache.snapshot_runs
        self.items = inputs.warm_sessions(self.seed)
        self._first_op()

    def execute(self, session):
        from repro.api import (Assessment, BatchAssessmentRunner,
                               TemporalAssessment, default_spec)
        from repro.uncertainty import EnsembleRunner

        cache = self.cache
        assessed = Assessment.from_spec(default_spec(**session["assess"]),
                                        substrates=cache).run()
        swept = BatchAssessmentRunner(default_spec(**self.physical),
                                      substrates=cache).sweep(
            pue=session["sweep"]["pue"],
            intensity=session["sweep"]["intensity"])
        temporal = TemporalAssessment.from_spec(
            default_spec(**session["temporal"]), substrates=cache).run()
        ensemble = session["ensemble"]
        ensembled = EnsembleRunner(default_spec(**ensemble["spec"]),
                                   substrates=cache).run(
            n_samples=ensemble["n_samples"], seed=ensemble["seed"])
        return assessed, swept, temporal, ensembled

    def check(self, session, output) -> List[str]:
        assessed, swept, temporal, ensembled = output
        errors = checks.check_assessment(assessed.as_dict(), session["assess"])
        errors += checks.check_sweep(swept.as_rows(), session["sweep"]["pue"],
                                     session["sweep"]["intensity"])
        errors += checks.check_temporal(
            {"spec": temporal.spec.to_dict(), "summary": temporal.summary()},
            session["temporal"])
        errors += checks.check_ensemble(ensembled.as_dict(),
                                        session["ensemble"]["n_samples"])
        if self.cache.snapshot_runs != self.runs_after_setup:
            errors.append("a warm session ran a simulation")
        return errors


# -- the run ------------------------------------------------------------------------


def provenance(root: Path, seed: int) -> Dict[str, Any]:
    """Where and on what a record was measured (the capture manifest)."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():  # a plain source tree records no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()

    import_s = None
    if args.workload == "serve_http":
        import httpload

        workload = httpload.ServeHttp(root, args.seed, HERE / "out")
    else:
        start = time.perf_counter()
        import repro.api  # noqa: F401
        import repro.uncertainty  # noqa: F401
        import_s = time.perf_counter() - start
        workload = {"cold_assess": ColdAssess,
                    "warm_session": WarmSession}[args.workload](root, args.seed)
    try:
        workload.setup()
        # Move the long-lived heap built so far (imports, the warm cache,
        # the benchmark's own modules) out of the cyclic collector's reach,
        # as long-running services do after warm-up.  Otherwise a full
        # collection traversing it (~20 ms) lands in ~1% of warm_session
        # ops: a minority class right at that workload's p99 tail.
        gc.collect()
        gc.freeze()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "GO":
            return 0
        record: Dict[str, Any] = {"import_s": import_s}
        if args.trace:
            # Half the window untraced, half traced: their ratio is the
            # tracing overhead.
            record["untraced"] = workload.timed(args.seconds / 2.0)
            record["traced"] = workload.timed(args.seconds / 2.0, traced=True)
            if args.workload == "cold_assess":
                record["scale_check"] = workload.scale_check()
        else:
            record["untraced"] = workload.timed(args.seconds)
    finally:
        workload.close()
    record["provenance"] = provenance(root, args.seed)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
