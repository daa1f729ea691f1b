"""The ``serve_http`` workload: two closed-loop clients against ``repro serve``.

The server is a real subprocess (``python -m repro serve --workers 2``, or
the same CLI under ``serve_launcher.py`` when traced) with its own run
catalog.  Two client threads drive it over HTTP in rounds (see
:class:`inputs.ServeRounds`): both open a round by sending one request of
the new-config pair at the same moment, then work through their own lists.
Between rounds — while the server is idle — the client checks ``/stats``
and probes the host.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import checks
import inputs
import measure
import spans

HERE = Path(__file__).resolve().parent

#: Worker threads of the server, clients and connections: one per core of
#: the 2-core reference host.
CLIENTS = 2

#: How long the server may take to print its banner.
START_TIMEOUT_S = 60.0

#: Per-request socket timeout.
REQUEST_TIMEOUT_S = 120.0

Answer = Tuple[int, Optional[str], bytes, float]


class ServeHttp:
    """The serve_http workload: server lifecycle, rounds and checks."""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.work = out_dir / f"work-{os.getpid()}"
        self.golden = checks.load_golden(root)
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS,
                                       thread_name_prefix="client")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.starts = 0
        self.spans_file: Optional[Path] = None

    # -- server lifecycle ------------------------------------------------------------

    def _start(self, traced: bool) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.starts += 1
        tag = f"{self.starts}"
        serve = ["serve", "--catalog", str(self.work / f"catalog-{tag}.sqlite"),
                 "--workers", str(CLIENTS), "--port", "0"]
        if traced:
            self.spans_file = self.work / f"spans-{tag}.json"
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--spans", str(self.spans_file), "--"] + serve
        else:
            self.spans_file = None
            command = [sys.executable, "-m", "repro"] + serve
        log_path = self.work / f"server-{tag}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(command, cwd=self.root, env=env,
                                         stdout=log, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            text = log_path.read_text(encoding="utf-8", errors="replace")
            if "Serving on http://" in text:
                address = text.split("Serving on http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self._stop()
                raise SystemExit(f"server did not start:\n{text[-2000:]}")
            time.sleep(0.02)

    def _stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        self._stop()
        self.pool.shutdown(wait=True)
        shutil.rmtree(self.work, ignore_errors=True)

    # -- one request -------------------------------------------------------------------

    def _send(self, method: str, path: str, doc: Any = None) -> Answer:
        body = json.dumps(doc).encode("utf-8") if doc is not None else None
        start = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request(method, path, body=body, headers={
                "Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
            status, source = response.status, response.getheader(
                "X-Repro-Source")
        except OSError as exc:
            status, source, data = 0, None, str(exc).encode("utf-8")
        finally:
            connection.close()
        return status, source, data, (time.perf_counter() - start) * 1000.0

    def _stats(self) -> Dict[str, Any]:
        status, _source, data, _ms = self._send("GET", "/stats")
        if status != 200:
            raise SystemExit(f"/stats answered {status}")
        return json.loads(data)

    def _check(self, request: inputs.Request, answer: Answer) -> List[str]:
        status, source, data, _ms = answer
        if status != 200:
            return [f"{request.path} answered {status}: {data[:200]!r}"]
        errors = []
        if source != request.expected_source:
            errors.append(f"{request.path} source {source!r}, expected "
                          f"{request.expected_source!r}")
        if request.cls == inputs.CATALOG_READ:
            if data != self.first_answer.get(request.key):
                errors.append(f"repeat of {request.path} is not byte-identical "
                              f"to the first answer")
            return errors
        payload = json.loads(data)
        if request.path == "/assess":
            errors += checks.check_assessment(payload, request.doc)
        elif request.path == "/temporal":
            errors += checks.check_temporal(payload, request.doc)
        else:
            errors += checks.check_ensemble(payload, request.doc["n_samples"])
        self.first_answer[request.key] = data
        return errors

    # -- rounds ------------------------------------------------------------------------

    def _phase(self, lists: List[List[inputs.Request]]
               ) -> Tuple[List[Tuple[inputs.Request, Answer]], float, float]:
        """Each client sends its list in order; both start at one moment.
        Returns the answers, the start time and the phase's wall time."""
        barrier = threading.Barrier(CLIENTS)

        def client(requests: List[inputs.Request]):
            barrier.wait(timeout=REQUEST_TIMEOUT_S)
            return [(request, self._send("POST", request.path, request.doc))
                    for request in requests]

        start = time.perf_counter()
        futures = [self.pool.submit(client, requests) for requests in lists]
        results = [item for future in futures for item in future.result()]
        return results, start, time.perf_counter() - start

    def _play(self, rnd: inputs.Round, runs_before: int, read=None):
        """Play a round's two phases — the new-config pair, then each
        client's own list — and check every answer, and that the pair
        simulated exactly once.

        ``read`` runs after each phase, while the server is idle (the host
        probe).  Returns ``[(checked answers, start, wall, read())]`` per
        phase and the server's simulation count.
        """
        played = []
        for lists in ([[request] for request in rnd.pair], rnd.clients):
            results, start, wall = self._phase(lists)
            played.append((results, start, wall, read() if read else None))
        runs = self._stats()["substrates"]["snapshot_runs"]
        phases = []
        for results, start, wall, reading in played:
            checked = [(request, answer, self._check(request, answer))
                       for request, answer in results]
            phases.append((checked, start, wall, reading))
        if runs - runs_before != 1:
            for _request, _answer, errors in phases[0][0]:
                errors.append(f"new-config pair ran {runs - runs_before} "
                              f"simulations, expected 1")
        return phases, runs

    def _serve_setup(self, traced: bool) -> None:
        """Start a server with a fresh catalog, check the golden answer,
        simulate the warm configuration and run the untimed first round."""
        self._start(traced)
        self.rounds = inputs.ServeRounds(self.seed)
        self.first_answer: Dict[str, bytes] = {}
        status, _source, data, _ms = self._send("POST", "/assess",
                                                checks.GOLDEN_SPEC)
        errors = ([f"golden request answered {status}"] if status != 200
                  else checks.check_golden(json.loads(data), self.golden))
        for request in self.rounds.setup_requests():
            errors += self._check(request, self._send("POST", request.path,
                                                      request.doc))
        phases, self.runs = self._play(
            self.rounds.next_round(),
            self._stats()["substrates"]["snapshot_runs"])
        errors += [e for checked, *_ in phases for *_, found in checked
                   for e in found]
        if errors:
            raise SystemExit(f"serve setup failed: {errors[:3]}")

    def setup(self) -> None:
        self._serve_setup(traced=False)

    def timed(self, seconds: float, traced: bool = False) -> Dict[str, Any]:
        """Rounds for ``seconds``; ``traced`` restarts the server traced."""
        if traced:
            self._stop()
            self._serve_setup(traced=True)
        log = measure.OpLog()
        rejected = rounds = 0
        first = last = 0.0
        deadline = time.perf_counter() + seconds
        before = measure.probe_reading()
        while time.perf_counter() < deadline:
            phases, self.runs = self._play(self.rounds.next_round(), self.runs,
                                           read=measure.probe_reading)
            rounds += 1
            for checked, start, wall, after in phases:
                first = first or start
                last = start + wall
                failures = 0
                for _request, answer, errors in checked:
                    rejected += answer[0] == 429
                    if errors:
                        failures += 1
                        log.note(errors)
                log.add_block([answer[3] for _r, answer, _e in checked],
                              [request.cls for request, _a, _e in checked],
                              failures, wall, before, after)
                before = after
            # The client's own garbage (parsed answers) is collected here,
            # between rounds, so no collection pauses a request in flight.
            gc.collect()
        summary = log.summary()
        summary["peak_rss_mb"] = self.peak_rss_mb()
        if traced:
            self._stop()
            summary["layers"], summary["import_s"] = self._server_layers(
                log, (first, last), rounds, rejected)
        return summary

    def _server_layers(self, log, window, rounds, rejected):
        """Per-op layer figures from the traced server's spans.

        Spans and client windows are both ``time.perf_counter`` readings;
        on Linux that is ``CLOCK_MONOTONIC``, shared by every process, so
        the server's span times are comparable with the client's rounds.
        """
        recorded = json.loads(self.spans_file.read_text(encoding="utf-8"))
        first, last = window
        submitted = {span["parent"] for span in recorded["spans"]
                     if span["name"] == "serve.submit"}
        kept = spans.select_ops(recorded["spans"], lambda root: (
            root["name"] == "serve.request" and root["id"] in submitted
            and first <= root["start"] <= last))
        n_ops = len(log.raw_ms)
        layers = spans.layer_metrics(kept, n_ops, sum(log.raw_ms) / 1000.0,
                                     new_configs=rounds)
        layers["serve.rejected"] = rejected / n_ops
        return layers, recorded["import_s"]

