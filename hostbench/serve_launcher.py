"""Run ``repro``'s normal CLI with the layer spans installed.

Usage, from the checkout root with ``src`` on ``PYTHONPATH``::

    python3 hostbench/serve_launcher.py --spans spans.json -- serve --port 0 ...

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  The spans are
kept in memory and written to ``--spans`` when the CLI returns (for
``serve``: after SIGTERM has drained the server), together with the time
the CLI's import took.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start

    recorder = spans.Recorder()
    installed = spans.install(recorder)
    try:
        return repro.cli.main(cli_args)
    finally:
        installed.restore()
        args.spans.write_text(json.dumps(
            {"import_s": import_s, "spans": recorder.dump()}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
