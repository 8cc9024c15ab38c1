"""Start the query server with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launch_server.py SPANS_PATH [serve flags...]``

Installs :func:`tracing.install` in this process, hands the remaining
arguments to ``repro.serving.cli.main`` (so the server is the stock CLI, in
its own process) and writes the recorded spans to ``SPANS_PATH`` once the
server has shut down.  ``src/`` must be importable (``PYTHONPATH``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Recorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    from repro.serving import cli

    recorder = Recorder()
    install(recorder, serving=True)
    try:
        return cli.main(serve_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
