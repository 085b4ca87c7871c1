"""Run the ``repro serve`` daemon with the layer wrappers installed.

Usage: ``python bench/daemon.py SPANS_FILE [repro serve flags...]``.  The
daemon serves exactly as ``python -m repro.serve`` does; when it has drained
after SIGTERM, every recorded span is written to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys

from spans import Recorder, Tracer


def main(argv: list[str]) -> int:
    from repro.serve.cli import serve_main

    spans_file, serve_flags = argv[0], argv[1:]
    recorder = Recorder()
    with Tracer(recorder):
        status = serve_main(serve_flags)
    recorder.dump(spans_file)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
