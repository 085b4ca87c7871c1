"""``repro serve`` / ``repro submit``: the daemon and its submission CLI.

``repro serve --host --port --workers --queue-depth`` runs a resident
:class:`~repro.serve.server.ReproServer` in the foreground until SIGTERM or
SIGINT, then drains gracefully (in-flight and queued requests complete, new
ones are rejected with ``shutting_down``, the session's executor pools are
released).

``repro submit workload.toml --host --port`` submits a declarative workload
file to a live daemon and prints the canonical JSON report — byte-identical
to ``repro run workload.toml`` executed locally.  ``--status`` queries the
daemon's per-client accounting instead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Sequence

from . import protocol as P
from .client import ServeClient, ServeError
from .server import DEFAULT_QUEUE_DEPTH, ReproServer

__all__ = ["serve_main", "submit_main", "DEFAULT_PORT"]

#: Default daemon port (an unassigned user port; override with --port).
DEFAULT_PORT = 8765


def _add_endpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host", default="127.0.0.1", help="daemon address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"daemon port (default: {DEFAULT_PORT})",
    )


# --------------------------------------------------------------------------- #
# repro serve
# --------------------------------------------------------------------------- #
def serve_main(argv: "Sequence[str] | None" = None) -> int:
    """Run the resident filter-as-a-service daemon in the foreground."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Long-running filter-as-a-service daemon: one resident Session "
            "(warm engines, cached datasets/indexes) serving concurrent "
            "workload submissions with bounded-queue backpressure"
        ),
    )
    _add_endpoint_flags(parser)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker threads executing queued workloads (default: 1)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
        help=(
            "bounded request-queue capacity; further submissions are "
            f"rejected with queue_full (default: {DEFAULT_QUEUE_DEPTH})"
        ),
    )
    parser.add_argument(
        "--max-request-bytes", type=int, default=P.DEFAULT_MAX_REQUEST_BYTES,
        help="per-request frame ceiling (default: %(default)s)",
    )
    parser.add_argument(
        "--kernel-tier",
        choices=["auto", "numpy", "native"],
        default=None,
        help=(
            "daemon-wide kernel tier applied to workloads that left "
            "execution.kernel_tier at 'auto' (default: no override)"
        ),
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help=(
            "write a JSON {host, port, pid} file once listening "
            "(lets supervisors and tests discover a --port 0 binding)"
        ),
    )
    parser.add_argument(
        "--planner-sample-pairs", type=int, default=None, metavar="N",
        help=(
            "daemon-wide planner probe size for filter='auto' workloads "
            "without their own [filter.planner] section (default: no override)"
        ),
    )
    parser.add_argument(
        "--planner-budget", type=float, default=None, metavar="FRACTION",
        help=(
            "daemon-wide planner false-accept budget in [0, 1] for "
            "filter='auto' workloads without their own [filter.planner] "
            "section (default: no override)"
        ),
    )
    parser.add_argument(
        "--planner-max-stages", type=int, default=None, metavar="N",
        help=(
            "daemon-wide cap (1-3) on planned cascade length for "
            "filter='auto' workloads without their own [filter.planner] "
            "section (default: no override)"
        ),
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.queue_depth < 1:
        parser.error("--queue-depth must be at least 1")
    if args.max_request_bytes < 1:
        parser.error("--max-request-bytes must be at least 1")
    planner_defaults: "dict[str, Any] | None" = None
    planner_flags = {
        "sample_pairs": args.planner_sample_pairs,
        "false_accept_budget": args.planner_budget,
        "max_stages": args.planner_max_stages,
    }
    if any(value is not None for value in planner_flags.values()):
        planner_defaults = {
            key: value for key, value in planner_flags.items() if value is not None
        }

    try:
        server = ReproServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            max_request_bytes=args.max_request_bytes,
            kernel_tier=args.kernel_tier,
            planner_defaults=planner_defaults,
        )
    except ValueError as exc:  # bad port or planner defaults, validated at construction
        parser.error(str(exc))
    try:
        server.start()
    except OSError as exc:
        parser.error(f"cannot listen on {args.host}:{args.port}: {exc}")

    def _on_signal(signum: int, _frame: Any) -> None:
        print(
            f"repro serve: received {signal.Signals(signum).name}, draining...",
            file=sys.stderr,
            flush=True,
        )
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    print(
        f"repro serve: listening on {server.host}:{server.port} "
        f"(workers={server.workers}, queue_depth={server.queue_depth}, "
        f"schema_version={P.PROTOCOL_VERSION})",
        flush=True,
    )
    if args.ready_file:
        try:
            Path(args.ready_file).write_text(
                json.dumps(
                    {"host": server.host, "port": server.port, "pid": os.getpid()}
                )
                + "\n"
            )
        except OSError as exc:
            server.stop(drain=False)
            parser.error(f"--ready-file: {exc}")

    # Event.wait in a loop: signals interrupt the main thread between waits,
    # so a SIGTERM is never stuck behind a long uninterruptible block.
    while not server.wait_for_shutdown(timeout=0.5):
        pass
    server.stop(drain=True)
    print("repro serve: drained and stopped", file=sys.stderr, flush=True)
    return 0


# --------------------------------------------------------------------------- #
# repro submit
# --------------------------------------------------------------------------- #
def submit_main(argv: "Sequence[str] | None" = None) -> int:
    """Submit a workload file to a live daemon (or query its status)."""
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit a declarative TOML/JSON workload to a live `repro serve` "
            "daemon; prints the canonical JSON report, byte-identical to "
            "local `repro run`"
        ),
    )
    parser.add_argument(
        "workload", nargs="?", default=None,
        help="path to a .toml or .json workload file",
    )
    _add_endpoint_flags(parser)
    parser.add_argument(
        "--client", default=None, metavar="ID",
        help="client label for the daemon's per-client accounting",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="socket timeout in seconds (default: 120)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help=(
            "total submission attempts when the daemon answers queue_full "
            "(default: 1 — surface backpressure immediately)"
        ),
    )
    parser.add_argument(
        "--status", action="store_true",
        help="print the daemon's accounting payload instead of submitting",
    )
    parser.add_argument(
        "--ping", action="store_true",
        help="liveness-check the daemon instead of submitting",
    )
    args = parser.parse_args(argv)
    if args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.retries < 1:
        parser.error("--retries must be at least 1")
    if not args.status and not args.ping and args.workload is None:
        parser.error("a workload file is required (or pass --status / --ping)")

    client = ServeClient(
        host=args.host, port=args.port, client_id=args.client, timeout_s=args.timeout
    )
    try:
        if args.ping:
            client.ping()
            print(f"repro submit: {args.host}:{args.port} is alive")
            return 0
        if args.status:
            sys.stdout.write(
                json.dumps(client.status(), indent=2, sort_keys=True) + "\n"
            )
            return 0
        result, _rejections = client.run_with_retry(
            args.workload, attempts=args.retries
        )
        sys.stdout.write(P.canonical_result_json(result))
        return 0
    except ServeError as exc:
        print(f"repro submit: {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except ValueError as exc:  # local workload-file validation
        parser.error(str(exc))
