"""Protocol robustness of the ``repro serve`` daemon.

Every malformed input — broken JSON, unknown fields, oversized payloads,
truncated frames, unsupported schema versions — must come back as a *typed*
error envelope naming the problem, mirroring the field-naming ValueErrors of
:meth:`repro.api.Workload.from_dict`.  Graceful shutdown must drain in-flight
requests, reject new ones, and leave ``live_segments == 0`` on the process
executor via :meth:`Session.close`.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import _schema as K
from repro.api import Session, Workload
from repro.serve import ReproServer, ServeClient, ServeError
from repro.serve import protocol as P

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

WORKLOAD = {
    "input": {"kind": "dataset", "dataset": "Set 1", "n_pairs": 200, "seed": 3},
    "filter": {"filter": "shd", "error_threshold": 5},
    "execution": {"mode": "memory", "verify": False},
}


def raw_exchange(port: int, payload: bytes, timeout: float = 10.0) -> dict:
    """Send raw bytes, read the (newline-framed JSON) response envelope."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.settimeout(timeout)
        conn.sendall(payload)
        frame = P.read_frame(conn, max_bytes=1 << 24)
    assert frame is not None, "server closed the connection without responding"
    return json.loads(frame.decode("utf-8"))


def request_bytes(**fields) -> bytes:
    """Encode an arbitrary (possibly invalid) request envelope."""
    return json.dumps(fields, sort_keys=True).encode("utf-8") + b"\n"


def assert_error(envelope: dict, code: str, *needles: str) -> None:
    """The envelope is a typed failure naming ``code`` and every needle."""
    assert envelope[K.SCHEMA_VERSION_KEY] == P.PROTOCOL_VERSION
    assert envelope[K.OK] is False
    error = envelope[K.ERROR]
    assert error[K.ERROR_CODE] == code
    assert error[K.ERROR_CODE] in P.ERROR_CODES
    for needle in needles:
        assert needle in error[K.ERROR_MESSAGE], (
            f"error message {error[K.ERROR_MESSAGE]!r} does not name {needle!r}"
        )


@pytest.fixture(scope="module")
def server():
    with ReproServer(port=0, workers=1, queue_depth=4) as live:
        yield live


class TestTypedErrorEnvelopes:
    """One typed, named error per malformed request — never a dropped socket."""

    def test_malformed_json_is_bad_json(self, server):
        envelope = raw_exchange(server.port, b"{not json at all\n")
        assert_error(envelope, P.ERR_BAD_JSON)

    def test_non_object_request_is_bad_request(self, server):
        envelope = raw_exchange(server.port, b"[1, 2, 3]\n")
        assert_error(envelope, P.ERR_BAD_REQUEST, "request:", "list")

    def test_unknown_fields_are_named(self, server):
        envelope = raw_exchange(
            server.port,
            request_bytes(
                schema_version=P.PROTOCOL_VERSION, op="ping", shard=3, prio="hi"
            ),
        )
        assert_error(envelope, P.ERR_BAD_REQUEST, "unknown field", "shard", "prio")

    def test_missing_schema_version_is_unsupported(self, server):
        envelope = raw_exchange(server.port, request_bytes(op="ping"))
        assert_error(
            envelope,
            P.ERR_UNSUPPORTED_SCHEMA_VERSION,
            "request.schema_version",
            str(P.PROTOCOL_VERSION),
        )

    def test_wrong_schema_version_is_unsupported(self, server):
        envelope = raw_exchange(
            server.port, request_bytes(schema_version=99, op="ping")
        )
        assert_error(
            envelope, P.ERR_UNSUPPORTED_SCHEMA_VERSION, "request.schema_version", "99"
        )

    def test_unknown_op_is_named(self, server):
        envelope = raw_exchange(
            server.port, request_bytes(schema_version=P.PROTOCOL_VERSION, op="fly")
        )
        assert_error(envelope, P.ERR_BAD_REQUEST, "request.op", "fly")

    def test_run_without_workload_is_named(self, server):
        envelope = raw_exchange(
            server.port, request_bytes(schema_version=P.PROTOCOL_VERSION, op="run")
        )
        assert_error(envelope, P.ERR_BAD_REQUEST, "request.workload")

    def test_workload_on_ping_is_named(self, server):
        envelope = raw_exchange(
            server.port,
            request_bytes(
                schema_version=P.PROTOCOL_VERSION, op="ping", workload=WORKLOAD
            ),
        )
        assert_error(envelope, P.ERR_BAD_REQUEST, "request.workload", "ping")

    def test_non_string_client_is_named(self, server):
        envelope = raw_exchange(
            server.port,
            request_bytes(schema_version=P.PROTOCOL_VERSION, op="ping", client=7),
        )
        assert_error(envelope, P.ERR_BAD_REQUEST, "request.client")

    def test_bad_workload_mirrors_field_naming_errors(self, server):
        bad = {
            "input": {"kind": "volcano"},
            "filter": {"filter": "shd"},
        }
        envelope = raw_exchange(
            server.port,
            request_bytes(
                schema_version=P.PROTOCOL_VERSION, op="run", workload=bad
            ),
        )
        assert_error(envelope, P.ERR_BAD_WORKLOAD, "input.kind", "volcano")

    def test_truncated_frame_is_typed(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as conn:
            conn.sendall(b'{"schema_version": 1, "op": "pi')  # no newline
            conn.shutdown(socket.SHUT_WR)
            conn.settimeout(10)
            frame = P.read_frame(conn, max_bytes=1 << 24)
        assert frame is not None
        assert_error(json.loads(frame), P.ERR_TRUNCATED_FRAME, "mid-frame")

    def test_silent_close_leaves_server_healthy(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10):
            pass  # connect and leave without sending a byte
        assert ServeClient(port=server.port, timeout_s=10).ping()


class TestPayloadCeiling:
    def test_oversized_payload_is_typed(self):
        with ReproServer(port=0, workers=1, max_request_bytes=512) as small:
            big = request_bytes(
                schema_version=P.PROTOCOL_VERSION,
                op="ping",
                client="x" * 2048,
            )
            envelope = raw_exchange(small.port, big)
            assert_error(envelope, P.ERR_PAYLOAD_TOO_LARGE, "512")

    def test_under_ceiling_still_works(self):
        with ReproServer(port=0, workers=1, max_request_bytes=512) as small:
            assert ServeClient(port=small.port, timeout_s=10).ping()


class TestConstruction:
    @pytest.mark.parametrize("port", [70000, -1])
    def test_out_of_range_port_is_named(self, port):
        with pytest.raises(ValueError, match="port"):
            ReproServer(port=port)

    def test_serve_main_reports_bad_port_as_usage_error(self, capsys):
        from repro.serve.cli import serve_main

        with pytest.raises(SystemExit):
            serve_main(["--port", "70000"])
        assert "port must be in 0..65535" in capsys.readouterr().err


class TestSuccessEnvelopes:
    def test_ping_shape(self, server):
        envelope = raw_exchange(
            server.port, request_bytes(schema_version=P.PROTOCOL_VERSION, op="ping")
        )
        assert envelope == {
            K.SCHEMA_VERSION_KEY: P.PROTOCOL_VERSION,
            K.OK: True,
            K.OP: "ping",
        }

    def test_status_shape(self, server):
        status = ServeClient(port=server.port, timeout_s=10).status()
        assert status[K.SCHEMA_VERSION_KEY] == P.PROTOCOL_VERSION
        assert status[K.WORKERS] == 1
        assert status[K.QUEUE_DEPTH] == 4
        assert status[K.DRAINING] is False
        assert status[K.UPTIME_S] >= 0
        for field in (K.REQUESTS, K.COMPLETED, K.REJECTED, K.FAILED,
                      K.PAIRS_FILTERED, K.RUN_TIME_S):
            assert field in status[K.TOTALS]

    def test_run_response_is_stamped_and_canonical(self, server):
        client = ServeClient(port=server.port, timeout_s=60)
        result = client.run(WORKLOAD)
        assert result[K.SCHEMA_VERSION_KEY] == P.PROTOCOL_VERSION
        expected = Session().run(Workload.from_dict(WORKLOAD)).to_json()
        assert P.canonical_result_json(result) == expected

    def test_unreachable_daemon_is_typed_client_side(self):
        client = ServeClient(port=1, timeout_s=2)  # nothing listens on port 1
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == P.ERR_CONNECTION_CLOSED


class _GatedSession(Session):
    """A session whose runs block until released — deterministic in-flight."""

    def __init__(self) -> None:
        super().__init__()
        self.release = threading.Event()
        self.entered = threading.Event()

    def run(self, workload):
        self.entered.set()
        assert self.release.wait(timeout=30), "gated run was never released"
        return super().run(workload)


class TestGracefulDrain:
    """Shutdown completes in-flight work, rejects new work, closes the session."""

    def test_drain_completes_in_flight_and_rejects_new(self):
        session = _GatedSession()
        server = ReproServer(port=0, workers=1, queue_depth=4, session=session)
        server.start()
        client = ServeClient(port=server.port, client_id="drain", timeout_s=60)
        expected = Session().run(Workload.from_dict(WORKLOAD)).to_json()

        outcome: dict = {}

        def submit():
            outcome["json"] = client.run_json(WORKLOAD)

        in_flight = threading.Thread(target=submit)
        in_flight.start()
        assert session.entered.wait(timeout=10), "run never reached the session"

        server.request_shutdown()
        with pytest.raises(ServeError) as excinfo:
            client.run(WORKLOAD)
        assert excinfo.value.code == P.ERR_SHUTTING_DOWN

        # status and ping keep answering while draining
        status = client.status()
        assert status[K.DRAINING] is True
        assert client.ping()

        session.release.set()
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        in_flight.join(timeout=30)
        stopper.join(timeout=30)
        assert not in_flight.is_alive() and not stopper.is_alive()
        assert outcome["json"] == expected

    def test_stop_closes_executor_pools(self):
        parallel = dict(WORKLOAD)
        parallel["execution"] = {
            "mode": "memory", "verify": False,
            "executor": "processes", "workers": 2,
        }
        server = ReproServer(port=0, workers=1).start()
        try:
            client = ServeClient(port=server.port, timeout_s=120)
            client.run(parallel)
            executor = server.session.executor_for(Workload.from_dict(parallel))
            assert executor is not None and not executor.closed
        finally:
            server.stop()
        assert executor.closed
        assert executor.live_segments == 0

    def test_stop_is_idempotent(self):
        server = ReproServer(port=0).start()
        server.stop()
        server.stop()

    def test_idle_stop_is_prompt_and_ends_the_accept_thread(self):
        server = ReproServer(port=0).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 1.0
        assert not server._accept_thread.is_alive()


class TestSigtermEndToEnd:
    """A real ``repro serve`` process: SIGTERM drains, answers, exits 0."""

    def test_sigterm_drains_in_flight_request(self, tmp_path):
        slow = {
            "input": {"kind": "dataset", "dataset": "Set 1",
                      "n_pairs": 20000, "seed": 3},
            "filter": {"filter": "sneakysnake", "error_threshold": 5},
            "execution": {"mode": "memory", "verify": False},
        }
        expected = Session().run(Workload.from_dict(slow)).to_json()

        ready_file = tmp_path / "ready.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--port", "0", "--ready-file", str(ready_file)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready_file.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.communicate()[1]
                time.sleep(0.05)
            ready = json.loads(ready_file.read_text())
            assert ready["pid"] == proc.pid
            client = ServeClient(port=ready["port"], client_id="e2e", timeout_s=120)
            assert client.ping()

            outcome: dict = {}

            def submit():
                outcome["json"] = client.run_json(slow)

            thread = threading.Thread(target=submit)
            thread.start()
            # wait until the daemon reports the run in flight (or queued)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = client.status()
                if status[K.IN_FLIGHT] + status[K.QUEUED] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("run never became visible in the daemon status")

            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=120)
            assert not thread.is_alive(), "client hung through the drain"
            stdout, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0, stderr
            assert "draining" in stderr
            assert "drained and stopped" in stderr
            assert outcome["json"] == expected
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
