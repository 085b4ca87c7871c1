"""Filter-as-a-service: the resident ``repro serve`` daemon and its client.

The package turns the resident :class:`~repro.api.Session` (warm engines,
cached encoded datasets, reference indexes) into a long-running network
service:

:mod:`repro.serve.protocol`
    The wire format: newline-framed JSON envelopes versioned with the
    :class:`~repro.api.Result` ``schema_version``, typed error payloads.
:mod:`repro.serve.server`
    :class:`ReproServer`: bounded request queue with explicit ``queue_full``
    backpressure, worker threads over one shared session, per-client
    accounting, graceful drain-on-SIGTERM shutdown.
:mod:`repro.serve.client`
    :class:`ServeClient` and the typed :class:`ServeError` hierarchy;
    ``run_json`` output is byte-identical to local ``repro run``.
:mod:`repro.serve.cli`
    The ``repro serve`` / ``repro submit`` commands.
"""

from .client import QueueFullError, ServeClient, ServeError, ShuttingDownError
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import DEFAULT_QUEUE_DEPTH, ReproServer

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_QUEUE_DEPTH",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "QueueFullError",
    "ShuttingDownError",
    "ProtocolError",
]
