"""Stdlib JSON/HTTP front end for :class:`~repro.serving.service.PredictorService`.

Routes (all JSON)::

    GET  /healthz                          liveness probe
    GET  /stats                            service counters
    GET  /tenants                          registered tenant names
    POST /tenants/<name>                   register a tenant  {"fit": "LNKD-SSD"}
    POST /tenants/<name>/observations      ingest             {"leg": "W", "values": [...]}
    POST /tenants/<name>/refit             refit from reservoirs
    GET  /tenants/<name>/predict?n=3&r=1&w=2
    GET  /tenants/<name>/recommend?read_latency_ms=10&t_visibility_ms=20

Errors map onto status codes: unknown routes and tenants are 404, invalid
parameters (:class:`~repro.exceptions.PBSError`, malformed JSON, a negative
``Content-Length``) are 400, a body not received within
:data:`CONNECTION_TIMEOUT_S` of the connection being taken is 408, a body
over :data:`MAX_BODY_BYTES` is 413, and any other failure is a 500, so every
request gets a JSON reply.

:class:`PredictorServer` serves on :data:`ACCEPT_THREADS` threads started
with :meth:`~PredictorServer.serve_forever`.  Each waits in ``accept()`` on
the listening socket and serves the connection it accepted (one request per
connection), so no thread is created per request; connections beyond the
busy threads wait in the listen backlog.  A client has
:data:`CONNECTION_TIMEOUT_S` to send its whole request, so no client holds a
thread longer than that before its request is handled.  The underlying
service is thread-safe.
"""

from __future__ import annotations

import io
import json
import math
import socket
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.quorum import ReplicaConfig
from repro.core.sla import SLATarget
from repro.exceptions import PBSError
from repro.serving.service import PredictorService

__all__ = ["make_server", "serve_forever"]

#: Largest request body the server reads, in bytes.  A request declaring a
#: longer body is answered 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20

#: Threads that accept and serve connections.  Measured on a 2-vCPU host:
#: under the ``serve-http`` benchmark (one client, one request in flight)
#: the server's peak RSS read 94-103 MiB with two threads, 115-124 MiB with
#: four and 144-146 MiB with eight (each long-lived thread appears to keep
#: its own malloc arena); with four concurrent clients, two threads answered
#: faster at p50 and p99 than a thread per connection.  A short request can
#: still wait behind two long ones.
ACCEPT_THREADS = 2

#: Seconds a client has, from the moment a thread takes its connection, to
#: send the whole request (request line, headers and body), so an idle or
#: trickling client gives its accept thread back within this time.
CONNECTION_TIMEOUT_S = 5.0


class _BodyTooLarge(Exception):
    """The request declared a body longer than :data:`MAX_BODY_BYTES`."""


class _BodyTimedOut(Exception):
    """The request body was not in by the request's deadline."""


class _RequestReader(io.RawIOBase):
    """A connection's read side, with one deadline for the whole request.

    A socket timeout bounds each read, so a client that sends a byte now and
    then never trips it.  Here every read waits at most until the deadline
    and then raises :class:`TimeoutError`, as a socket timeout does, so the
    handler's timeout paths apply unchanged.
    """

    def __init__(self, connection: socket.socket, seconds: float) -> None:
        self._connection = connection
        self._deadline = time.monotonic() + seconds

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request deadline passed")
        self._connection.settimeout(remaining)
        return self._connection.recv_into(buffer)


def _reject_constant(constant: str) -> float:
    """``parse_constant`` hook: refuse ``NaN``/``Infinity``/``-Infinity``."""
    raise ValueError(f"non-finite JSON constant {constant!r} is not allowed")


def _validate_observations(values: list) -> None:
    """Reject observation payloads before they can touch a tenant reservoir.

    Every value must be a finite number (bools are JSON numbers to
    ``isinstance`` but never valid latencies).  Validating up front keeps a
    400 response side-effect free: either the whole batch is ingested or none
    of it is.
    """
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"observation values must be numbers, got {value!r}")
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"observation values must be finite, got {value!r}")


#: Query parameters accepted by /recommend, mapped onto SLATarget fields.
_TARGET_FIELDS = {
    "read_latency_ms": float,
    "write_latency_ms": float,
    "latency_percentile": float,
    "t_visibility_ms": float,
    "consistency_probability": float,
    "min_write_quorum": int,
    "min_replication": int,
}


class _Handler(BaseHTTPRequestHandler):
    """One request; the service lives on the server object."""

    server: "PredictorServer"
    timeout = CONNECTION_TIMEOUT_S

    def setup(self) -> None:
        super().setup()
        # Reads go through one deadline for the whole request rather than
        # a timeout per read.
        self.rfile.close()
        self.rfile = io.BufferedReader(_RequestReader(self.connection, self.timeout))

    # Silence the default stderr access log (the CLI reports the address once).
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------
    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        # The reply gets its own timeout, not what is left of the request's.
        self.connection.settimeout(self.timeout)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.count_response()

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        if length < 0:
            # rfile.read(-1) would block until the client closes the socket.
            raise ValueError(f"Content-Length must be non-negative, got {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        try:
            raw = self.rfile.read(length) if length else b"{}"
        except TimeoutError as error:
            raise _BodyTimedOut(
                f"request body of {length} bytes not received within {self.timeout} s"
            ) from error
        try:
            # json.loads accepts NaN/Infinity by default; a non-finite
            # observation would silently poison a tenant's reservoir, so the
            # parser itself rejects the constants.
            payload = json.loads(raw or b"{}", parse_constant=_reject_constant)
        except (json.JSONDecodeError, ValueError) as error:
            raise ValueError(f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        url = urlparse(self.path)
        segments = [s for s in url.path.split("/") if s]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            self._route(method, segments, query)
        except KeyError as error:
            self._reply(404, {"error": str(error.args[0]) if error.args else "not found"})
        except (PBSError, ValueError) as error:
            self._reply(400, {"error": str(error)})
        except _BodyTimedOut as error:
            self._reply(408, {"error": str(error)})
        except _BodyTooLarge as error:
            self._reply(413, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - the client still gets a status line
            traceback.print_exc()
            self._reply(500, {"error": f"internal error: {type(error).__name__}: {error}"})

    # ------------------------------------------------------------------
    # Routes.
    # ------------------------------------------------------------------
    def _route(self, method: str, segments: list[str], query: dict[str, str]) -> None:
        service = self.server.service
        if method == "GET" and segments == ["healthz"]:
            self._reply(200, {"status": "ok"})
            return
        if method == "GET" and segments == ["stats"]:
            self._reply(200, service.stats().to_dict())
            return
        if method == "GET" and segments == ["tenants"]:
            self._reply(200, {"tenants": list(service.tenants())})
            return
        if len(segments) == 2 and segments[0] == "tenants" and method == "POST":
            fit = self._read_json().get("fit", "LNKD-SSD")
            if not isinstance(fit, str):
                raise ValueError(f'"fit" must be a production-fit name, got {fit!r}')
            fingerprint = service.register_tenant(segments[1], fit)
            self._reply(200, {"tenant": segments[1], "fingerprint": fingerprint})
            return
        if len(segments) == 3 and segments[0] == "tenants":
            name, action = segments[1], segments[2]
            if method == "POST" and action == "observations":
                body = self._read_json()
                leg = body.get("leg")
                values = body.get("values")
                if not isinstance(leg, str) or not isinstance(values, list):
                    raise ValueError(
                        'observations require {"leg": "W|A|R|S", "values": [...]}'
                    )
                _validate_observations(values)
                count = service.ingest(name, leg, values)
                self._reply(200, {"tenant": name, "ingested": count})
                return
            if method == "POST" and action == "refit":
                fingerprint = service.refit(name)
                self._reply(200, {"tenant": name, "fingerprint": fingerprint})
                return
            if method == "GET" and action == "predict":
                config = ReplicaConfig(
                    n=int(query.get("n", 3)),
                    r=int(query.get("r", 1)),
                    w=int(query.get("w", 1)),
                )
                self._reply(200, service.predict(name, config).to_dict())
                return
            if method == "GET" and action == "recommend":
                kwargs = {
                    key: cast(query[key])
                    for key, cast in _TARGET_FIELDS.items()
                    if key in query
                }
                self._reply(200, service.recommend(name, SLATarget(**kwargs)).to_dict())
                return
        raise KeyError(f"no route for {method} /{'/'.join(segments)}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class PredictorServer(HTTPServer):
    """An HTTP server bound to one :class:`PredictorService`.

    :meth:`serve_forever` starts :data:`ACCEPT_THREADS` daemon threads that
    each accept connections and serve them, and returns once :meth:`shutdown`
    (or :attr:`request_limit`) stopped and joined them.
    """

    #: Listen backlog: a burst beyond the busy accept threads waits here.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        service: PredictorService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.requests_handled = 0
        #: Stop serving once this many responses were sent (``None``: never).
        self.request_limit: int | None = None
        #: The accept threads of the current (or last) :meth:`serve_forever`.
        self.accept_threads: tuple[threading.Thread, ...] = ()
        self._count_lock = threading.Lock()
        self._stop = threading.Event()
        self._stopped = threading.Event()

    def count_response(self) -> None:
        """Count one sent response; reaching :attr:`request_limit` stops serving."""
        with self._count_lock:
            self.requests_handled += 1
            if self._limit_reached():
                self._stop.set()

    def _limit_reached(self) -> bool:
        return self.request_limit is not None and self.requests_handled >= self.request_limit

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve on the accept threads until :meth:`shutdown` or the request limit.

        ``accept()`` gives up every ``poll_interval`` seconds, so an idle
        accept thread sees a stop request within that time; a busy one sees
        it after the request it holds.  The calling thread waits, so a
        signal (``KeyboardInterrupt``) lands here and still joins the accept
        threads on the way out.
        """
        self._stopped.clear()
        if self._limit_reached():
            self._stop.set()
        self.socket.settimeout(poll_interval)
        self.accept_threads = tuple(
            threading.Thread(target=self._accept_loop, name=f"pbs-http-{index}", daemon=True)
            for index in range(ACCEPT_THREADS)
        )
        try:
            for thread in self.accept_threads:
                thread.start()
            while not self._stop.wait(poll_interval):
                pass
        finally:
            self._stop.set()
            for thread in self.accept_threads:
                if thread.is_alive():
                    thread.join()
            self._stop.clear()
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until its accept threads exited.

        Call it from another thread than the one serving, as with
        :meth:`socketserver.BaseServer.shutdown`.
        """
        self._stop.set()
        self._stopped.wait()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                request, client_address = self.get_request()
            except TimeoutError:
                continue  # no connection within poll_interval
            except OSError:
                if self.socket.fileno() < 0:  # closed under a running loop
                    return
                continue
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - keep serving; socketserver reports it
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)


def make_server(
    service: PredictorService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> PredictorServer:
    """Bind a :class:`PredictorServer`; ``port=0`` picks a free port."""
    return PredictorServer((host, port), service, verbose=verbose)


def serve_forever(
    server: PredictorServer, request_limit: int | None = None
) -> int:
    """Serve until interrupted, or until ``request_limit`` responses were sent.

    Returns the number of responses handled, and closes the server.  The
    request limit exists for scripted runs (tests, docs, the CLI's
    ``--request-limit``): the response that reaches it stops both accept
    threads, but each still finishes the connection it holds or has just
    accepted, so the limit is a floor, not an exact cap.
    ``KeyboardInterrupt`` (a SIGTERM the caller turned into one, too) ends
    the run cleanly, once the accept threads have finished those
    connections: reading a request takes at most :data:`CONNECTION_TIMEOUT_S`,
    and so does writing its reply.
    """
    server.request_limit = request_limit
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.server_close()
    return server.requests_handled
