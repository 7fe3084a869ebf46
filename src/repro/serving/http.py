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

Every request whose head arrives gets a status line and a JSON body, and is
counted in ``requests_handled``.  The status codes:

* 400: a malformed request line or header line (one without ``:``, or
  lines ended by a bare LF), a head that the client cut short by closing
  its side, a ``Content-Length`` that is not all digits or is given twice
  with different values, a body that ends before its ``Content-Length``,
  or an invalid parameter (:class:`~repro.exceptions.PBSError`, malformed
  JSON);
* 404: an unknown route or tenant;
* 408: a body not received within :data:`CONNECTION_TIMEOUT_S` of the
  connection being taken;
* 413: a body over :data:`MAX_BODY_BYTES`, answered before any of it is read;
* 414: a request line over :data:`MAX_HEAD_BYTES`;
* 431: a head (request line and header lines) over :data:`MAX_HEAD_BYTES`,
  or more than :data:`MAX_HEADER_LINES` header lines;
* 500: any other failure;
* 501: a method other than ``GET`` and ``POST``, or any
  ``Transfer-Encoding`` header (bodies are framed by ``Content-Length`` only).

A connection that closes before sending anything, or whose head is not in by
the deadline, is closed without a reply: there is no request to answer.

The handler reads and writes the socket itself.  It receives into one buffer
until the blank line that ends the head (lines end in CRLF), parses the head
with :func:`_parse_head`, takes the body by ``Content-Length`` from the same
buffer plus further receives, and sends each reply (status line,
``Content-Type``, ``Content-Length``, ``Date`` and body) with one
``sendall``.  Replies say ``HTTP/1.0``: one request per connection.

:class:`PredictorServer` serves on :data:`ACCEPT_THREADS` threads started
with :meth:`~PredictorServer.serve_forever`.  Each waits in ``accept()`` on
the listening socket and serves the connection it accepted, so no thread is
created per request; connections beyond the busy threads wait in the listen
backlog.  A client has :data:`CONNECTION_TIMEOUT_S` to send its whole
request, so no client holds a thread longer than that before its request is
handled.  The underlying service is thread-safe.
"""

from __future__ import annotations

import json
import math
import re
import socketserver
import sys
import threading
import time
import traceback
from email.utils import formatdate
from http import HTTPStatus
from urllib.parse import parse_qs, urlparse

from repro.core.quorum import ReplicaConfig
from repro.core.sla import SLATarget
from repro.exceptions import PBSError
from repro.serving.service import PredictorService

__all__ = ["make_server", "serve_forever"]

#: Largest request body the server reads, in bytes.  A request declaring a
#: longer body is answered 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20

#: Largest request head the server reads, in bytes: the request line and
#: header lines, without the blank line that ends them.  A longer request
#: line is answered 414, a longer head otherwise 431.
MAX_HEAD_BYTES = 1 << 16

#: Most header lines a request may carry; more are answered 431.
MAX_HEADER_LINES = 100

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

#: Bytes asked of each ``recv``.
_RECEIVE_BYTES = 1 << 16

#: Methods with routes; another well-formed method is answered 501.
_METHODS = ("GET", "POST")

#: An RFC 9110 token: a method or a header field name.
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: The protocol version of a request line this server reads.
_VERSION = re.compile(r"HTTP/1\.[0-9]")


class _BadRequest(Exception):
    """A request answered ``status`` instead of being routed: malformed, too
    large, too slow or unsupported."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Headers(dict):
    """Header fields keyed by lower-cased name; :meth:`get` ignores case."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


def _head_too_large(head: bytes) -> _BadRequest:
    """The error for a head over :data:`MAX_HEAD_BYTES`: 414 when its request
    line alone is that long, else 431."""
    if head.find(b"\r\n", 0, MAX_HEAD_BYTES + 2) < 0:
        return _BadRequest(414, f"request line over {MAX_HEAD_BYTES} bytes")
    return _BadRequest(431, f"request head over {MAX_HEAD_BYTES} bytes")


def _parse_head(head: bytes) -> tuple[str, str, _Headers]:
    """The method, target and header fields of a request head.

    ``head`` is everything before the blank line that ends the head: the
    request line, then one line per header field, separated by CRLF.  A
    field given more than once keeps its first value.  Raises
    :class:`_BadRequest` with status 400, 414, 431 or 501 for a head the
    server does not serve.
    """
    if len(head) > MAX_HEAD_BYTES:
        raise _head_too_large(head)
    request_line, *lines = head.decode("latin-1").split("\r\n")
    if len(lines) > MAX_HEADER_LINES:
        raise _BadRequest(431, f"more than {MAX_HEADER_LINES} header lines")
    parts = request_line.split(" ")
    if (
        len(parts) != 3
        or not _TOKEN.fullmatch(parts[0])
        or not parts[1]
        or not _VERSION.fullmatch(parts[2])
    ):
        raise _BadRequest(400, f"malformed request line {request_line[:80]!r}")
    method, target, _ = parts
    headers = _Headers()
    for line in lines:
        name, colon, value = line.partition(":")
        if not colon or not _TOKEN.fullmatch(name):
            raise _BadRequest(400, f"malformed header line {line[:80]!r}")
        key = name.lower()
        value = value.strip(" \t")
        first = headers.setdefault(key, value)
        if key == "content-length" and first != value:
            raise _BadRequest(400, "conflicting Content-Length values")
    if method not in _METHODS:
        raise _BadRequest(501, f"method {method[:80]!r} is not supported")
    if "transfer-encoding" in headers:
        raise _BadRequest(501, "Transfer-Encoding is not supported; send a Content-Length")
    length = headers.get("content-length")
    if length is not None and not (length.isascii() and length.isdigit()):
        raise _BadRequest(
            400, f"Content-Length must be a non-negative integer, got {length[:80]!r}"
        )
    return method, target, headers


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


class _Handler(socketserver.BaseRequestHandler):
    """One request on one connection; the service lives on the server object.

    After :meth:`handle` has read the head, :attr:`command`, :attr:`path`
    and :attr:`headers` hold its method, target and header fields.
    """

    server: "PredictorServer"
    timeout = CONNECTION_TIMEOUT_S

    def handle(self) -> None:
        self.command = self.path = "-"
        self._deadline = time.monotonic() + self.timeout
        try:
            head = self._receive_head()
            if head is None:
                return
            self.command, self.path, self.headers = _parse_head(head)
        except _BadRequest as error:
            self._reply(error.status, {"error": str(error)})
            return
        if self.command == "GET":
            self.do_GET()
        else:
            self.do_POST()

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------
    def _receive(self) -> bytes:
        """One ``recv``, waiting at most until the request's deadline.

        Raises :class:`TimeoutError` once the deadline has passed, so a
        client that sends a byte now and then is cut off like a silent one.
        """
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("request deadline passed")
        self.request.settimeout(remaining)
        return self.request.recv(_RECEIVE_BYTES)

    def _receive_head(self) -> bytes | None:
        """The head, up to the blank line that ends it; what arrived after
        that is kept for the body.  ``None`` when the client closed without
        sending anything or the deadline passed first."""
        received = bytearray()
        while True:
            try:
                chunk = self._receive()
            except TimeoutError:
                return None
            if not chunk:
                if received:
                    raise _BadRequest(400, "connection closed before the end of the request head")
                return None
            # Search the new bytes and the three before them, so a head
            # that trickles in is scanned once, not once per chunk.
            searched = max(0, len(received) - 3)
            received += chunk
            end = received.find(b"\r\n\r\n", searched)
            if end >= 0:
                self._body = received[end + 4 :]
                return bytes(received[:end])
            if received.find(b"\n\n", searched) >= 0:
                raise _BadRequest(400, "request head lines must end in CRLF")
            if len(received) >= MAX_HEAD_BYTES + 4:
                raise _head_too_large(received)

    def _read_body(self) -> bytearray:
        length = int(self.headers.get("Content-Length", "0"))
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        body = self._body
        while len(body) < length:
            try:
                chunk = self._receive()
            except TimeoutError as error:
                raise _BadRequest(
                    408, f"request body of {length} bytes not received within {self.timeout} s"
                ) from error
            if not chunk:
                raise _BadRequest(400, f"request body ended after {len(body)} of {length} bytes")
            body += chunk
        del body[length:]
        return body

    def _reply(self, status: int, payload: dict | bytes) -> None:
        """Send ``payload`` (a dict, or JSON already encoded) with one write."""
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        head = (
            f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Date: {formatdate(usegmt=True)}\r\n\r\n"
        )
        # The reply gets its own timeout, not what is left of the request's.
        self.request.settimeout(self.timeout)
        self.request.sendall(head.encode() + body)
        self.server.count_response()
        if self.server.verbose:
            sys.stderr.write(f"{self.client_address[0]} {self.command} {self.path} {status}\n")

    def _read_json(self) -> dict:
        raw = self._read_body()
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
        except _BadRequest as error:
            self._reply(error.status, {"error": str(error)})
        except KeyError as error:
            self._reply(404, {"error": str(error.args[0]) if error.args else "not found"})
        except (PBSError, ValueError) as error:
            self._reply(400, {"error": str(error)})
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
                self._reply(200, service.predict(name, config).json_body)
                return
            if method == "GET" and action == "recommend":
                kwargs = {
                    key: cast(query[key])
                    for key, cast in _TARGET_FIELDS.items()
                    if key in query
                }
                self._reply(200, service.recommend(name, SLATarget(**kwargs)).json_body)
                return
        raise KeyError(f"no route for {method} /{'/'.join(segments)}")

    def do_GET(self) -> None:  # noqa: N802 - the name perfbench/layers.py wraps
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - the name perfbench/layers.py wraps
        self._dispatch("POST")


class PredictorServer(socketserver.TCPServer):
    """A TCP server bound to one :class:`PredictorService`, answering HTTP.

    :meth:`serve_forever` starts :data:`ACCEPT_THREADS` daemon threads that
    each accept connections and serve them, and returns once :meth:`shutdown`
    (or :attr:`request_limit`) stopped and joined them.
    """

    allow_reuse_address = True
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
