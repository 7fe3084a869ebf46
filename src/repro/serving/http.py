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
``Content-Length``) are 400, a body over :data:`MAX_BODY_BYTES` is 413, and
any other failure is a 500, so every request gets a JSON reply.
The server is :class:`http.server.ThreadingHTTPServer`; the underlying
service is thread-safe, so concurrent requests are fine.
"""

from __future__ import annotations

import json
import math
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.quorum import ReplicaConfig
from repro.core.sla import SLATarget
from repro.exceptions import PBSError
from repro.serving.service import PredictorService

__all__ = ["make_server", "serve_forever"]

#: Largest request body the server reads, in bytes.  A request declaring a
#: longer body is answered 413 before any of it is read.
MAX_BODY_BYTES = 1 << 20


class _BodyTooLarge(Exception):
    """The request declared a body longer than :data:`MAX_BODY_BYTES`."""


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

    # Silence the default stderr access log (the CLI reports the address once).
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------
    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.server.requests_handled += 1

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        if length < 0:
            # rfile.read(-1) would block until the client closes the socket.
            raise ValueError(f"Content-Length must be non-negative, got {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b"{}"
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


class PredictorServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`PredictorService`."""

    daemon_threads = True

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

    Returns the number of responses handled.  The request limit exists for
    scripted runs (tests, docs, the CLI's ``--request-limit``): the loop
    checks the counter between requests, so the limit is a floor at which the
    server stops accepting, not an exact cap under concurrency.
    """
    try:
        if request_limit is None:
            server.serve_forever(poll_interval=0.05)
        else:
            # Responses are counted by handler threads, so poll between
            # accepts instead of blocking indefinitely on the next one.
            server.timeout = 0.1
            while server.requests_handled < request_limit:
                server.handle_request()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.server_close()
    return server.requests_handled
