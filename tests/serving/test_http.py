"""End-to-end tests for the JSON/HTTP front end and the serve CLI."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.serving import PredictorService, make_server
from repro.serving.http import ACCEPT_THREADS, MAX_BODY_BYTES, _Handler

#: Per-request client timeout: a server that never replies fails the test
#: instead of hanging the run.
_TIMEOUT_S = 10.0


@pytest.fixture
def server():
    service = PredictorService()
    service.register_tenant("acme", "LNKD-SSD")
    server = make_server(service, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


@pytest.fixture
def server_url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url: str, body: dict | None = None) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(body or {}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post_declaring_length(
    url: str, path: str, length: str, body: bytes | None = None
) -> tuple[int, dict]:
    """POST with a hand-set ``Content-Length`` and ``body`` (by default none),
    then await the reply."""
    address = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(address.hostname, address.port, timeout=_TIMEOUT_S)
    try:
        connection.putrequest("POST", path)
        connection.putheader("Content-Length", length)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestRoutes:
    def test_healthz(self, server_url):
        assert _get(f"{server_url}/healthz") == (200, {"status": "ok"})

    def test_tenant_listing_and_registration(self, server_url):
        status, body = _get(f"{server_url}/tenants")
        assert status == 200 and body == {"tenants": ["acme"]}
        status, body = _post(f"{server_url}/tenants/beta", {"fit": "YMMR"})
        assert status == 200 and body["tenant"] == "beta"
        assert len(body["fingerprint"]) == 64
        assert _get(f"{server_url}/tenants")[1] == {"tenants": ["acme", "beta"]}

    def test_predict_roundtrip(self, server_url):
        status, body = _get(f"{server_url}/tenants/acme/predict?n=3&r=1&w=2")
        assert status == 200
        assert body["config"] == {"n": 3, "r": 1, "w": 2}
        assert 0.0 <= body["consistency_at_commit"] <= 1.0
        assert "0.999" in body["t_visibility_ms"]

    def test_recommend_roundtrip(self, server_url):
        status, body = _get(
            f"{server_url}/tenants/acme/recommend"
            "?read_latency_ms=10&t_visibility_ms=20"
        )
        assert status == 200
        assert body["best"] is not None
        assert body["best"]["meets_target"] is True

    def test_ingest_and_refit(self, server_url):
        status, body = _post(
            f"{server_url}/tenants/acme/observations",
            {"leg": "W", "values": [1.0, 2.0, 3.0]},
        )
        assert status == 200 and body["ingested"] == 3
        before = _get(f"{server_url}/stats")[1]["tenants"][0]["fingerprint"]
        status, body = _post(f"{server_url}/tenants/acme/refit")
        assert status == 200 and body["fingerprint"] != before

    def test_stats_exposes_counters(self, server_url):
        _get(f"{server_url}/tenants/acme/predict?n=3&r=1&w=1")
        status, body = _get(f"{server_url}/stats")
        assert status == 200
        assert body["predictions_served"] == 1
        assert body["cache"]["capacity"] > 0


class TestErrorMapping:
    def test_unknown_tenant_is_404(self, server_url):
        status, body = _get(f"{server_url}/tenants/ghost/predict?n=3&r=1&w=1")
        assert status == 404 and "ghost" in body["error"]

    def test_unknown_route_is_404(self, server_url):
        assert _get(f"{server_url}/nothing")[0] == 404

    def test_invalid_config_is_400(self, server_url):
        status, body = _get(f"{server_url}/tenants/acme/predict?n=3&r=9&w=1")
        assert status == 400 and "error" in body

    def test_malformed_observations_are_400(self, server_url):
        status, _ = _post(f"{server_url}/tenants/acme/observations", {"leg": "W"})
        assert status == 400
        status, _ = _post(
            f"{server_url}/tenants/acme/observations",
            {"leg": "W", "values": [1.0, -5.0]},
        )
        assert status == 400

    def test_wan_registration_is_400(self, server_url):
        status, body = _post(f"{server_url}/tenants/wan", {"fit": "WAN"})
        assert status == 400 and "i.i.d." in body["error"]

    def test_non_string_fit_is_400(self, server_url):
        for fit in (5, ["LNKD-SSD"], {"name": "LNKD-SSD"}):
            status, body = _post(f"{server_url}/tenants/odd", {"fit": fit})
            assert status == 400 and "fit" in body["error"]
        assert _get(f"{server_url}/tenants")[1] == {"tenants": ["acme"]}

    def test_negative_content_length_is_400(self, server_url):
        # Reading a body of length -1 would wait for the client to hang up;
        # this client keeps the connection open until it has its reply.
        status, body = _post_declaring_length(server_url, "/tenants/beta", "-1")
        assert status == 400 and "Content-Length" in body["error"]

    def test_oversized_content_length_is_413_before_the_body(self, server_url):
        # No body follows the headers: the reply must not wait for one.
        length = str(MAX_BODY_BYTES + 1)
        status, body = _post_declaring_length(server_url, "/tenants/beta", length)
        assert status == 413 and "limit" in body["error"]

    def test_body_at_the_size_limit_is_read(self, server_url):
        payload = json.dumps({"leg": "W", "values": [1.0]}).encode()
        padded = payload.ljust(MAX_BODY_BYTES, b" ")
        status, body = _post_raw(f"{server_url}/tenants/acme/observations", padded)
        assert status == 200 and body["ingested"] == 1

    def test_non_integer_content_length_is_400(self, server_url):
        status, body = _post_declaring_length(server_url, "/tenants/beta", "ten")
        assert status == 400 and "error" in body

    def test_unexpected_error_is_500(self, server_url, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(PredictorService, "predict", fail)
        status, body = _get(f"{server_url}/tenants/acme/predict?n=3&r=1&w=1")
        assert status == 500 and "RuntimeError: boom" in body["error"]
        assert _get(f"{server_url}/healthz") == (200, {"status": "ok"})


def _connect(url: str) -> socket.socket:
    address = urllib.parse.urlsplit(url)
    return socket.create_connection((address.hostname, address.port), timeout=_TIMEOUT_S)


def _trickle(
    connection: socket.socket, data: bytes, interval: float, stop: threading.Event
) -> None:
    """Send ``data`` one byte per ``interval`` until it is all sent, ``stop``
    is set, or the server cuts the connection."""
    for byte in data:
        if stop.wait(interval):
            return
        try:
            connection.sendall(bytes([byte]))
        except OSError:
            return


class TestAcceptThreads:
    def test_requests_are_served_on_the_accept_threads(self, server, server_url, monkeypatch):
        serving = []
        handle = _Handler.do_GET

        def recording(handler):
            serving.append(threading.current_thread())
            handle(handler)

        monkeypatch.setattr(_Handler, "do_GET", recording)
        for _ in range(10):
            assert _get(f"{server_url}/healthz")[0] == 200
        assert len(server.accept_threads) == ACCEPT_THREADS
        assert set(serving) <= set(server.accept_threads)

    def test_request_counter_is_exact_under_concurrency(self, server, server_url):
        clients, requests_each = 8, 25  # more client threads than cores
        statuses: list[int] = []
        errors: list[Exception] = []

        def client() -> None:
            try:
                for _ in range(requests_each):
                    statuses.append(_get(f"{server_url}/healthz")[0])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert statuses == [200] * (clients * requests_each)
        # shutdown() joins the accept threads, so every count has landed.
        server.shutdown()
        assert server.requests_handled == len(statuses)

    def test_shutdown_stops_both_accept_threads(self):
        server = make_server(PredictorService(), port=0)
        serving = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        serving.start()
        assert _get(f"http://127.0.0.1:{server.server_address[1]}/healthz")[0] == 200
        accept_threads = server.accept_threads
        # The first thread may answer before serve_forever starts the second.
        deadline = time.monotonic() + 5.0
        while not all(thread.is_alive() for thread in accept_threads):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        server.shutdown()
        server.server_close()
        for thread in (*accept_threads, serving):
            thread.join(timeout=5.0)
            assert not thread.is_alive()


class TestRequestDeadline:
    """A client has the handler's timeout to send its whole request, so an
    idle, stalled or trickling client gives its accept thread back."""

    TIMEOUT_S = 0.5

    @pytest.fixture(autouse=True)
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", self.TIMEOUT_S)

    def test_silent_client_does_not_stop_another_being_answered(self, server_url):
        with _connect(server_url):
            started = time.monotonic()
            assert _get(f"{server_url}/healthz") == (200, {"status": "ok"})
            # The other accept thread answered; waiting out the silent
            # connection would have taken the whole timeout.
            assert time.monotonic() - started < self.TIMEOUT_S

    def test_silent_connection_is_closed_after_the_timeout(self, server_url):
        started = time.monotonic()
        with _connect(server_url) as silent:
            # No request line, so no status: the server just hangs up.
            assert silent.recv(1) == b""
        assert time.monotonic() - started >= 0.9 * self.TIMEOUT_S

    @pytest.mark.parametrize(
        "sends",
        [b"", b"GET /healthz HTTP/1.1\r\nX-Slow: " + b"a" * 1000],
        ids=["silent", "trickling"],
    )
    def test_client_beyond_slow_ones_on_every_thread_is_answered_in_time(
        self, server_url, sends
    ):
        stop = threading.Event()
        slow = [_connect(server_url) for _ in range(ACCEPT_THREADS)]
        senders = [
            threading.Thread(
                target=_trickle, args=(connection, sends, self.TIMEOUT_S / 5, stop), daemon=True
            )
            for connection in slow
        ]
        try:
            for sender in senders:
                sender.start()
            time.sleep(self.TIMEOUT_S / 5)  # every accept thread holds a slow client
            started = time.monotonic()
            assert _get(f"{server_url}/healthz") == (200, {"status": "ok"})
            waited = time.monotonic() - started
        finally:
            stop.set()
            for sender in senders:
                sender.join(timeout=5.0)
                assert not sender.is_alive()
            for connection in slow:
                connection.close()
        # It waited for a slow client's deadline, however often that client
        # sent a byte, and not much longer.
        assert 0.5 * self.TIMEOUT_S < waited < 2 * self.TIMEOUT_S

    def test_stalled_body_is_408(self, server_url):
        status, body = _post_declaring_length(
            server_url, "/tenants/acme/observations", "100", b'{"leg": "W"'
        )
        assert status == 408 and "not received" in body["error"]
        assert _get(f"{server_url}/stats")[1]["tenants"][0]["observed"] == {}

    def test_trickling_body_is_408_at_the_deadline(self, server_url):
        stop = threading.Event()
        with _connect(server_url) as client:
            client.sendall(
                b"POST /tenants/acme/observations HTTP/1.1\r\nContent-Length: 1000\r\n\r\n"
            )
            sender = threading.Thread(
                target=_trickle, args=(client, b" " * 1000, self.TIMEOUT_S / 5, stop), daemon=True
            )
            started = time.monotonic()
            sender.start()
            try:
                with client.makefile("rb") as reply:
                    status_line = reply.readline()
                waited = time.monotonic() - started
            finally:
                stop.set()
                sender.join(timeout=5.0)
        assert status_line.split()[1] == b"408"
        assert waited < 2 * self.TIMEOUT_S
        assert _get(f"{server_url}/stats")[1]["tenants"][0]["observed"] == {}


class TestServeCommand:
    def test_request_limit_run(self):
        import io
        import re
        import time
        from contextlib import redirect_stdout

        from repro.cli import main

        out = io.StringIO()

        def run() -> None:
            with redirect_stdout(out):
                main(
                    [
                        "serve",
                        "--port",
                        "0",
                        "--fit",
                        "LNKD-DISK",
                        "--request-limit",
                        "2",
                        "--no-spot-checks",
                    ]
                )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        match = None
        deadline = time.monotonic() + 10.0
        while match is None and time.monotonic() < deadline:
            match = re.search(r"http://[\d.]+:(\d+)", out.getvalue())
            time.sleep(0.02)
        assert match is not None, "serve never reported its address"
        base = f"http://127.0.0.1:{match.group(1)}"
        assert _get(f"{base}/healthz")[0] == 200
        assert _get(f"{base}/tenants")[1] == {"tenants": ["default"]}
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert "served 2 responses" in out.getvalue()

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8080
        assert args.fit == "LNKD-SSD" and args.request_limit is None


def _post_raw(url: str, data: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=data, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestInputHardening:
    """Hostile payloads must 400 without poisoning the tenant's reservoirs."""

    OBSERVATIONS = "/tenants/acme/observations"

    def _observed(self, server_url) -> dict:
        return _get(f"{server_url}/stats")[1]["tenants"][0]["observed"]

    def test_non_finite_values_are_rejected(self, server_url):
        # json.dumps happily emits the NaN/Infinity literals; the server
        # must not parse them into the reservoirs.
        for poison in (float("nan"), float("inf"), -float("inf")):
            status, body = _post(
                f"{server_url}{self.OBSERVATIONS}",
                {"leg": "W", "values": [1.0, poison]},
            )
            assert status == 400 and "error" in body
        assert self._observed(server_url) == {}

    def test_non_numeric_values_are_rejected(self, server_url):
        for values in (["1.0"], [True], [None], [[1.0]], [{"v": 1.0}]):
            status, body = _post(
                f"{server_url}{self.OBSERVATIONS}", {"leg": "W", "values": values}
            )
            assert status == 400 and "error" in body
        assert self._observed(server_url) == {}

    def test_malformed_json_body_is_400(self, server_url):
        for raw in (b"{nope", b"[1, 2", b"\xff\xfe", b"null", b'"text"'):
            status, body = _post_raw(f"{server_url}{self.OBSERVATIONS}", raw)
            assert status == 400 and "error" in body
        assert self._observed(server_url) == {}

    def test_valid_ingest_still_works_after_rejections(self, server_url):
        _post_raw(f"{server_url}{self.OBSERVATIONS}", b"{nope")
        _post(f"{server_url}{self.OBSERVATIONS}", {"leg": "W", "values": [float("nan")]})
        status, body = _post(
            f"{server_url}{self.OBSERVATIONS}", {"leg": "W", "values": [1.0, 2.0]}
        )
        assert status == 200 and body["ingested"] == 2
        assert self._observed(server_url) == {"W": 2}
