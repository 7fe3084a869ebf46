"""The benchmark's HTTP hook must still find the request handler.

``perfbench/layers.py``'s ``install_http`` wraps ``do_GET`` and ``do_POST``
from ``_Handler``'s own class dict, and tags each ``http.handler`` span with
``self.headers.get("X-Request-Id")``.  A handler that inherits those methods,
or whose header lookup is case-sensitive, would leave a traced
``serve-http`` run without handler spans or request ids.  This test installs
the hook in a fresh interpreter (it patches the handler for the life of the
process), serves one request and checks its span.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

SCRIPT = """
import http.client, json, sys, threading
sys.dont_write_bytecode = True
sys.path[:0] = [{perfbench!r}, {src!r}]
import layers
tracer = layers.Tracer(timing=True)
layers.install_http(tracer)
from repro.serving import PredictorService, make_server
server = make_server(PredictorService(), port=0)
serving = threading.Thread(target=server.serve_forever, kwargs={{"poll_interval": 0.01}})
serving.start()
try:
    connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
    connection.request("GET", "/healthz", headers={{"X-Request-Id": "7"}})
    response = connection.getresponse()
    response.read()
    connection.close()
finally:
    server.shutdown()
    server.server_close()
    serving.join(timeout=10)
print(json.dumps({{
    "status": response.status,
    "handler_ops": [span[4] for span in tracer.spans if span[0] == "http.handler"],
}}))
"""


def test_traced_request_gets_a_handler_span_with_its_id():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    assert record == {"status": 200, "handler_ops": [7]}
