"""A stdlib ``/metrics`` endpoint for Prometheus scrapers.

No dependencies beyond ``http.server``: a :class:`MetricsServer` wraps
a ``ThreadingHTTPServer`` serving

- ``/metrics`` — Prometheus text exposition (the scrape target);
- ``/healthz`` — liveness probe (``ok``).

``port=0`` binds an ephemeral port (tests use this; :attr:`port` tells
you what was bound). :meth:`start` serves from a daemon thread so a
process can keep answering queries while being scraped — the registry
is already thread-safe, so a scrape racing a query burst observes a
consistent snapshot.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.telemetry.export import PROMETHEUS_CONTENT_TYPE, prometheus_text
from repro.obs.telemetry.registry import MetricsRegistry, get_registry


def _make_handler(registry: MetricsRegistry) -> type:
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format: str, *args: object) -> None:
            pass  # scrapes are high-frequency; stay quiet

        def _respond(self, body: str, content_type: str, status: int = 200) -> None:
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                self._respond(prometheus_text(registry), PROMETHEUS_CONTENT_TYPE)
            elif path == "/healthz":
                self._respond("ok\n", "text/plain; charset=utf-8")
            else:
                self._respond("not found\n", "text/plain; charset=utf-8", 404)

    return Handler


class MetricsServer:
    """Serves one registry's metrics over HTTP until stopped."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self._httpd = ThreadingHTTPServer(
            (host, port), _make_handler(self.registry)
        )
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
