"""``python -m repro metrics`` — telemetry over a demo burst.

The databases here are in-process, so (as with ``cache stats``) the
subcommand first drives a query burst against a telemetry-enabled demo
database, then reports the registry it filled:

- ``dump`` — the full registry as Prometheus text;
- ``top [--k N]`` — the terminal digest: totals, latency quantiles,
  QPS window, hot-query table and QL402 index advice;
- ``serve [--port P]`` — the ``/metrics`` HTTP endpoint, blocking; CI
  scrapes this with ``curl`` and validates the scrape with the strict
  parser.

``--burst N`` controls how many workload passes warm the registry (the
burst includes one failing query so error counters are non-zero).
"""

from __future__ import annotations

import argparse
from typing import Callable, Optional

# The demo burst is the cache CLI's workload (its alpha-variant pair
# shares one fingerprint) plus one query that fails (unknown name) so
# ``repro_query_errors_total`` is exercised.
from repro.cache.cli import WORKLOAD

FAILING_QUERY = "select n.name from n in Nowhere"


def run_burst(passes: int = 5):
    """A telemetry-enabled demo database after ``passes`` burst passes."""
    from repro.db.database import demo_travel_database

    db = demo_travel_database(num_cities=6, seed=3)
    db.enable_telemetry()
    db.enable_cache()
    for _ in range(max(0, passes)):
        for oql in WORKLOAD:
            db.run(oql)
        try:
            db.run(FAILING_QUERY)
        except Exception:
            pass  # the point: error counters must tick
    return db


def main(argv: Optional[list[str]] = None, out: Callable[[str], None] = print) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics",
        description="Telemetry registry over a demo query burst.",
    )
    parser.add_argument("action", choices=("dump", "top", "serve"))
    parser.add_argument(
        "--burst",
        type=int,
        default=5,
        help="workload passes before reporting/serving (default: 5)",
    )
    parser.add_argument(
        "--k", type=int, default=5, help="hot-query table size for top"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=9464, help="serve port (default: 9464)"
    )
    args = parser.parse_args(argv)

    db = run_burst(args.burst)
    registry = db.telemetry

    if args.action == "dump":
        from repro.obs.telemetry.export import prometheus_text

        out(prometheus_text(registry).rstrip("\n"))
        return 0

    if args.action == "top":
        from repro.obs.telemetry.instrument import summary_lines

        for line in summary_lines(registry, top_k=args.k, db=db):
            out(line)
        return 0

    from repro.obs.telemetry.server import MetricsServer

    server = MetricsServer(registry, host=args.host, port=args.port)
    out(f"serving {server.url} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0
