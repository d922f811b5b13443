"""``python -m repro cache`` — inspect the query cache's counters.

The databases here are in-process, so there is no daemon to query;
instead the subcommand runs a small repeated demo workload
(:data:`WORKLOAD`) against a cache-enabled database and reports the
resulting counters — the operational shape of ``stats``
without a server. ``clear`` additionally clears the cache afterwards
and shows the emptied stores (counters survive a clear; entry counts
drop to zero). ``--json`` emits the stats dictionary for CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

#: The demo workload: a mix of shapes (joins, aggregates, group-by),
#: including an alpha-variant pair that must share one compiled entry.
WORKLOAD = (
    "select distinct c.name from c in Cities",
    "select distinct x.name from x in Cities",  # alpha-variant of the above
    "count(select h.name from c in Cities, h in c.hotels)",
    "select distinct struct(city: c.name, hotel: h.name) "
    "from c in Cities, h in c.hotels where h.stars > 2",
    "select struct(city: city, n: count(partition)) "
    "from c in Cities group by city: c.name",
)


def run_workload(repeats: int = 3):
    """A cache-enabled demo database after ``repeats`` workload passes."""
    from repro.db.database import demo_travel_database

    db = demo_travel_database(num_cities=6, seed=3)
    db.enable_cache()
    for _ in range(repeats):
        for oql in WORKLOAD:
            db.run(oql)
    return db


def main(argv: Optional[list[str]] = None, out: Callable[[str], None] = print) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect query-cache counters over a demo workload.",
    )
    parser.add_argument("action", choices=("stats", "clear"))
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="workload passes before reporting (default: 3)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the stats dictionary as JSON"
    )
    args = parser.parse_args(argv)

    db = run_workload(args.repeats)
    if args.action == "clear":
        db.cache.clear()
    stats = db.cache.stats_dict()
    if args.json:
        out(
            json.dumps(
                {
                    "action": args.action,
                    "workload_queries": len(WORKLOAD),
                    "repeats": args.repeats,
                    "stats": stats,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    out(
        f"query cache after {args.repeats}x {len(WORKLOAD)}-query demo workload"
        + (" (cleared)" if args.action == "clear" else "")
    )
    out(
        f"  compile: {stats['compile_hits']} hits, "
        f"{stats['compile_misses']} misses ({stats['compiled_entries']} entries)"
    )
    out(
        f"  result:  {stats['result_hits']} hits, "
        f"{stats['result_misses']} misses ({stats['result_entries']} entries)"
    )
    out(
        f"  evictions: {stats['evictions']}  invalidations: {stats['invalidations']}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
