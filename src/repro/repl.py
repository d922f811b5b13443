"""An interactive OQL shell over the demo databases.

Run with ``python -m repro``. Commands:

====================  ==================================================
``<oql query>``       run it; print the result
``\\calc <term>``      evaluate a calculus term in the paper's notation
``\\explain <query>``  show the optimized plan with estimates
``\\explain analyze <query>``  run it; estimated vs actual rows per node
``\\trace <query>``    show the Table-3 normalization derivation
``\\plan <query>``     show translation, normal form and the plan
``\\define n as q``    define a named view
``:lint on|off``      toggle post-query lint diagnostics (default on)
``:profile on|off``   toggle tracing + the JSON query log (default off)
``:cache on|off|stats``  toggle the query cache / show its counters
``:stats [on|off|top]``  toggle fleet telemetry / show its digest
``:parallel on|off``  toggle partition-parallel execution
``:jit on|off``       toggle compilation of plans to Python functions
``\\extents``          list extents and sizes
``\\schema``           list classes and attributes
``\\help``             this text
``\\quit``             leave
====================  ==================================================
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

from repro.calculus.parser import parse_calculus
from repro.db.database import Database
from repro.errors import ReproError
from repro.values import to_python


class Repl:
    """A line-oriented shell around one :class:`Database`."""

    def __init__(self, db: Database, out: Callable[[str], None] = print) -> None:
        self.db = db
        self.out = out
        self.running = True
        self.lint_enabled = True

    # -- command dispatch -------------------------------------------------------

    def handle(self, line: str) -> None:
        """Process one input line (used directly by the tests)."""
        line = line.strip()
        if not line:
            return
        try:
            if line.startswith("\\"):
                self._command(line)
            elif line.startswith(":"):
                self._command("\\" + line[1:])
            else:
                self._query(line)
        except ReproError as err:
            self.out(f"error: {err}")

    def _command(self, line: str) -> None:
        name, _, rest = line[1:].partition(" ")
        rest = rest.strip()
        if name in ("q", "quit", "exit"):
            self.running = False
        elif name == "help":
            self.out(__doc__ or "")
        elif name == "extents":
            for extent, size in sorted(self.db.catalog.extent_sizes().items()):
                self.out(f"  {extent}: {size} elements")
        elif name == "schema":
            for cls in self.db.schema.classes():
                attrs = ", ".join(f"{a}: {t}" for a, t in cls.attributes.items())
                extent = f" (extent {cls.extent})" if cls.extent else ""
                sup = f" extends {cls.superclass}" if cls.superclass else ""
                self.out(f"  class {cls.name}{sup}{extent}: {attrs}")
        elif name == "explain":
            if rest.startswith("analyze "):
                self.out(self.db.explain(rest[len("analyze "):].strip(), analyze=True))
            else:
                self.out(self.db.explain(rest))
        elif name == "trace":
            from repro.normalize import normalize_with_trace

            _, trace = normalize_with_trace(self.db.translate(rest))
            self.out(trace.render())
        elif name == "plan":
            result = self.db.run_detailed(rest)
            self.out(result.pipeline_report())
        elif name == "calc":
            value = self.db.run_calculus(parse_calculus(rest))
            self.out(repr(to_python(value)))
        elif name == "lint":
            if rest == "on":
                self.lint_enabled = True
            elif rest == "off":
                self.lint_enabled = False
            elif rest:
                self.out("usage: :lint on|off")
                return
            self.out(f"lint is {'on' if self.lint_enabled else 'off'}")
        elif name == "profile":
            if rest == "on":
                self.db.profile(True, sink=lambda line: self.out("  " + line))
            elif rest == "off":
                self.db.profile(False)
            elif rest:
                self.out("usage: :profile on|off")
                return
            self.out(f"profile is {'on' if self.db.tracer.enabled else 'off'}")
        elif name == "cache":
            if rest == "on":
                self.db.enable_cache()
            elif rest == "off":
                self.db.disable_cache()
            elif rest == "stats":
                if self.db.cache is None:
                    self.out("cache is off")
                else:
                    for key, value in sorted(self.db.cache.stats_dict().items()):
                        self.out(f"  {key}: {value}")
                return
            elif rest:
                self.out("usage: :cache on|off|stats")
                return
            self.out(f"cache is {'on' if self.db.cache is not None else 'off'}")
        elif name == "parallel":
            if rest == "on":
                self.db.enable_parallel()
            elif rest == "off":
                self.db.disable_parallel()
            elif rest:
                self.out("usage: :parallel on|off")
                return
            if self.db.parallel is not None:
                self.out(f"parallel is on ({self.db.parallel.max_workers} workers)")
            else:
                self.out("parallel is off")
        elif name == "jit":
            if rest == "on":
                self.db.enable_jit()
            elif rest == "off":
                self.db.disable_jit()
            elif rest:
                self.out("usage: :jit on|off")
                return
            self.out(f"jit is {'on' if self.db.jit is not None else 'off'}")
        elif name == "stats":
            if rest == "on":
                self.db.enable_telemetry()
            elif rest == "off":
                self.db.disable_telemetry()
            elif rest in ("", "top"):
                if self.db.telemetry is None:
                    self.out("telemetry is off — :stats on to enable")
                else:
                    from repro.obs.telemetry.instrument import summary_lines

                    for line in summary_lines(self.db.telemetry, db=self.db):
                        self.out("  " + line)
                return
            else:
                self.out("usage: :stats [on|off|top]")
                return
            self.out(
                f"telemetry is {'on' if self.db.telemetry is not None else 'off'}"
            )
        elif name == "define":
            view_name, _, body = rest.partition(" as ")
            if not body:
                self.out("usage: \\define <name> as <query>")
                return
            self.db.define(view_name.strip(), body.strip())
            self.out(f"defined view {view_name.strip()}")
        else:
            self.out(f"unknown command \\{name} — try \\help")

    def _query(self, oql: str) -> None:
        value = self.db.run(oql)
        self.out(repr(to_python(value)))
        if self.lint_enabled:
            self._report_lint(oql)

    def _report_lint(self, oql: str) -> None:
        """Print lint findings after a successful query.

        The query already ran, so even error-severity findings are
        advisory here; lint failures must never sink the result."""
        try:
            diagnostics = self.db.lint(oql)
        except Exception:  # pragma: no cover - defensive
            return
        for diag in diagnostics:
            self.out(f"  {diag}")
            if diag.hint:
                self.out(f"    = help: {diag.hint}")

    # -- loop ----------------------------------------------------------------------

    def run(self, stdin=None) -> None:
        stream = stdin if stdin is not None else sys.stdin
        self.out("monoid calculus OQL shell — \\help for commands, \\quit to exit")
        while self.running:
            self.out("oql> ")
            line = stream.readline()
            if not line:
                break
            self.handle(line)


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = list(sys.argv[1:] if argv is None else argv)
    from repro.db.database import demo_database

    Repl(demo_database(args[0] if args else "travel")).run()
    return 0
