"""``python -m repro`` — the interactive OQL shell, or subcommands.

``python -m repro lint file.oql [...]`` runs the static analyzer
(:mod:`repro.lint.cli`); ``python -m repro explain [--analyze] [--json]
file.oql [...]`` renders query plans with estimated — and, analyzed,
actual — cardinalities (:mod:`repro.obs.cli`); ``python -m repro
verify <file.oql | query> [...]`` executes queries with the
rewrite-soundness verifier on (:mod:`repro.analysis.cli`);
``python -m repro cache stats|clear`` reports query-cache counters
(:mod:`repro.cache.cli`); ``python -m repro metrics dump|top|serve``
exports fleet telemetry — a Prometheus text dump, the hot-query
digest, or a live ``/metrics`` HTTP endpoint
(:mod:`repro.obs.telemetry.cli`); anything else starts the REPL.
"""

import sys


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(args[1:])
    if args and args[0] == "explain":
        from repro.obs.cli import main as explain_main

        return explain_main(args[1:])
    if args and args[0] == "verify":
        from repro.analysis.cli import main as verify_main

        return verify_main(args[1:])
    if args and args[0] == "cache":
        from repro.cache.cli import main as cache_main

        return cache_main(args[1:])
    if args and args[0] == "metrics":
        from repro.obs.telemetry.cli import main as metrics_main

        return metrics_main(args[1:])
    from repro.repl import main as repl_main

    return repl_main(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `... | head`): not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
