"""Module entry point: ``python -m repro ...``.

Exit-code propagation matters here: the daemon/client subcommands promise
the same codes as one-shot ``detect`` (0 clean, 1 findings, 3 exhausted
budgets, 4 resilience failures, 2 usage errors), and scripts — the CI
smoke job included — branch on them. ``run()`` therefore coerces whatever
``main`` hands back into a real process exit code instead of trusting
``sys.exit``'s permissive argument handling (``sys.exit(None)`` is 0 but
``sys.exit("3")`` would be 1-with-a-printed-string), and maps Ctrl-C —
the normal way to stop ``serve``/``watch`` — to the conventional 130
rather than a KeyboardInterrupt traceback. Likewise, output into a pipe
whose reader has gone (``repro table1 | head -1``) exits 141 (128 +
SIGPIPE) without a traceback; ``repro.cli.main`` maps that one itself, so
the ``gcatch-repro`` script exits the same way.
"""

import sys

from repro.cli import main


def run() -> int:
    try:
        code = main()
    except KeyboardInterrupt:
        return 130
    if code is None:
        return 0
    if isinstance(code, (int, bool)):
        return int(code)
    try:
        return int(code)
    except (TypeError, ValueError):
        return 1


if __name__ == "__main__":
    sys.exit(run())
