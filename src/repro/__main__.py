"""Module entry point: ``python -m repro ...``.

Exit-code propagation matters here: the daemon/client subcommands promise
the same codes as one-shot ``detect`` (0 clean, 1 findings, 3 exhausted
budgets, 4 resilience failures, 2 usage errors), and scripts — the CI
smoke job included — branch on them. :func:`repro.cli.main` owns that
policy for this entry and the ``gcatch-repro`` script alike: it returns
an int for every command, 130 for Ctrl-C (the normal way to stop
``serve``/``watch``) and 141 for output into a pipe whose reader has gone
(``repro table1 | head -1``), neither with a traceback.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
