"""The name of the one execution path, kept for the performance ledger.

``benchmarks/ledger/run.py`` imports :func:`default_engine_name` for its
environment block and that directory is pinned; the backend registry this
module used to hold is gone (CHANGES.md, PR 15).  Nothing else imports it.
"""


def default_engine_name() -> str:
    """``"python"``: there is a single engine and nothing selects it."""
    return "python"
