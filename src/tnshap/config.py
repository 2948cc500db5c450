"""Process-wide knobs shared by the library and the CLI.

The worker budget is kept so scripts and the CLI's ``--threads`` flag keep
working, and it is still validated (>= 1), but nothing reads it: attribution
runs in the calling thread (order-1 batches stack their instances instead),
so the budget has no effect on results or speed.
"""

from __future__ import annotations

import os

_worker_budget = max(1, os.cpu_count() or 1)


def set_worker_budget(k: int) -> None:
    """Record a worker budget (>= 1); attribution ignores it."""
    global _worker_budget
    if k < 1:
        raise ValueError("worker budget must be >= 1")
    _worker_budget = int(k)


def get_worker_budget() -> int:
    return _worker_budget
