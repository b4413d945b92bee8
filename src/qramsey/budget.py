"""Node/time budgets for the backtracking searches.

A Budget is consumed cooperatively: search loops call spend() once per
unit of work.  Node budgets are deterministic; the wall-clock cap is a
safety net only (a run that hits it is reported as indeterminate, never
silently truncated).
"""

from __future__ import annotations

import time

_WALL_CHECK_EVERY = 4096


class BudgetExceededError(Exception):
    """A search ran out of budget before reaching an answer.

    Distinct from a negative answer: the caller learns nothing about the
    property being decided.
    """

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


class Budget:
    """Tracks nodes spent and optionally enforces node / wall-ms caps."""

    __slots__ = ("max_nodes", "max_ms", "nodes", "_start")

    def __init__(self, max_nodes: int | None = None, max_ms: int | None = None):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError("max_nodes must be nonnegative")
        if max_ms is not None and max_ms < 0:
            raise ValueError("max_ms must be nonnegative")
        self.max_nodes = max_nodes
        self.max_ms = max_ms
        self.nodes = 0
        self._start = time.monotonic()

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise BudgetExceededError(
                f"node budget exhausted ({self.max_nodes} nodes)", self.nodes
            )
        if self.max_ms is not None and self.nodes % _WALL_CHECK_EVERY < amount:
            elapsed_ms = (time.monotonic() - self._start) * 1000.0
            if elapsed_ms > self.max_ms:
                raise BudgetExceededError(
                    f"wall budget exhausted ({self.max_ms} ms)", self.nodes
                )


def ensure_budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()
