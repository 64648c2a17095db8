"""Enumeration budget shared by the threshold, jet-counting and exponential-sum modules."""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10**8
ENV_VAR = "LCTLAB_BUDGET"


class BudgetExceededError(RuntimeError):
    """Raised when an exact enumeration would exceed the configured budget.

    ``unit`` names what is counted: points, jets or candidate bases.
    """

    def __init__(self, needed: int, budget: int, what: str, unit: str):
        super().__init__(f"{what} needs {needed} {unit}, budget is {budget}")
        self.needed = needed
        self.budget = budget


def resolve_budget(budget=None) -> int:
    """Explicit argument wins, then the LCTLAB_BUDGET env var, then the default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


def check_budget(needed: int, budget, what: str, unit: str) -> int:
    limit = resolve_budget(budget)
    if needed > limit:
        raise BudgetExceededError(needed, limit, what, unit)
    return limit
