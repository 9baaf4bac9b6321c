"""Work-budget guards for the exhaustive operations."""

from __future__ import annotations

from decimal import Decimal

DEFAULT_WORK_BUDGET = 50_000_000


class BudgetExceededError(RuntimeError):
    """Raised when an operation refuses to start (or stop partway) on cost grounds."""

    def __init__(self, estimate: float, budget: float, what: str = "work"):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"{what} estimate {_three_figures(estimate)} exceeds budget {_three_figures(budget)}")


def _three_figures(x: float) -> str:
    try:
        return f"{x:.3g}"
    except OverflowError:  # an int past the float range
        return f"{Decimal(x):.3g}"


def work_limit(budget: float | None) -> float:
    """The limit a budget argument sets: ``None`` means the default budget."""
    return DEFAULT_WORK_BUDGET if budget is None else budget


def require_budget(estimate: float, budget: float | None, what: str = "work") -> None:
    limit = work_limit(budget)
    if estimate > limit:
        raise BudgetExceededError(estimate, limit, what)
