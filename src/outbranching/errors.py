"""Shared exception types and the default enumeration budget."""

# Most iob sub-instances or kpath ball-cover subsets one call enumerates
DEFAULT_BUDGET = 200000


class BudgetError(RuntimeError):
    """An enumeration or search exceeded its configured budget.

    Raised before any partial result is returned; callers either widen the
    budget or report the failure, nothing is silently truncated.
    """

    def __init__(self, what, needed, budget):
        super().__init__(f"budget exceeded: {what} needs {needed}, budget {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


class DPInvariantError(RuntimeError):
    """The tree-decomposition DP broke one of its own invariants, or its
    witness failed validation. Signals a bug, never a "no" answer; it is
    raised instead of returning a result that may be wrong."""
