"""Shared exception types."""


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


class KernelContractError(ValueError):
    """A kernelization plug-in violated its contract."""


class RootDisconnected(Exception):
    """Some vertex is unreachable from the chosen root, so no spanning
    out-tree rooted there exists. Signals "no" for that root."""

    def __init__(self, root, missing):
        super().__init__(f"root {root} cannot reach {sorted(missing)}")
        self.root = root
        self.missing = frozenset(missing)


class DPInvariantError(RuntimeError):
    """The tree-decomposition DP broke one of its own invariants, or its
    witness failed validation. Signals a bug, never a "no" answer; it is
    raised instead of returning a result that may be wrong."""
