"""Shared exception types, mapped to CLI exit codes."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class BudgetError(RuntimeError):
    """A search or evaluation exceeds its configured exhaustive budget."""
