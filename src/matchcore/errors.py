"""Exception types shared across the package."""


class MatchcoreError(Exception):
    """Base class for all errors raised by this package."""


class InstanceFormatError(MatchcoreError):
    """An instance file is malformed or violates an instance invariant.

    Carries the 1-based line number where the problem was found.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class InvariantViolation(MatchcoreError):
    """An internal exactness invariant failed.

    These checks guard identities that hold for every optimal solution
    (strong duality, per-cycle cover identities, the payouts' budget).
    A violation always indicates a bug upstream, never bad user input,
    so it is raised as a hard failure.
    """


class BoundExceeded(MatchcoreError):
    """An input or an exhaustive oracle's task is past its size bound.

    `parse_instance` and the generators refuse an instance past
    `instances.MAX_VERTICES` or `instances.MAX_EDGES` before building
    it, and `GameInstance` a vertex count past `MAX_VERTICES`. The
    exhaustive oracles are exponential by design and refuse past their
    bounds rather than silently approximate.
    """
