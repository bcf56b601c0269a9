"""Error taxonomy shared by all modules.

DomainError      -- inputs outside an operation's mathematical domain
ResourceError    -- a configured budget (memory, term count, operator order)
                    would be exceeded; message carries required vs available
PrecisionError   -- the requested computation cannot be delivered at the
                    working precision / available series order

``require_count`` is the shared DomainError check for term, node, sample
and repetition counts.
"""


class DivisorLabError(Exception):
    pass


class DomainError(DivisorLabError, ValueError):
    pass


class ResourceError(DivisorLabError, RuntimeError):
    pass


class PrecisionError(DivisorLabError, ArithmeticError):
    pass


def require_count(name, value):
    """Raise DomainError unless the count ``value`` is at least 1."""
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
