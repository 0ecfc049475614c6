"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto exit codes: ParseError -> 2, LimitExceeded -> 3,
PreconditionError -> 4, and any other HspError (such as two routes to one
value that disagree, or a violated InvariantError) -> 1.
"""


class HspError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HspError):
    """Malformed cycle notation, group file, or catalog name."""


class LimitExceeded(HspError):
    """An enumeration or index bound was exceeded (group too large, etc.)."""


class PreconditionError(HspError):
    """A mathematical precondition is violated (trivial subgroup, intransitive
    group, mismatched degrees, ...)."""


class InvariantError(HspError):
    """An internal invariant failed: an exact identity that must hold for any
    valid input (a coset table, a Frobenius count, a unit-mass distribution)
    does not.  It is raised, not asserted, so it still runs under
    ``python -O``."""
