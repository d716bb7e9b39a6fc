"""Exception types shared across the library.

The CLI maps these onto exit codes: input problems exit 2, precondition
violations exit 3, resource caps exit 4.  An ``AssertionError`` or other
``RuntimeError`` is a broken internal invariant and exits 5.
"""


class InputError(ValueError):
    """Malformed literal, file, or argument."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold."""


class EmptyShiftError(PreconditionError):
    """The (sub)shift in question is empty."""


class CapError(RuntimeError):
    """A configurable search or size cap was exceeded."""
