"""The base class of dynfit's errors."""


class DynfitError(Exception):
    """Base of every error dynfit raises on purpose about data it cannot fit.

    Each subclass also keeps a built-in base (ValueError or RuntimeError),
    so callers may catch either.  Anything else escaping dynfit is a bug.
    """
