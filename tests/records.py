"""A test-only copy of a record or model with some constructor arguments changed."""

import inspect


def replace(obj, **changes):
    """type(obj) called on obj's constructor arguments, read back by name, with changes.

    The package's records are NamedTuples or plain classes whose __init__
    keeps each argument under its own name, so one reading covers both.  A
    change naming no parameter is refused by the constructor.
    """
    params = inspect.signature(type(obj)).parameters
    return type(obj)(**{**{name: getattr(obj, name) for name in params}, **changes})
