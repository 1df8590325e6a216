"""The one cache mechanism of extsym: bounded memo tables.

Every cache is a dict made by ``table()`` and filled through
``remember()``; ``cached(key)`` wraps a function in a table of its own.
A table is cleared whole when it reaches ``LIMIT`` entries.  Tables are
cleared independently of one another: a cached value depends only on its
key, and the class ids stored in the class tables come from
``itertools.count`` and are never reused, so an entry that outlives the
clearing of another table still names the same thing.  Exceptions are
never cached: a call that raises stores nothing.
"""

from __future__ import annotations

import functools

LIMIT = 200000

_tables: list = []


def table() -> dict:
    """A new empty memo table, registered for ``clear_all``."""
    t: dict = {}
    _tables.append(t)
    return t


def remember(t: dict, key, value):
    """Store ``value`` under ``key``, clearing ``t`` first when full."""
    if len(t) >= LIMIT:
        t.clear()
    t[key] = value
    return value


def clear_all() -> None:
    for t in _tables:
        t.clear()


def cached(key):
    """Memoise a function by ``key(*args)`` in one table."""
    def decorate(fn):
        t = table()

        @functools.wraps(fn)
        def wrapper(*args):
            k = key(*args)
            hit = t.get(k)
            return hit if hit is not None else remember(t, k, fn(*args))

        return wrapper
    return decorate
