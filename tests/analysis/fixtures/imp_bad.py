"""Known-bad IMP corpus — analyzed as if it were a repro.* module."""

import sqlite3  # IMP001: sqlite3 at module level
import numpy as np  # IMP001
import numpy.random  # IMP001
from numpy import uint64  # IMP001

try:
    from sqlite3 import connect  # IMP001: a try block at module level still runs at import
except ImportError:
    connect = None


class Signatures:
    import numpy  # IMP001: a class body runs at import


def allocate(n):
    import numpy as lazy_np  # IMP001: the statement itself loads the lazy module
    return lazy_np.empty(n, dtype=uint64), np, numpy.random, sqlite3


def connection():
    import sqlite3 as lazy_sqlite3  # IMP001: loads with the first call
    return lazy_sqlite3.connect(":memory:")
