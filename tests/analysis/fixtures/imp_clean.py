"""Known-clean IMP corpus: numpy through the handle, sqlite3 where the
connection is made, type names under TYPE_CHECKING."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._numpy import np

if TYPE_CHECKING:
    from numpy.typing import NDArray


def connect():
    import sqlite3

    return sqlite3.connect(":memory:")


def zeros(n: int) -> NDArray:
    return np.zeros(n)
