"""Known-clean IMP corpus: numpy through the handle, type names under
TYPE_CHECKING."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._numpy import np

if TYPE_CHECKING:
    from numpy.typing import NDArray


def zeros(n: int) -> NDArray:
    return np.zeros(n)
