"""Speed probe: how fast is this box right now, against the reference box?

The sandbox the benchmark runs in slows down and speeds up by 10-30 % for
tens of seconds at a time (other tenants), for the same seed as much as
across seeds.  A fixed kernel of pure Python -- big-integer modular
arithmetic, SHA-256, set and string work, the same kinds of work the
program does, and no code of the program -- is timed between passes of the
measured loop and after every set-up; its mean over its nominal time on
the quiet reference box is the run's *speed factor*.  Untraced runs report
their wall-clock metrics divided by that factor, i.e. in seconds of the
reference box, which halves their spread; the factor itself is printed so
the raw numbers can be recovered.  Traced runs do not probe.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: Median time of ``reference_kernel`` on the builder's box in a quiet spell.
REFERENCE_NOMINAL_S = 0.0290

_PRIME = 2**255 - 19


def reference_kernel() -> float:
    """Run the fixed kernel once; seconds it took."""
    begin = time.perf_counter()
    x = 0x1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF1234567890ABCDEF % _PRIME
    for _ in range(24000):
        x = (x * x + 7) % _PRIME
        x = (x * 0x9E3779B97F4A7C15) % _PRIME
    digest = b"x" * 64
    seen = {}
    for i in range(12000):
        digest = hashlib.sha256(digest).digest()
        seen[digest[:6]] = i
    words = [f"w{i % 97}" for i in range(15000)]
    sorted({a + " " + b + " " + c for a, b, c in zip(words, words[1:], words[2:])})
    return time.perf_counter() - begin


class SpeedProbe:
    """Times the reference kernel about every *every_s* seconds of work."""

    def __init__(self, every_s: float = 0.5):
        self.every_s = every_s
        self.samples: list[float] = []
        self._since = every_s   # the first call probes

    def after(self, wall: float) -> None:
        """*wall* more seconds of work were done; probe if one is due."""
        self._since += wall
        if self._since >= self.every_s:
            self._since = 0.0
            self.samples.append(reference_kernel())

    @property
    def factor(self) -> float:
        """> 1: this box ran slower than the reference box."""
        return statistics.fmean(self.samples) / REFERENCE_NOMINAL_S
