"""Machine-speed gauge: times are reported at a fixed reference speed.

The machines this benchmark runs on are shared, and their speed drifts by
10-20 % over tens of seconds (a fixed strategy run measured in 10-second
windows varied with a coefficient of variation of 0.15).  The gauge runs a
fixed piece of standard-library work, `reference_chunk`, between operations,
keeping it at a fixed share of the measured time.  Every measured duration
is then scaled by ``REFERENCE_CHUNK_S / mean chunk time``: what it would have
been at the speed at which one chunk takes exactly ``REFERENCE_CHUNK_S``.
The same strategy run, scaled this way, varied by 0.02 across the same
windows.

The chunk never calls ``querysort``, so a change to the program cannot move
it.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Wall time of one `reference_chunk` at the reference speed.
REFERENCE_CHUNK_S = 0.010


def reference_chunk() -> Fraction:
    """Fixed work in the style of the program: rational sums and dict updates."""
    x = Fraction(0)
    table = {}
    for i in range(1, 2000):
        x += Fraction(i % 89 + 1, i % 97 + 1)
        table[i % 31] = x
        if x > 50:
            x -= 50
    return x


class Gauge:
    """Interleaves reference chunks with measured work and yields the scale factor."""

    def __init__(self, share: float):
        self.share = share
        self.measured_s = 0.0
        self.chunk_s = 0.0
        self.chunks = 0

    def add(self, seconds: float) -> None:
        """Account ``seconds`` of measured work, then top the reference share up."""
        self.measured_s += seconds
        while self.chunks == 0 or self.chunk_s < self.share * self.measured_s:
            t0 = time.perf_counter()
            reference_chunk()
            self.chunk_s += time.perf_counter() - t0
            self.chunks += 1

    @property
    def factor(self) -> float:
        """Multiply a duration measured during this gauge's span by this."""
        return REFERENCE_CHUNK_S * self.chunks / self.chunk_s
