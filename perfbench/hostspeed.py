"""How fast the host runs this process, sampled while the benchmark times.

On a machine shared with other tenants this process runs at full speed in
quiet moments and up to half speed, for seconds at a time, when a
neighbour is busy. CPU time slows the same way, so it is no remedy. A daemon
thread therefore wakes every PERIOD_S, times a fixed pure-Python spin of
about 0.1 ms and keeps (time, duration). The fastest spin of the process is
its quiet speed; the mean spin over a timed interval, divided by it, is how
much slower than quiet the host ran during that interval, and the interval's
wall time divided by that factor is the time it takes at quiet speed.

The spin holds the GIL for its 0.1 ms, so the sampler costs the timed code
about one per cent, the same for every version of the program.
"""

from __future__ import annotations

import threading
import time

PERIOD_S = 0.01
SPIN = 2000  # loop iterations per sample


def _spin() -> int:
    s = 0
    for i in range(SPIN):
        s += i * i
    return s


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            _spin()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def mean_spin(self, start: float, end: float) -> float:
        """Mean spin of the samples taken in [start, end]."""
        spins = [d for t, d in self.samples if start <= t <= end]
        return sum(spins) / len(spins) if spins else self.quiet()

    def quiet(self) -> float:
        """The fastest spin so far: the host's speed in a quiet moment."""
        return min(d for _, d in self.samples)

    def at_quiet_speed(self, start: float, end: float) -> float:
        """Wall time of [start, end] scaled to the quiet speed."""
        return (end - start) * self.quiet() / self.mean_spin(start, end)
