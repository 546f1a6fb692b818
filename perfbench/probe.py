"""Host-speed probe: a fixed piece of pure-Python work, timed.

On a shared virtual machine the same code runs up to 1.9x slower while
a neighbour loads the host, and the host flips between its fast and
slow states within a second. A run can sit in the slow state for most
of its length, so neither the fastest repeat nor the median of raw
times repeats from run to run.

The benchmark therefore times this probe right before and right after
every operation and reports the operation's time scaled to a host on
which the probe takes `REFERENCE_S`:

    normalised = seconds * REFERENCE_S / mean(probe before, probe after)

The probe is the benchmark's own code and never calls matchcore, so a
change to matchcore moves the normalised time exactly as it moves the
raw time. Not all code slows alike in the slow state: a plain integer
loop by 1.4x, list-indexed graph loops like the kernel's by 1.7x,
`Fraction` and dict bookkeeping by 1.9x; matchcore's operations range
over 1.35-1.95x. The probe runs one third of each kind, so it slows by
about 1.7x and no operation's scaled time is off by more than about 20%
between a run spent in the fast state and one spent in the slow state.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's time in the fast state of a 2-vCPU KVM guest (Xeon,
# Python 3.11.7); normalised times are in seconds on such a host.
REFERENCE_S = 0.0072

_N = 3000
_ADJ = [[(i * 31 + j * 17) % _N for j in range(4)] for i in range(_N)]


def probe() -> float:
    """Seconds taken by the fixed work."""
    t0 = time.perf_counter()
    # Integer arithmetic.
    acc = 0
    for i in range(40_000):
        acc ^= i * 7
    # Graph loops over lists: a BFS, then a potential update per vertex.
    dist = [-1] * _N
    dist[0] = 0
    queue = [0]
    for u in queue:
        for v in _ADJ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    pot = [0] * _N
    for u in range(_N):
        best = pot[u]
        for v in _ADJ[u]:
            w = (u ^ v) & 63
            if w - pot[v] > best:
                best = w - pot[v]
        pot[u] = best
    # Rational and dict bookkeeping.
    table = {}
    total = Fraction(0)
    for i in range(1000):
        table[(i * 7919) % 10007] = i
        total += Fraction(i % 97 + 1, i % 13 + 1)
    sorted(table.items(), key=lambda kv: kv[1] ^ 5)
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between two probes, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
