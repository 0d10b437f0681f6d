"""Host pace: host seconds scaled to a reference speed of the host.

The benchmark shares a virtual machine with other tenants, and the speed
the host gives it drifts by a quarter and more over minutes; a slow phase
can cover several whole runs. The benchmark therefore measures a fixed
slice of reference work that it owns before and after every timed span.
The work is shaped like coopcache's hot loops (dict counting over a
sliding window, small sets and sorts, string formatting and parsing) and
imports nothing from coopcache. A span's figure is

    host seconds * REFERENCE_S / (mean of the measurements before and after)

that is, what the span would have taken on a host that runs the reference
work in ``REFERENCE_S`` seconds. A slow phase slows the span and the
reference alike and cancels out; a faster coopcache makes only the span
faster. The host's speed also changes within seconds, so each span is
paced by its own pair of measurements and not by a figure for the whole
round.
"""

from __future__ import annotations

import statistics
import time

# What reference_s() reads on a quiet host (2 vCPUs, Intel Xeon, Python
# 3.11.7), where paced and host seconds then agree. It only sets the scale,
# so that figures read as seconds.
REFERENCE_S = 0.015

_STEPS = 1000


def reference_work() -> int:
    """A fixed slice of interpreter work; returns a checksum."""
    counts: dict = {}
    window = []
    check = 0
    for i in range(_STEPS):
        pool = tuple((i * 7919 + j * 104729) % 401 for j in range(6))
        for f in pool:
            counts[f] = counts.get(f, 0) + 1
        window.append(pool)
        if len(window) > 20:
            for f in window.pop(0):
                left = counts[f] - 1
                if left:
                    counts[f] = left
                else:
                    del counts[f]
        held = sorted(set(pool) | {f for f in counts if f % 37 == 0})
        text = ",".join(f"{f}:{counts.get(f, 0)}" for f in held[:8])
        check += sum(int(part.split(":")[1]) for part in text.split(","))
    return check


def reference_s() -> float:
    """Host seconds of one slice of reference work."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def paced(host_s: float, references) -> float:
    """Host seconds at the reference speed, given reference measurements."""
    return host_s * REFERENCE_S / statistics.mean(references)
