"""Small measurement helpers shared by every workload.

Percentiles follow one rule: report the requested percentile only when
at least ``MIN_BEYOND`` samples lie beyond it; otherwise fall back to
the highest percentile that has that many, and always say which
percentile and how many samples it rests on.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import zlib

import numpy as np

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(values, want: float = 99.0) -> tuple[float, float, int]:
    """``(percentile, value, n)`` by nearest rank.

    The reported percentile is ``want`` when at least ``MIN_BEYOND``
    samples lie beyond it, else the highest percentile (in 0.1 steps)
    that keeps ``MIN_BEYOND`` samples beyond its rank.  With fewer than
    ``MIN_BEYOND + 1`` samples no tail is supported; the median is
    returned as ``(50.0, median, n)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= MIN_BEYOND:
        return 50.0, float(statistics.median(ordered)), n
    pct = want
    while pct > 50.0:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= MIN_BEYOND:
            return pct, float(ordered[rank - 1]), n
        pct = round(pct - 0.1, 1)
    return 50.0, float(statistics.median(ordered)), n


def median(values) -> float:
    return float(statistics.median(values))


def tile_digest(tile) -> tuple:
    """Attribute-for-attribute identity of a tile payload.

    One ``(name, dtype, shape, CRC-32 of the bytes)`` entry per
    attribute, in name order, plus the tile key: two tiles with the same
    key digest equal when every attribute has the same dtype, shape and
    bytes (up to a 2**-32 chance of a checksum collision per attribute).
    """
    entries = []
    for name in sorted(tile.attributes):
        array = np.ascontiguousarray(tile.attributes[name])
        entries.append(
            (
                name,
                array.dtype.str,
                array.shape,
                zlib.crc32(memoryview(array).cast("B")),
            )
        )
    return (tile.key.level, tile.key.x, tile.key.y, tuple(entries))


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process, from procfs."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14, stime 15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """A live process's high-water resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Seconds one iteration of the calibration kernel takes on the
#: reference host (the 2-vCPU VM the capacities were measured on, in its
#: fast phase).  Normalized times are reported at that speed.
REFERENCE_ITERATION_S = 3.0e-7


def _interpreter_kernel(n: int) -> int:
    table: dict = {}
    for i in range(n):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + 1
    return len(table)


def calibrate(iterations: int) -> float:
    """Seconds per iteration of a fixed dict-heavy pure-Python kernel:
    this moment's CPU speed.  The benchmark samples it between units of
    work, never inside a timed span."""
    start = time.perf_counter()
    _interpreter_kernel(iterations)
    return (time.perf_counter() - start) / iterations


def slowdown(samples) -> float:
    """How much slower than the reference host the samples say this run
    was; divide times (multiply rates) by it to normalize them."""
    return median(samples) / REFERENCE_ITERATION_S
