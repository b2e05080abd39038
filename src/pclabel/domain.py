"""The one domain rule for numeric settings and spec fields, the one
check of per-point rows, and the one way the blocked passes cover their
rows."""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# The most neighbours a point's over-segmentation neighbourhood (normals_k,
# adjacency_k) may hold: the stages keep every point's k neighbours at once,
# so a k near the point count would allocate an n-by-n table. Every preset
# uses 16 or fewer.
MAX_NEIGHBORS = 64

# Entries per array in the blocks of the blocked passes: the (rows, k, 3)
# neighborhoods of normal estimation, the (edges, 3) normal pairs of the
# over-segmentation angle gate and the rows x max(k, C) vote tables of k-NN
# predict, 2 MB per float64 array. for_blocks shares it among its workers,
# so the blocks in flight hold at most this many together, whatever the
# core count. Each row is computed on its own, so no output depends on it.
BLOCK_ENTRIES = 1 << 18


def for_blocks(n: int, entries_per_row: int, body) -> None:
    """Call body(rows) on row slices covering range(n), on every core.

    There is a worker per core this process may run on (per core of the
    machine where the platform cannot say). A block holds
    BLOCK_ENTRIES // (entries_per_row * workers) rows, so the blocks in
    flight hold at most BLOCK_ENTRIES entries per array together, but no
    more than ceil(n / workers) rows (and at least one), so a small pass
    is still shared by every worker. body must write only its own rows'
    outputs; then no output depends on the worker count. The workers are a
    pool that ends with the call, so no thread outlives it. An exception in
    body is raised here.
    """
    if hasattr(os, "sched_getaffinity"):  # Linux only
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    step = max(1, min(BLOCK_ENTRIES // (entries_per_row * workers), math.ceil(n / workers)))
    blocks = [slice(start, start + step) for start in range(0, n, step)]
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(body, blocks):
            pass


def require(name: str, value, low: float = -math.inf, high: float = math.inf, *,
            integer: bool = False, open_low: bool = False) -> None:
    """Raise a ValueError naming the setting unless value lies in its domain.

    The domain runs from low to high, both included unless open_low. An
    infinite bound is never reached, so NaN (which passes no comparison),
    the infinities and values that are not numbers fail. An integer setting
    must be an int or a numpy integer; a bool is not one.
    """
    if integer and (isinstance(value, bool) or not isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        inside = ((low < value if open_low else low <= value) and value <= high
                  and -math.inf < value < math.inf)
    except TypeError:
        inside = False
    if not inside:
        rule = (f"lie in {'(' if open_low else '['}{low}, {high}]" if high < math.inf
                else "be finite" if low == -math.inf
                else f"be {'' if integer else 'finite and '}{'>' if open_low else '>='} {low}")
        raise ValueError(f"{name} must {rule}, got {value}")


def require_finite(what: str, rows: np.ndarray) -> None:
    """Raise a ValueError naming the first point whose row of `rows` (one
    row per point) holds a NaN or an infinity."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ValueError(f"{what} of point {int(np.flatnonzero(~finite)[0])} is not finite")
