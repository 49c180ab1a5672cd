"""The process's glibc heap policy, set once when glemiml is imported.

By default glibc serves each allocation above a threshold with its own mmap
and unmaps it when it is freed, and it returns the top of the heap to the
kernel once more than a threshold of it is free. Both thresholds start low
(128 KiB) and the mmap threshold then adapts to what the process has freed
so far. Most of glemiml's NumPy temporaries lie above 128 KiB, so a pass
that follows another paid the kernel again to fault in the pages the
previous pass had just given back, and the cost of a pass depended on what
the pass before it freed. Fixing both thresholds keeps freed temporaries in
the heap, where the next pass reuses them.
"""

from __future__ import annotations

import ctypes

# mallopt parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Allocations of at most this many bytes come from the heap; larger ones get
# their own mmap. 32 MiB is glibc's largest value on 64-bit hosts, and a
# fixed value also stops the threshold from adapting to the process's
# history. Measured in the benchmark's loop (seed 5, 30 s runs, a predict
# pass and an enhance pass between training epochs, minor faults from
# getrusage, medians over the warm passes; 2-vCPU AMD EPYC, glibc 2.36):
# with glibc's defaults an enhance pass took 1,140 faults on many-labels-c,
# 139 on default and 450 on wide-bags, a default predict pass 0 with an
# upper quartile of 80, and a wide-bags epoch 503; with both thresholds set
# each of these reads 0. This threshold alone left 991 faults per
# many-labels-c enhance pass: glibc then keeps its 128 KiB trim threshold.
MMAP_THRESHOLD = 32 << 20

# Free memory at the top of the heap that glibc keeps before it returns the
# rest to the kernel. 16 MiB was enough for the counts above; this leaves
# room for larger passes. This threshold alone left the mmap threshold at
# 128 KiB and took 1,832 faults per many-labels-c enhance pass and 118 per
# predict pass.
TRIM_THRESHOLD = 64 << 20


def set_heap_policy() -> bool:
    """Set MMAP_THRESHOLD and TRIM_THRESHOLD for this process when its C library is glibc.

    Returns whether both were set. Elsewhere, or when the C library or its
    mallopt cannot be loaded, it changes nothing and returns False.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # present in glibc alone
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set
