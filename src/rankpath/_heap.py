"""Fixed glibc heap thresholds for the large arrays a build allocates and frees.

glibc adapts two thresholds as a program frees memory: a freed chunk that
was mmapped raises the mmap threshold to its size, and the trim threshold
to twice that.  A 40 x 40 t = 20 ``build_path`` call allocates and frees
about 6 MB, more than the 2-4 MB trim threshold that adaptation settles
at, so after every call the top of the heap went back to the kernel and
the next call faulted it in again, page by page.  Setting both thresholds
once stops the adaptation, and freed blocks are then reused from the heap.
"""

import os
from ctypes import CDLL, c_int
from platform import libc_ver

#: mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's own ceiling for its adaptive mmap threshold on 64-bit
#: (DEFAULT_MMAP_THRESHOLD_MAX), so blocks up to 32 MiB come from the heap
_MMAP_THRESHOLD = 32 << 20
#: twice the mmap threshold, the rule glibc's adaptation itself follows; up
#: to this much freed memory at the top of the heap stays in the process
_TRIM_THRESHOLD = 64 << 20


def fix_heap_thresholds() -> None:
    """Set glibc's mmap and trim thresholds, or do nothing.

    Nothing is done off glibc, where the C library or its ``mallopt``
    cannot be loaded, or where the environment already tunes the
    allocator (``GLIBC_TUNABLES`` or a ``MALLOC_*_`` variable).  The mmap
    threshold is set first, and the trim threshold only if that call took:
    the trim threshold alone would pin the mmap threshold at its 128 KiB
    default, and most large arrays would be mmapped and faulted in anew.
    """
    if any(
        key == "GLIBC_TUNABLES" or (key.startswith("MALLOC_") and key.endswith("_"))
        for key in os.environ
    ):
        return
    if libc_ver()[0] != "glibc":
        return
    try:
        mallopt = CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (c_int, c_int)
    mallopt.restype = c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
