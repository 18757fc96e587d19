"""Bytes a tape node keeps alive, and the peak of a call, measured with
``tracemalloc``.

Plain Python, no knowledge of the tape. ``retained_bytes`` runs a builder
and reports how much traced memory is still allocated once it has
returned, with its result held: arrays the builder made and dropped do not
count; arrays its result keeps (a node's output, the values its backward
closure holds) do. ``peak_bytes`` reports the most traced memory the call
held at any one time.
"""

import gc
import tracemalloc

# An allowance for the Python objects of one node (the Tensor, its parents
# tuple, the backward closure and its cells, array headers, numpy scalars):
# about 1.5 KB with CPython 3 and numpy 2; a retained array of the sizes
# the tests use takes several times more.
NODE_OVERHEAD_BYTES = 4096


def retained_bytes(build):
    """Run ``build()`` and return its result and the traced bytes it keeps
    alive. Memory allocated before the call (its inputs) is not counted."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, held


def peak_bytes(build):
    """Run ``build()`` and return its result and the traced peak of the
    call: the most bytes it held allocated at once, beyond what was
    allocated before it (its inputs)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak
