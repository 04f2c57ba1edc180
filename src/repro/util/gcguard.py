"""Ref-counted pausing of the cycle collector.

The optimizer pauses generational GC for the duration of a call: it
allocates hundreds of thousands of short-lived tuples and memo
expressions, and collector passes over them only add pauses.  Nothing
waits for the collector meanwhile: an optimization result holds no
reference cycles (see "Ownership" in ``repro/memo/README.md``), so
refcounting frees every dropped result, on any thread, at once.
``gc.disable()``/``gc.enable()`` are *process-wide*, though —
under a thread-pool front end (:mod:`repro.serving.server`), a sibling
optimize finishing first would re-enable GC mid-flight for every other
in-flight call.  :func:`paused_gc` nests instead: the collector is
disabled when the first pauser enters and restored to its *original*
enabled-state only when the last one leaves.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

__all__ = ["paused_gc", "pause_depth"]

_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def paused_gc():
    """Pause the cycle collector for the block, ref-counted.

    Safe under concurrent and nested use: only the outermost pauser
    across *all threads* toggles the collector, and the original
    enabled-state is restored (a caller running with GC already off
    never has it switched on behind its back).
    """
    global _depth, _was_enabled
    with _lock:
        _depth += 1
        if _depth == 1:
            _was_enabled = gc.isenabled()
            if _was_enabled:
                gc.disable()
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()


def pause_depth() -> int:
    """How many pausers are currently active (diagnostics/tests)."""
    with _lock:
        return _depth
