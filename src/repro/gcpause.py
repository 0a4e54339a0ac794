"""One scoped pause of CPython's cyclic garbage collector.

An analysis builds one large object graph — IR, SDG, tabulation state —
that stays live, and cyclic, until the analysis returns.  Automatic
collections during the run walk that graph and reclaim next to nothing:
young collections find no garbage, and full collections, whose share of
the wall grows with app size, find the graph still reachable.  The
graph becomes garbage only at return, and the next collection after the
call frees it, exactly as without the pause.

The collector's switch is process-wide, so the pause is reference
counted: the outermost :func:`gc_paused` saves ``gc.isenabled()`` and
disables the collector, and the last one out restores the saved state.
Nested pauses (``analyze_sources`` calls ``analyze_prepared``) and
concurrent ones (two threads analyzing) are therefore safe, and a caller
that disabled the collector itself keeps it disabled.

Fork rule: a child forked during a pause inherits a disabled collector
and the pause count of threads it does not have.  A long-lived forked
worker must call :func:`reset_after_fork` first thing, or it never
collects.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
# Active pauses in this process, the collector state the outermost one
# saved, and the collection count when it began.
_depth = 0
_was_enabled = True
_collections_at_start = 0


def _collection_count() -> int:
    """Collections of every generation so far in this process."""
    return sum(generation["collections"] for generation in gc.get_stats())


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with automatic cyclic collection paused.

    Usable as a ``with`` block or as a function decorator."""
    global _depth, _was_enabled, _collections_at_start
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            _collections_at_start = _collection_count()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()


def collections_during_pause() -> int:
    """Collections since the outermost active pause began (0 outside a
    pause).  Nonzero only if something collected explicitly or turned
    the collector back on mid-pause."""
    with _lock:
        return _collection_count() - _collections_at_start if _depth else 0


def reset_after_fork() -> None:
    """In a forked child, drop the pauses inherited from the parent and
    restore the collector state the outermost of them saved."""
    global _lock, _depth
    # The parent's lock may have been held by a thread the child lacks.
    _lock = threading.Lock()
    if _depth:
        _depth = 0
        if _was_enabled:
            gc.enable()
