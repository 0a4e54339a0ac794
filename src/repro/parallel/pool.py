"""The persistent worker pool behind the parallel taint sweep.

Lifecycle: the parent builds one :class:`~.snapshot.EngineSnapshot`,
starts ``jobs`` worker processes that each deserialize it exactly once
(pool initializer), then streams shard indices to the pool one task per
future — dynamic dispatch, so a giant shard never serializes the run
behind a static partition.  Completion order is nondeterministic;
:meth:`PersistentWorkerPool.run_shards` re-orders outcomes by shard
index before returning, which is what keeps the downstream merge
deterministic.

Start methods: ``fork`` is preferred (snapshot deserialization against
an inherited intern table is an identity re-intern), but the snapshot
protocol is spawn-safe (see :mod:`.snapshot`), so platforms without
``fork`` — or an explicit ``start_method="spawn"`` — work identically.

Crash supervision (:mod:`.supervisor`) rides on two extras threaded
through the pool initializer: a shared **heartbeat array** (two doubles
per shard: monotonic start stamp + worker pid, written by
:func:`_run_shard` just before compute, so the parent can tell started
shards from queued ones when the pool breaks, and reap hung workers by
pid) and a **generation** counter naming which pool rebuild a worker
belongs to (the ordinal scripted ``worker.init`` faults match on).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import List, Optional

from ..gcpause import gc_paused, reset_after_fork
from .snapshot import (EngineSnapshot, WorkerContext, WorkerInitError,
                       execute_process_fault)

# Per-process cache: each worker deserializes the snapshot once, in its
# pool initializer, and serves every subsequent shard from it.
_WORKER_CONTEXT: Optional[WorkerContext] = None
# Shared heartbeat array (None when unsupervised): slot 2i is the
# monotonic stamp of shard i's latest start, slot 2i+1 the stamping pid.
_HEARTBEAT = None
# Reload rendezvous (None when the pool was built without reload
# support): a Barrier(jobs) shipped through the pool initializer — the
# only channel that can carry a synchronization primitive to both fork
# and spawn workers.
_RELOAD_BARRIER = None


def _init_worker(blob: bytes, heartbeat=None, generation: int = 0,
                 reload_barrier=None) -> None:
    global _WORKER_CONTEXT, _HEARTBEAT, _RELOAD_BARRIER
    # A fork inherits the parent's collector pause; a worker outlives
    # the analysis that forked it, so it must collect between shards.
    reset_after_fork()
    _HEARTBEAT = heartbeat
    _RELOAD_BARRIER = reload_barrier
    context = WorkerContext(blob)
    injector = (context._resilience_template.injector
                if context._resilience_template is not None else None)
    if injector is not None:
        # Scripted initializer crashes match on the pool generation:
        # ``attempts: 1`` kills generation 0's workers and lets the
        # rebuilt generation 1 through; ``attempts: -1`` poisons every
        # rebuild until the supervisor's restart budget runs out.
        fault = injector.process_fault("worker.init", generation,
                                       generation)
        if fault is not None and fault.action != "corrupt-outcome":
            execute_process_fault(fault)
    _WORKER_CONTEXT = context


def _run_shard(index: int, attempt: int = 0):
    if _WORKER_CONTEXT is None:
        # The pool initializer never completed in this process; without
        # this guard the shard dies with a bare AttributeError nobody
        # can attribute.  SnapshotError-family so the serial fallback
        # and the supervisor both classify it as pool infrastructure.
        raise WorkerInitError(
            f"shard {index} dispatched to pid {os.getpid()} whose pool "
            f"initializer failed: no worker context (snapshot "
            f"deserialization or initializer crash)")
    if _HEARTBEAT is not None:
        _HEARTBEAT[2 * index] = time.monotonic()
        _HEARTBEAT[2 * index + 1] = float(os.getpid())
    with gc_paused():
        return _WORKER_CONTEXT.run_shard(index, attempt)


def _reload_worker(blob: bytes, timeout: float) -> int:
    """Swap this worker's context for a new snapshot.

    Every worker of the pool runs one of these concurrently and blocks
    at the shared barrier, which is what guarantees the executor hands
    exactly one reload task to each of the ``jobs`` workers (a free
    worker cannot take a second task while its first is still parked at
    the barrier).  The new context only installs after the barrier
    releases — a broken rendezvous (dead worker, timeout) leaves every
    worker on its old snapshot and surfaces as ``BrokenBarrierError``,
    which :meth:`PersistentWorkerPool.reload` turns into "rebuild the
    pool instead"."""
    global _WORKER_CONTEXT
    if _RELOAD_BARRIER is None:
        raise WorkerInitError(
            f"reload dispatched to pid {os.getpid()} of a pool built "
            f"without a reload barrier")
    context = WorkerContext(blob)
    _RELOAD_BARRIER.wait(timeout)
    _WORKER_CONTEXT = context
    return os.getpid()


def pick_start_method(requested: Optional[str] = None) -> str:
    """``requested`` if given, else fork when available, else spawn."""
    available = mp.get_all_start_methods()
    if requested is not None:
        if requested not in available:
            raise ValueError(
                f"start method {requested!r} unavailable "
                f"(have: {', '.join(available)})")
        return requested
    return "fork" if "fork" in available else "spawn"


class PersistentWorkerPool:
    """``jobs`` long-lived workers, one snapshot shipment each."""

    def __init__(self, snapshot: EngineSnapshot, jobs: int,
                 start_method: Optional[str] = None,
                 heartbeat=None, generation: int = 0) -> None:
        self.snapshot = snapshot
        self.jobs = jobs
        self.start_method = pick_start_method(start_method)
        self.generation = generation
        self.reload_seconds = 0.0
        started = time.perf_counter()
        context = mp.get_context(self.start_method)
        # One reusable Barrier(jobs) shipped at worker startup; python
        # barriers reset after each full rendezvous, so the same object
        # serves every subsequent reload() of this pool.
        self._reload_barrier = context.Barrier(jobs)
        self._pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=_init_worker,
            initargs=(snapshot.blob, heartbeat, generation,
                      self._reload_barrier))
        self.startup_seconds = time.perf_counter() - started

    def reload(self, snapshot: EngineSnapshot,
               timeout: float = 60.0) -> bool:
        """Re-point every live worker at ``snapshot`` without paying
        process startup again.  ``jobs`` reload tasks rendezvous at the
        shared barrier (see :func:`_reload_worker`), so each worker
        swaps exactly once.  Returns False — with every worker still on
        the old snapshot — when the rendezvous fails (dead worker,
        broken pool, timeout); the caller should then rebuild."""
        started = time.perf_counter()
        futures = []
        pids = set()
        try:
            # submit itself raises on a broken or shut-down executor.
            for _ in range(self.jobs):
                futures.append(self._pool.submit(
                    _reload_worker, snapshot.blob, timeout))
            for future in futures:
                pids.add(future.result(timeout=timeout + 30.0))
        except Exception:
            for future in futures:
                future.cancel()
            return False
        if len(pids) != self.jobs:
            return False
        self.snapshot = snapshot
        self.reload_seconds = time.perf_counter() - started
        return True

    def submit(self, index: int, attempt: int = 0):
        """Submit one shard; returns the future.  The supervisor's
        entry point — it owns retry/rebuild policy, the pool only
        executes."""
        return self._pool.submit(_run_shard, index, attempt)

    def run_shards(self, count: int, on_outcome=None) -> List:
        """Run shards ``0..count-1``; outcomes return in shard order
        regardless of completion order.  A worker exception (a fault
        with no resilience context, mirroring the serial path) is
        re-raised after the remaining futures are cancelled.

        ``on_outcome``, when given, is called as
        ``on_outcome(done_count, total)`` after each completion — a
        progress hook (completion order, so for display only; it must
        not influence the merge)."""
        futures = {self.submit(index): index for index in range(count)}
        outcomes: List = [None] * count
        done = 0
        try:
            for future in as_completed(futures):
                outcomes[futures[future]] = future.result()
                done += 1
                if on_outcome is not None:
                    on_outcome(done, count)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return outcomes

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class PoolLease:
    """One worker pool amortized across many runs/apps.

    ``acquire(snapshot)`` hands back a ready pool: the cached one
    re-pointed at the new snapshot via :meth:`PersistentWorkerPool
    .reload` when possible, a fresh build otherwise (first call, or a
    failed rendezvous — the broken pool is torn down first).  The lease
    tracks how often each path was taken (``builds`` / ``reloads``) so
    benchmarks can report amortization honestly.

    Leased pools are **unsupervised**: no heartbeat array, no
    :class:`~.supervisor.PoolSupervisor` retry/rebuild policy.  That is
    the deliberate trade — supervision sizes its heartbeat per run and
    shuts the pool down in its own ``finally``, which is exactly what
    reuse must avoid — so the lease path is for benchmarking and batch
    sweeps over a trusted corpus, not for crash-resilient production
    runs.
    """

    def __init__(self, jobs: int,
                 start_method: Optional[str] = None) -> None:
        self.jobs = jobs
        self.start_method = start_method
        self.pool: Optional[PersistentWorkerPool] = None
        self.builds = 0
        self.reloads = 0

    def acquire(self, snapshot: EngineSnapshot) -> PersistentWorkerPool:
        if self.pool is not None:
            if self.pool.reload(snapshot):
                self.reloads += 1
                return self.pool
            self.invalidate()
        self.pool = PersistentWorkerPool(snapshot, self.jobs,
                                         self.start_method)
        self.builds += 1
        return self.pool

    def invalidate(self) -> None:
        if self.pool is not None:
            pool, self.pool = self.pool, None
            pool.shutdown()

    def close(self) -> None:
        self.invalidate()

    def __enter__(self) -> "PoolLease":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
