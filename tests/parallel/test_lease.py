"""Pool-lease tests: a leased (reused) worker pool reloads snapshots
into live workers instead of respawning them, stays byte-identical to
the serial sweep, and heals itself by rebuilding when broken."""

import gc
import multiprocessing as mp

import pytest

from repro import TAJ, TAJConfig
from repro.bounds import Budget
from repro.modeling import default_natives, prepare
from repro.obs import Observability
from repro.parallel import PersistentWorkerPool, PoolLease
from repro.parallel.snapshot import EngineSnapshot
from repro.pointer import ContextPolicy, PointerAnalysis
from repro.pointer.heapgraph import HeapGraph
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.taint import TaintEngine, default_rules

APP_A = """
class A0 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("a"));
  }
}
class A1 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery("q" + req.getParameter("u"));
  }
}
"""

APP_B = """
class B0 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("x"));
    resp.getWriter().println(req.getParameter("y"));
  }
}
class B1 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery(req.getParameter("z"));
  }
}
"""


def build_pieces(source):
    prepared = prepare([source])
    analysis = PointerAnalysis(prepared.program, ContextPolicy(),
                               natives=default_natives())
    analysis.solve()
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    return sdg, DirectEdges(sdg, analysis), HeapGraph(analysis)


@pytest.fixture(scope="module")
def apps():
    return build_pieces(APP_A), build_pieces(APP_B)


def run(pieces, jobs=1, lease=None, obs=None):
    sdg, direct, heap = pieces
    engine = TaintEngine(sdg, direct, heap, default_rules(), Budget(),
                         jobs=jobs, obs=obs, pool_lease=lease)
    return engine.run()


def keys(result):
    return [f.sort_key() for f in result.flows]


def test_lease_reuses_pool_across_apps_byte_identically(apps):
    pieces_a, pieces_b = apps
    ref_a, ref_b = run(pieces_a), run(pieces_b)
    with PoolLease(2) as lease:
        obs1, obs2, obs3 = (Observability() for _ in range(3))
        got_a = run(pieces_a, jobs=2, lease=lease, obs=obs1)
        got_b = run(pieces_b, jobs=2, lease=lease, obs=obs2)
        again_a = run(pieces_a, jobs=2, lease=lease, obs=obs3)
        assert keys(got_a) == keys(ref_a)
        assert keys(got_b) == keys(ref_b)
        assert keys(again_a) == keys(ref_a)
        assert lease.builds == 1
        assert lease.reloads == 2
        assert obs1.metrics.gauge_value("taint.pool.reused") == 0.0
        assert obs2.metrics.gauge_value("taint.pool.reused") == 1.0
        assert obs3.metrics.gauge_value("taint.pool.reused") == 1.0
    assert lease.pool is None  # closed


def test_reload_repoints_every_worker(apps):
    pieces_a, pieces_b = apps
    engine_a = TaintEngine(*pieces_a, default_rules(), Budget(), jobs=2)
    engine_a._rule_list = list(default_rules())
    from repro.parallel import plan_shards
    shards_a = plan_shards(pieces_a[0], engine_a._rule_list, "hybrid",
                           Budget(), "auto")
    snap_a = EngineSnapshot(engine_a, shards_a)
    pool = PersistentWorkerPool(snap_a, jobs=2)
    try:
        first = pool.run_shards(len(shards_a))
        assert all(out is not None for out in first)

        engine_b = TaintEngine(*pieces_b, default_rules(), Budget(),
                               jobs=2)
        engine_b._rule_list = list(default_rules())
        shards_b = plan_shards(pieces_b[0], engine_b._rule_list,
                               "hybrid", Budget(), "auto")
        snap_b = EngineSnapshot(engine_b, shards_b)
        assert pool.reload(snap_b) is True
        assert pool.snapshot is snap_b
        second = pool.run_shards(len(shards_b))
        serial = run(pieces_b)
        merged = engine_b._merge_outcomes(engine_b._rule_list, second)
        from repro.taint.engine import canonical_flows
        assert [f.sort_key() for f in canonical_flows(merged.flows)] \
            == keys(serial)
    finally:
        pool.shutdown()


def test_lease_rebuilds_after_broken_pool(apps):
    pieces_a, _ = apps
    ref = run(pieces_a)
    lease = PoolLease(2)
    try:
        got = run(pieces_a, jobs=2, lease=lease)
        assert keys(got) == keys(ref)
        # Break the pool out from under the lease; the next acquire's
        # reload rendezvous must fail and fall back to a rebuild.
        lease.pool._pool.shutdown(wait=True)
        got = run(pieces_a, jobs=2, lease=lease)
        assert keys(got) == keys(ref)
        assert lease.builds == 2
    finally:
        lease.close()


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="needs the fork start method")
def test_leased_workers_forked_mid_analysis_collect_garbage():
    """Workers forked inside an analysis inherit its collector pause;
    a leased pool outlives that analysis, so its workers must turn the
    collector back on and pause it only while running a shard."""
    config = TAJConfig.hybrid_unbounded().with_jobs(2, start_method="fork")
    with PoolLease(2, "fork") as lease:
        result = TAJ(config, pool_lease=lease).analyze_sources([APP_A])
        assert result.issues == 2
        assert lease.builds == 1
        pool = lease.pool._pool
        states = [pool.submit(gc.isenabled).result(timeout=60)
                  for _ in range(4)]
        assert states == [True] * 4
        assert gc.isenabled()
