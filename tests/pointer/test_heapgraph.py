"""Heap-graph tests (paper §4.1.1)."""

from repro.pointer import HeapGraph
from tests.pointer.test_solver import analyze


def build():
    pa = analyze("""
class Leaf { }
class Inner { Object leaf; }
class Outer { Object inner; }
class Main {
  static void main() {
    Outer o = new Outer();
    Inner i = new Inner();
    Leaf l = new Leaf();
    o.inner = i;
    i.leaf = l;
  }
}""")
    hg = HeapGraph(pa)
    outer = next(iter(pa.points_to_var("Main.main/0", "o.1")))
    inner = next(iter(pa.points_to_var("Main.main/0", "i.1")))
    leaf = next(iter(pa.points_to_var("Main.main/0", "l.1")))
    return hg, outer, inner, leaf


def test_successors_one_step():
    hg, outer, inner, leaf = build()
    assert hg.successors(outer) == {inner}
    assert hg.successors(inner) == {leaf}
    assert hg.successors(leaf) == set()


def test_reachable_unbounded():
    hg, outer, inner, leaf = build()
    assert hg.reachable([outer]) == ({outer, inner, leaf}, False)


def test_reachable_depth_zero_is_roots_only():
    hg, outer, inner, leaf = build()
    assert hg.reachable([outer], max_depth=0) == ({outer}, True)


def test_reachable_depth_one():
    hg, outer, inner, leaf = build()
    assert hg.reachable([outer], max_depth=1) == ({outer, inner}, True)


def test_reachable_depth_two_covers_all():
    hg, outer, inner, leaf = build()
    # Nothing lies past the bound: the sweep is complete, not cut.
    assert hg.reachable([outer], max_depth=2) == \
        ({outer, inner, leaf}, False)


def test_reachable_multiple_roots():
    hg, outer, inner, leaf = build()
    assert hg.reachable([inner, leaf], max_depth=0) == \
        ({inner, leaf}, False)


def test_cycle_terminates():
    pa = analyze("""
class Node { Object next; }
class Main {
  static void main() {
    Node a = new Node();
    Node b = new Node();
    a.next = b;
    b.next = a;
  }
}""")
    hg = HeapGraph(pa)
    a = next(iter(pa.points_to_var("Main.main/0", "a.1")))
    assert len(hg.reachable([a])[0]) == 2
