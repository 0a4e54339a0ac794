"""Taint-carrier detection (paper §4.1.1).

A *taint carrier* is an object whose internal state holds tainted data.
Passing a carrier to a sink is reported even though the tainted value
itself is not the argument.  The algorithm is the paper's, verbatim:

1. for a store ``st``, let ``I_st`` be the points-to set of its base;
2. for a sink invocation ``sk``, let ``I*_sk`` be the instance keys
   reachable in the heap graph from the points-to sets of its sensitive
   actual parameters (bounded by the nested-taint depth of §6.2.3);
3. synthesize the HSDG edge ``st → sk`` iff ``I_st ∩ I*_sk ≠ ∅``.

The index below precomputes, per rule, the map from instance key to the
sink statements whose ``I*`` contains it, so step 3 is a set lookup at
each tainted store."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..pointer.heapgraph import HeapGraph
from ..pointer.keys import InstanceKey
from ..sdg.hsdg import DirectEdges
from ..sdg.noheap import CallSite, NoHeapSDG, StoreSite
from ..sdg.tabulation import RuleAdapter


class CarrierIndex:
    """Per-rule instance-key → sink-sites index."""

    def __init__(self, sdg: NoHeapSDG, direct: DirectEdges,
                 heap_graph: HeapGraph, adapter: RuleAdapter,
                 max_nested_depth: Optional[int]) -> None:
        self.sdg = sdg
        self.direct = direct
        self.heap_graph = heap_graph
        self.adapter = adapter
        self.max_nested_depth = max_nested_depth
        # Set when the nested-depth bound left some sink's carriers
        # unsearched (the §6.2.3 cut the taint engine records).
        self.truncated = False
        self._by_ikey: Dict[InstanceKey, List[Tuple[CallSite, str]]] = {}
        self._build()

    def _build(self) -> None:
        for sites in self.sdg.call_sites.values():
            for site in sites:
                vulnerable, _, sink_display = self.adapter.classify(site)
                if sink_display is None:
                    continue
                roots: Set[InstanceKey] = set()
                for idx, arg in enumerate(site.call.args):
                    if vulnerable == () or idx in (vulnerable or ()):
                        roots |= self.direct.points_to(site.stmt.method,
                                                       arg)
                if not roots:
                    continue
                reachable, cut = self.heap_graph.reachable(
                    roots, self.max_nested_depth)
                self.truncated = self.truncated or cut
                for ikey in reachable:
                    self._by_ikey.setdefault(ikey, []).append(
                        (site, sink_display))

    def sinks_for_store(self, store: StoreSite,
                        eff_base: Optional[Tuple[str, str]] = None
                        ) -> List[Tuple[CallSite, str]]:
        """Sink sites receiving a carrier the store writes into.

        ``eff_base`` narrows the base to the clone-precise (method, var)
        resolved during hit replay (paper §4.1.1's per-clone edge).
        """
        if store.base is None:
            return []
        if eff_base is not None:
            base_pts = self.direct.points_to(*eff_base)
        else:
            base_pts = self.direct.points_to(store.stmt.method, store.base)
        out: List[Tuple[CallSite, str]] = []
        seen: Set[Tuple[Tuple[str, int], str]] = set()
        for ikey in base_pts:
            for site, display in self._by_ikey.get(ikey, []):
                token = (site.key, display)
                if token not in seen:
                    seen.add(token)
                    out.append((site, display))
        return out

    def sinks_for_object(self, method: str,
                         var: str) -> List[Tuple[CallSite, str]]:
        """Sink sites receiving (state reachable from) ``var``'s objects —
        used for by-reference sources."""
        out: List[Tuple[CallSite, str]] = []
        seen: Set[Tuple[Tuple[str, int], str]] = set()
        for ikey in self.direct.points_to(method, var):
            for site, display in self._by_ikey.get(ikey, []):
                token = (site.key, display)
                if token not in seen:
                    seen.add(token)
                    out.append((site, display))
        return out
