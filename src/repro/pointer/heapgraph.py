"""The heap graph view of a pointer-analysis solution (paper §4.1.1).

A bipartite graph over instance keys and pointer keys: ``P -> I`` when P
may point to I, and ``I -> P`` when P is a field (or the array contents)
of I.  Taint-carrier detection walks this graph from sink arguments with
a bounded field-dereference depth (§6.2.3).

Adjacency is stored as **bitset ints** over a dense instance-key ID
space, so the one-step successor union and the reachability sweep are
bitwise ORs instead of per-element set operations.  Built from the
optimised solver the graph reuses the interner's global dense IDs
(:meth:`PointerAnalysis.iter_pts_bits` is zero-copy); built from a
solver with a foreign key family (the preserved seed baseline) it mints
its own local IDs, so the differential harness can run the identical
taint pipeline over both kernels.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .keys import FieldKey, decode_instance_bits

# The seed baseline uses its own FieldKey dataclass; both families are
# recognized structurally (an ``instance`` + ``fld`` pair).
from . import seedkeys


class HeapGraph:
    """Instance-key adjacency derived from points-to sets."""

    def __init__(self, analysis: object) -> None:
        self._fields_of: Dict[object, List[object]] = {}
        # field key -> bitset of the instance keys it may point to.
        self._pts_bits: Dict[object, int] = {}
        # Local dense-ID registry for foreign key families; ``None``
        # marks the interner's global ID space.
        self._table: Optional[List[object]] = None
        self._index: Optional[Dict[object, int]] = None
        iter_bits = getattr(analysis, "iter_pts_bits", None)
        if iter_bits is not None:
            # Optimised solver: points-to sets already are bitsets over
            # the interner's global dense ID space.
            field_types = (FieldKey,)
            items = iter_bits()
        else:
            # Foreign key family (the seed baseline): mint local dense
            # IDs on first sight and encode its plain sets.
            self._table = []
            self._index = {}
            bit_of = self._bit_of
            field_types = (FieldKey, seedkeys.FieldKey)
            items = ((key, sum(map(bit_of, pts)))
                     for key, pts in analysis.iter_pts())
        # iter_pts*() also yields keys merged away by the solver's cycle
        # elimination, so collapsed field keys keep their adjacency.
        for key, bits in items:
            if isinstance(key, field_types):
                self._fields_of.setdefault(key.instance, []).append(key)
                self._pts_bits[key] = self._pts_bits.get(key, 0) | bits

    def _bit_of(self, ikey: object) -> int:
        if self._table is None:
            return ikey.bit
        idx = self._index.get(ikey)
        if idx is None:
            idx = len(self._table)
            self._index[ikey] = idx
            self._table.append(ikey)
        return 1 << idx

    def _decode(self, bits: int) -> List[object]:
        if self._table is None:
            return decode_instance_bits(bits)
        table = self._table
        out: List[object] = []
        while bits:
            low = bits & -bits
            out.append(table[low.bit_length() - 1])
            bits ^= low
        return out

    def successors_bits(self, instance: object) -> int:
        """Bitset of the objects reachable through exactly one field
        dereference."""
        bits = 0
        pts = self._pts_bits
        for fkey in self._fields_of.get(instance, ()):
            bits |= pts.get(fkey, 0)
        return bits

    def successors(self, instance: object) -> Set[object]:
        """Objects reachable through exactly one field dereference."""
        return set(self._decode(self.successors_bits(instance)))

    def reachable(self, roots: Iterable[object],
                  max_depth: Optional[int] = None
                  ) -> Tuple[Set[object], bool]:
        """Objects reachable from ``roots`` (roots included), and
        whether ``max_depth`` cut the sweep short.

        ``max_depth`` bounds the number of field dereferences, per the
        nested-taint bound of §6.2.3; ``None`` means unbounded.  The
        sweep is a level-order BFS whose frontier and visited set are
        bitsets: each level costs one OR per frontier object plus one
        ``new & ~seen`` mask.  The sweep is cut when the level past the
        bound still holds unvisited objects.
        """
        bit_of = self._bit_of
        frontier = list(roots)
        seen = 0
        for root in frontier:
            seen |= bit_of(root)
        out: Set[object] = set(frontier)
        depth = 0
        while frontier:
            new_bits = 0
            for ikey in frontier:
                new_bits |= self.successors_bits(ikey)
            new_bits &= ~seen
            if not new_bits:
                break
            if depth == max_depth:
                return out, True
            seen |= new_bits
            frontier = self._decode(new_bits)
            out.update(frontier)
            depth += 1
        return out, False
