"""SSA construction (Cytron et al.): phi placement + renaming.

After :func:`to_ssa`, every variable in a method body has exactly one
definition.  Renamed versions are ``name.1``, ``name.2`` ...; version 0
(``name.0``) is the implicit "undefined at entry" value.  Parameters and
``this`` keep their original names (they are defined at entry).

The SSA form gives TAJ's pointer analysis its measure of flow sensitivity
for local points-to sets (paper §3.1, citing Hasti & Horwitz), and makes
the local data-dependence edges of the no-heap SDG a pure def-use lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..ir import Instruction, Method, Phi, Var
from .dominance import DominatorTree


@dataclass
class SSAInfo:
    """Def-use information for a method in SSA form."""

    def_site: Dict[Var, Instruction] = field(default_factory=dict)
    uses: Dict[Var, List[Instruction]] = field(default_factory=dict)


def to_ssa(method: Method) -> SSAInfo:
    """Convert ``method`` to SSA form in place and return def-use info."""
    if method.is_native or not method.blocks:
        return SSAInfo()
    dom = DominatorTree(method)

    # 1. Collect assignment sites per variable.
    def_blocks: Dict[Var, Set[int]] = {}
    all_vars: Set[Var] = set()
    for bid, block in method.blocks.items():
        for instr in block.instrs:
            for var in instr.defs():
                def_blocks.setdefault(var, set()).add(bid)
                all_vars.add(var)
            all_vars.update(instr.uses())

    entry_defined = set(method.param_names())
    if not method.is_static:
        entry_defined.add("this")

    # 2. Place phi nodes using iterated dominance frontiers.
    phis_in_block: Dict[int, List[Tuple[Var, Phi]]] = {}
    for var, blocks in def_blocks.items():
        worklist = list(blocks)
        placed: Set[int] = set()
        while worklist:
            bid = worklist.pop()
            for df in dom.frontier.get(bid, ()):
                if df in placed:
                    continue
                if len(method.blocks[df].preds) < 2:
                    continue
                phi = Phi(var)
                phi.iid = method.fresh_iid()
                method.blocks[df].instrs.insert(0, phi)
                phis_in_block.setdefault(df, []).append((var, phi))
                placed.add(df)
                if df not in blocks:
                    worklist.append(df)

    # 3. Rename along the dominator tree.
    counters: Dict[Var, int] = {}
    stacks: Dict[Var, List[Var]] = {}

    def top(var: Var) -> Var:
        stack = stacks.get(var)
        if stack:
            return stack[-1]
        return var if var in entry_defined else f"{var}.0"

    def fresh(var: Var) -> Var:
        counters[var] = counters.get(var, 0) + 1
        new = f"{var}.{counters[var]}"
        stacks.setdefault(var, []).append(new)
        return new

    pushed: Dict[int, List[Var]] = {}

    def rename_block(bid: int) -> None:
        block = method.blocks[bid]
        pushed[bid] = []
        for instr in block.instrs:
            if not isinstance(instr, Phi):
                instr.replace_uses({v: top(v) for v in instr.uses()})
            olds = instr.defs()
            if olds:
                old = olds[0]
                instr.replace_defs({old: fresh(old)})
                pushed[bid].append(old)
        for succ in block.succs:
            for var, phi in phis_in_block.get(succ, ()):
                phi.operands[bid] = top(var)

    def pop_block(bid: int) -> None:
        for var in pushed[bid]:
            stacks[var].pop()

    # Explicit preorder walk with post-visit pops.
    stack: List[Tuple[int, bool]] = [(method.entry_block, False)]
    while stack:
        bid, done = stack.pop()
        if done:
            pop_block(bid)
            continue
        rename_block(bid)
        stack.append((bid, True))
        for child in reversed(dom.children.get(bid, [])):
            stack.append((child, False))

    # 4. Prune dead phis (mostly versions of expression temporaries) so
    # downstream graphs don't carry noise nodes.
    _prune_dead_phis(method)

    # 5. Build def-use info.
    info = SSAInfo()
    for block in method.blocks.values():
        for instr in block.instrs:
            for var in instr.defs():
                info.def_site[var] = instr
            for var in instr.uses():
                info.uses.setdefault(var, []).append(instr)
    return info


def _prune_dead_phis(method: Method) -> None:
    """Iteratively remove phi nodes whose results are never used."""
    while True:
        used: Set[Var] = set()
        for block in method.blocks.values():
            for instr in block.instrs:
                used.update(instr.uses())
        removed = False
        for block in method.blocks.values():
            keep = []
            for instr in block.instrs:
                if isinstance(instr, Phi) and instr.lhs not in used:
                    removed = True
                else:
                    keep.append(instr)
            block.instrs = keep
        if not removed:
            return


def program_to_ssa(program) -> Dict[str, SSAInfo]:
    """Convert every method of a program to SSA; map qname -> SSAInfo."""
    out: Dict[str, SSAInfo] = {}
    for method in program.methods():
        out[method.qname] = to_ssa(method)
    return out
