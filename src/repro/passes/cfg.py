"""CFG analyses: orderings, dominators, postdominators.

Dominators use the Cooper–Harvey–Kennedy iterative algorithm over reverse
postorder, which is near-linear on the small, reducible CFGs the builder
produces. Postdominators run the same algorithm on the reversed CFG with a
virtual exit joining all RET blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ocl.ir import Block, Kernel, Opcode, predecessors, reachable_blocks


def reverse_postorder(kernel: Kernel) -> list[Block]:
    """Reachable blocks in reverse postorder (entry first)."""
    return reachable_blocks(kernel)


@dataclass
class DomTree:
    """Immediate-dominator tree over the reachable blocks of a kernel."""

    idom: dict[int, Block]  # block id -> immediate dominator (entry -> entry)
    order: list[Block]  # reverse postorder
    _children: dict[int, list[Block]] = field(default_factory=dict)

    def dominates(self, a: Block, b: Block) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        node: Block | None = b
        while node is not None:
            if node is a:
                return True
            parent = self.idom.get(id(node))
            node = None if parent is node else parent
        return False

    def children(self, block: Block) -> list[Block]:
        if not self._children:
            self._children[id(self.order[0])] = []
            for node in self.order:
                parent = self.idom[id(node)]
                if parent is not node:
                    self._children.setdefault(id(parent), []).append(node)
        return self._children.get(id(block), [])

    def preorder(self) -> list[Block]:
        """Dominator-tree preorder walk starting at the entry."""
        out: list[Block] = []
        stack = [self.order[0]]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children(node)))
        return out


def dominators(kernel: Kernel) -> DomTree:
    order = reverse_postorder(kernel)
    index = {id(b): i for i, b in enumerate(order)}
    preds = predecessors(kernel)
    entry = order[0]
    idom: dict[int, Block] = {id(entry): entry}

    def intersect(a: Block, b: Block) -> Block:
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] > index[id(a)]:
                b = idom[id(b)]
        return a

    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            candidates = [
                p for p in preds[block] if id(p) in idom and id(p) in index
            ]
            if not candidates:
                continue
            new = candidates[0]
            for p in candidates[1:]:
                new = intersect(new, p)
            if idom.get(id(block)) is not new:
                idom[id(block)] = new
                changed = True
    return DomTree(idom, order)


#: Sentinel for "postdominated only by the virtual exit".
_VIRTUAL_EXIT = object()


@dataclass
class PostDomTree:
    """Immediate postdominators. ``immediate()`` returns None for blocks
    whose only postdominator is the virtual exit (RET blocks, or branches
    whose arms both return)."""

    _ipdom: dict[int, object]

    def immediate(self, block: Block) -> Block | None:
        val = self._ipdom.get(id(block))
        return None if val is _VIRTUAL_EXIT or val is None else val  # type: ignore[return-value]


def postdominators(kernel: Kernel) -> PostDomTree:
    """Immediate postdominators via CHK on the reversed CFG.

    Used by divergence analysis / Vortex codegen: the reconvergence point
    of a divergent branch is its immediate postdominator, where JOIN goes.
    """
    order = reverse_postorder(kernel)
    exits = [b for b in order
             if b.terminator is not None and b.terminator.op is Opcode.RET]
    cfg_preds = predecessors(kernel)

    # Postorder over the reversed CFG from the exits; reversing it gives
    # the RPO the CHK iteration wants.
    seen: set[int] = set()
    post: list[Block] = []

    def visit(block: Block) -> None:
        stack = [(block, iter(cfg_preds[block]))]
        seen.add(id(block))
        while stack:
            node, it = stack[-1]
            advanced = False
            for pred in it:
                if id(pred) not in seen:
                    seen.add(id(pred))
                    stack.append((pred, iter(cfg_preds[pred])))
                    advanced = True
                    break
            if not advanced:
                post.append(node)
                stack.pop()

    for ex in exits:
        if id(ex) not in seen:
            visit(ex)

    rorder = list(reversed(post))
    index = {id(b): i for i, b in enumerate(rorder)}
    ipdom: dict[int, object] = {id(ex): _VIRTUAL_EXIT for ex in exits}

    def intersect(a: object, b: object) -> object:
        if a is _VIRTUAL_EXIT or b is _VIRTUAL_EXIT:
            return _VIRTUAL_EXIT
        while a is not b:
            while index[id(a)] > index[id(b)]:  # type: ignore[arg-type]
                a = ipdom[id(a)]  # type: ignore[arg-type]
                if a is _VIRTUAL_EXIT:
                    return _VIRTUAL_EXIT
            while index[id(b)] > index[id(a)]:  # type: ignore[arg-type]
                b = ipdom[id(b)]  # type: ignore[arg-type]
                if b is _VIRTUAL_EXIT:
                    return _VIRTUAL_EXIT
        return a

    changed = True
    while changed:
        changed = False
        for block in rorder:
            if id(block) in {id(ex) for ex in exits}:
                continue
            processed = [
                s for s in block.successors
                if id(s) in index and id(s) in ipdom
            ]
            if not processed:
                continue
            new: object = processed[0]
            for succ in processed[1:]:
                new = intersect(new, succ)
            if ipdom.get(id(block)) is not new:
                ipdom[id(block)] = new
                changed = True

    return PostDomTree(ipdom)
