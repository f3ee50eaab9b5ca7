"""Sort-Tile-Recursive (STR) bulk loading — the "packed R*-tree".

The paper packs the tree at construction time (Section V-A, [17]).  STR
sorts items by x, slices into vertical slabs, sorts each slab by y,
slices again, then by z, and packs consecutive runs of ``fanout`` items
into leaves; upper levels are packed recursively the same way.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.errors import IndexError_
from repro.geometry.rect import Box3
from repro.reference.rstar import Entry, RStarTree, TreeNode


def str_bulk_load(
    items: Sequence[tuple[Any, Box3]], fanout: int = 20
) -> RStarTree:
    """Build a packed tree from ``(item, box)`` pairs.

    The resulting tree is a valid :class:`RStarTree`: subsequent inserts
    and deletes use the normal R* algorithms.
    """
    tree = RStarTree(fanout=fanout)
    if not items:
        return tree
    entries = [Entry(box, item=item) for item, box in items]
    nodes = _pack_level(entries, fanout, is_leaf=True)
    while len(nodes) > 1:
        upper_entries = [Entry(n.box, child=n) for n in nodes]
        nodes = _pack_level(upper_entries, fanout, is_leaf=False)
    tree.root = nodes[0]
    tree.root.parent = None
    tree.size = len(entries)
    return tree


def _pack_level(
    entries: list[Entry], fanout: int, is_leaf: bool
) -> list[TreeNode]:
    """Tile one level of entries into nodes of at most ``fanout``."""
    if not entries:
        raise IndexError_("cannot pack an empty level")
    n = len(entries)
    n_nodes = math.ceil(n / fanout)
    # Number of vertical slabs along x, then runs along y inside a slab.
    n_slabs = math.ceil(math.sqrt(n_nodes))
    entries = sorted(entries, key=lambda e: e.box.center[0])
    slab_size = math.ceil(n / n_slabs)
    nodes: list[TreeNode] = []
    for i in range(0, n, slab_size):
        slab = sorted(
            entries[i : i + slab_size],
            key=lambda e: (e.box.center[2], e.box.center[1]),
        )
        for j in range(0, len(slab), fanout):
            node = TreeNode(is_leaf=is_leaf, entries=slab[j : j + fanout])
            for e in node.entries:
                if e.child is not None:
                    e.child.parent = node
            nodes.append(node)
    return nodes
