"""An in-memory R*-tree over 3-D boxes (Beckmann et al., SIGMOD 1990).

The paper's tree tier "adapts the R*-tree [3] to index all indoor
partitions" and uses a packed main-memory variant with fanout 20
(Section V-A).  This is a from-scratch implementation with the three R*
ingredients:

* **ChooseSubtree** — minimum overlap enlargement at the leaf level,
  minimum volume enlargement above;
* **Split** — axis by minimum margin sum, distribution by minimum
  overlap (ties: minimum volume);
* **Forced reinsert** — on first overflow per level per insertion, the
  30% of entries farthest from the node's center are reinserted.

The tree is payload-generic: an entry couples a :class:`Box3` with an
arbitrary item.  Deletion uses item identity (``==``) within the
matching box.  :func:`repro.reference.bulk.str_bulk_load` provides the
packed construction.  No run path builds one: the index reads its units
through the columnar table, and :class:`repro.reference.tree.IndRTree`
packs this tree over them for the reference walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import IndexError_
from repro.geometry.rect import Box3

DEFAULT_FANOUT = 20
REINSERT_FRACTION = 0.3


@dataclass
class Entry:
    """A box plus either a child node (internal) or a payload (leaf)."""

    box: Box3
    child: "TreeNode | None" = None
    item: Any = None


@dataclass
class TreeNode:
    """One R*-tree node."""

    is_leaf: bool
    entries: list[Entry] = field(default_factory=list)
    parent: "TreeNode | None" = None

    @property
    def box(self) -> Box3:
        """The node's MBR (union of entry boxes)."""
        if not self.entries:
            raise IndexError_("empty node has no MBR")
        out = self.entries[0].box
        for e in self.entries[1:]:
            out = out.union(e.box)
        return out

    def level_in(self, tree: "RStarTree") -> int:
        """Depth of this node (root = 0)."""
        level = 0
        node = self
        while node.parent is not None:
            node = node.parent
            level += 1
        return level


class RStarTree:
    """A dynamic R*-tree.

    Parameters
    ----------
    fanout:
        Maximum entries per node (paper: 20).  Minimum fill is 40%.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 4:
            raise IndexError_("fanout must be >= 4")
        self.fanout = fanout
        self.min_fill = max(2, math.ceil(0.4 * fanout))
        self.root = TreeNode(is_leaf=True)
        self.size = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def insert(self, item: Any, box: Box3) -> None:
        """Insert a payload with its MBR."""
        self._insert_entry(Entry(box, item=item), reinserted_levels=set())
        self.size += 1

    def delete(self, item: Any, box: Box3) -> bool:
        """Remove one entry matching ``item`` whose box intersects
        ``box``.  Returns False when not found."""
        leaf = self._find_leaf(self.root, item, box)
        if leaf is None:
            return False
        leaf.entries = [e for e in leaf.entries if e.item != item]
        self._condense(leaf)
        # Shrink the root when it degenerates to a single internal child.
        while (
            not self.root.is_leaf
            and len(self.root.entries) == 1
        ):
            self.root = self.root.entries[0].child  # type: ignore[assignment]
            self.root.parent = None
        self.size -= 1
        return True

    def items_in_box(self, box: Box3) -> list[Any]:
        """All payloads whose boxes intersect ``box``."""
        return [e.item for e in self._intersecting_entries(self.root, box)]

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Any]:
        yield from (e.item for e in self._all_leaf_entries(self.root))

    def traverse(
        self, descend: Callable[[TreeNode], bool]
    ) -> Iterator[Entry]:
        """Yield leaf entries of every node the predicate descends into.

        ``descend(node)`` is consulted per node; the caller prunes by MBR
        (e.g. with a skeleton-distance bound, Algorithm 4).
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not descend(node):
                continue
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(e.child for e in node.entries)  # type: ignore[misc]

    @property
    def height(self) -> int:
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.entries[0].child  # type: ignore[assignment]
            h += 1
        return h

    def validate(self, check_fill: bool = True) -> list[str]:
        """Structural invariant check; returns problem descriptions.

        ``check_fill=False`` skips the minimum-fill test — STR-packed
        trees legitimately leave one under-filled node per level.
        """
        problems: list[str] = []
        leaf_depths: set[int] = set()

        def rec(node: TreeNode, depth: int) -> None:
            if (
                check_fill
                and node is not self.root
                and not (self.min_fill <= len(node.entries) <= self.fanout)
            ):
                problems.append(
                    f"node fill {len(node.entries)} outside "
                    f"[{self.min_fill}, {self.fanout}]"
                )
            if len(node.entries) > self.fanout:
                problems.append("node overflow")
            if node.is_leaf:
                leaf_depths.add(depth)
                return
            for e in node.entries:
                if e.child is None:
                    problems.append("internal entry without child")
                    continue
                if e.child.parent is not node:
                    problems.append("broken parent pointer")
                if e.child.entries and not e.box.contains_box(e.child.box):
                    problems.append("entry box does not contain child MBR")
                rec(e.child, depth + 1)

        rec(self.root, 0)
        if len(leaf_depths) > 1:
            problems.append(f"leaves at multiple depths: {leaf_depths}")
        count = sum(1 for _ in self)
        if count != self.size:
            problems.append(f"size {self.size} != leaf entry count {count}")
        return problems

    # ------------------------------------------------------------------
    # insertion machinery
    # ------------------------------------------------------------------

    def _insert_entry(
        self,
        entry: Entry,
        reinserted_levels: set[int],
        target_level: int | None = None,
    ) -> None:
        """Insert an entry; ``target_level=None`` means "into a leaf",
        otherwise the entry (a subtree) goes into a node at that depth."""
        node = self._choose_subtree(entry.box, target_level)
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
        if len(node.entries) > self.fanout:
            self._overflow_treatment(node, reinserted_levels)
        else:
            self._adjust_upward(node)

    def _choose_subtree(self, box: Box3, target_level: int | None) -> TreeNode:
        node = self.root
        level = 0
        while not node.is_leaf:
            if target_level is not None and level == target_level:
                return node
            children_are_leaves = node.entries[0].child.is_leaf  # type: ignore[union-attr]
            if children_are_leaves:
                best = self._min_overlap_child(node, box)
            else:
                best = self._min_volume_child(node, box)
            node = best.child  # type: ignore[assignment]
            level += 1
        return node

    @staticmethod
    def _min_volume_child(node: TreeNode, box: Box3) -> Entry:
        def key(e: Entry):
            enlarged = e.box.union(box)
            return (enlarged.volume - e.box.volume, e.box.volume)

        return min(node.entries, key=key)

    @staticmethod
    def _min_overlap_child(node: TreeNode, box: Box3) -> Entry:
        def overlap(target: Entry, with_box: Box3) -> float:
            return sum(
                with_box.intersection_volume(other.box)
                for other in node.entries
                if other is not target
            )

        def key(e: Entry):
            enlarged = e.box.union(box)
            return (
                overlap(e, enlarged) - overlap(e, e.box),
                enlarged.volume - e.box.volume,
                e.box.volume,
            )

        return min(node.entries, key=key)

    def _overflow_treatment(
        self, node: TreeNode, reinserted_levels: set[int]
    ) -> None:
        # R* forced reinsert, applied at the leaf level (the classical
        # optimisation matters most there); internal overflow splits.
        level = node.level_in(self)
        if (
            node.is_leaf
            and node.parent is not None
            and level not in reinserted_levels
        ):
            reinserted_levels.add(level)
            self._forced_reinsert(node, reinserted_levels)
        else:
            self._split(node, reinserted_levels)

    def _forced_reinsert(
        self, node: TreeNode, reinserted_levels: set[int]
    ) -> None:
        center = node.box.center
        node.entries.sort(
            key=lambda e: _center_distance2(e.box.center, center),
            reverse=True,
        )
        k = max(1, int(REINSERT_FRACTION * len(node.entries)))
        evicted = node.entries[:k]
        node.entries = node.entries[k:]
        self._adjust_upward(node)
        for e in evicted:
            self._insert_entry(e, reinserted_levels)

    def _split(self, node: TreeNode, reinserted_levels: set[int]) -> None:
        group_a, group_b = self._rstar_split_groups(node.entries)
        if node.parent is None:
            # Root split: grow the tree by one level.
            new_root = TreeNode(is_leaf=False)
            left = TreeNode(is_leaf=node.is_leaf, entries=group_a)
            right = TreeNode(is_leaf=node.is_leaf, entries=group_b)
            for child_node in (left, right):
                for e in child_node.entries:
                    if e.child is not None:
                        e.child.parent = child_node
                child_node.parent = new_root
            new_root.entries = [
                Entry(left.box, child=left),
                Entry(right.box, child=right),
            ]
            self.root = new_root
            return
        parent = node.parent
        node.entries = group_a
        for e in group_a:
            if e.child is not None:
                e.child.parent = node
        sibling = TreeNode(is_leaf=node.is_leaf, entries=group_b, parent=parent)
        for e in group_b:
            if e.child is not None:
                e.child.parent = sibling
        # Refresh this node's entry box, then add the sibling.
        for e in parent.entries:
            if e.child is node:
                e.box = node.box
                break
        parent.entries.append(Entry(sibling.box, child=sibling))
        if len(parent.entries) > self.fanout:
            self._overflow_treatment(parent, reinserted_levels)
        else:
            self._adjust_upward(parent)

    def _rstar_split_groups(
        self, entries: list[Entry]
    ) -> tuple[list[Entry], list[Entry]]:
        """R* split: choose axis by margin, distribution by overlap."""
        m = self.min_fill
        best_axis = None
        best_margin = math.inf
        for dim in range(3):
            margin = 0.0
            for sort_key in (
                lambda e: e.box.side(dim)[0],
                lambda e: e.box.side(dim)[1],
            ):
                ordered = sorted(entries, key=sort_key)
                for k in range(m, len(ordered) - m + 1):
                    margin += _group_box(ordered[:k]).margin
                    margin += _group_box(ordered[k:]).margin
            if margin < best_margin:
                best_margin = margin
                best_axis = dim

        best_split: tuple[list[Entry], list[Entry]] | None = None
        best_quality = (math.inf, math.inf)
        for sort_key in (
            lambda e: e.box.side(best_axis)[0],
            lambda e: e.box.side(best_axis)[1],
        ):
            ordered = sorted(entries, key=sort_key)
            for k in range(m, len(ordered) - m + 1):
                a, b = ordered[:k], ordered[k:]
                box_a, box_b = _group_box(a), _group_box(b)
                quality = (
                    box_a.intersection_volume(box_b),
                    box_a.volume + box_b.volume,
                )
                if quality < best_quality:
                    best_quality = quality
                    best_split = (list(a), list(b))
        assert best_split is not None
        return best_split

    def _adjust_upward(self, node: TreeNode) -> None:
        """Refresh MBRs from ``node`` to the root."""
        while node.parent is not None:
            parent = node.parent
            for e in parent.entries:
                if e.child is node:
                    e.box = node.box
                    break
            node = parent

    # ------------------------------------------------------------------
    # deletion machinery
    # ------------------------------------------------------------------

    def _find_leaf(
        self, node: TreeNode, item: Any, box: Box3
    ) -> TreeNode | None:
        if node.is_leaf:
            for e in node.entries:
                if e.item == item:
                    return node
            return None
        for e in node.entries:
            if e.box.intersects(box):
                found = self._find_leaf(e.child, item, box)  # type: ignore[arg-type]
                if found is not None:
                    return found
        return None

    def _condense(self, node: TreeNode) -> None:
        """Propagate underflow upward, collecting orphans to reinsert."""
        orphans: list[tuple[Entry, bool, int]] = []
        height = self.height
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_fill:
                parent.entries = [e for e in parent.entries if e.child is not node]
                depth = node.level_in(self)
                for e in node.entries:
                    orphans.append((e, node.is_leaf, depth))
            else:
                for e in parent.entries:
                    if e.child is node:
                        e.box = node.box
                        break
            node = parent
        for entry, was_leaf, depth in orphans:
            if was_leaf:
                self._insert_entry(entry, reinserted_levels=set())
            else:
                # Reinsert a subtree at the depth that keeps leaves level
                # (corrected if the root grew/shrank meanwhile).
                new_height = self.height
                target = depth - (height - new_height)
                self._insert_entry(
                    entry,
                    reinserted_levels=set(),
                    target_level=max(0, target),
                )

    # ------------------------------------------------------------------
    # search machinery
    # ------------------------------------------------------------------

    def _intersecting_entries(
        self, node: TreeNode, box: Box3
    ) -> Iterator[Entry]:
        if node.is_leaf:
            for e in node.entries:
                if e.box.intersects(box):
                    yield e
            return
        for e in node.entries:
            if e.box.intersects(box):
                yield from self._intersecting_entries(e.child, box)  # type: ignore[arg-type]

    def _all_leaf_entries(self, node: TreeNode) -> Iterator[Entry]:
        if node.is_leaf:
            yield from node.entries
            return
        for e in node.entries:
            yield from self._all_leaf_entries(e.child)  # type: ignore[arg-type]


def _group_box(entries: list[Entry]) -> Box3:
    out = entries[0].box
    for e in entries[1:]:
        out = out.union(e.box)
    return out


def _center_distance2(
    a: tuple[float, float, float], b: tuple[float, float, float]
) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
