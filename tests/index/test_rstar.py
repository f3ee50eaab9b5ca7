"""Unit tests for the R*-tree (insert/delete/search + invariants)."""

import random

import pytest

from repro.errors import IndexError_
from repro.geometry import Box3
from repro.reference.rstar import RStarTree


def box_at(x, y, z=0.0, size=1.0):
    return Box3(x, y, z, x + size, y + size, z + 0.01)


def random_boxes(n, seed=0, extent=100.0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, extent), rng.uniform(0, extent)
        z = rng.choice([0.0, 4.0, 8.0])
        out.append((i, box_at(x, y, z, size=rng.uniform(0.5, 5.0))))
    return out


def brute_force_hits(items, probe):
    return sorted(i for i, b in items if b.intersects(probe))


class TestBasics:
    def test_tiny_fanout_rejected(self):
        with pytest.raises(IndexError_):
            RStarTree(fanout=2)

    def test_empty_tree(self):
        t = RStarTree()
        assert len(t) == 0
        assert t.items_in_box(box_at(0, 0)) == []
        assert t.height == 1

    def test_insert_and_find(self):
        t = RStarTree(fanout=4)
        t.insert("a", box_at(0, 0))
        t.insert("b", box_at(10, 10))
        assert len(t) == 2
        assert t.items_in_box(box_at(-0.5, -0.5)) == ["a"]

    def test_iteration_yields_all(self):
        t = RStarTree(fanout=4)
        for i, b in random_boxes(50):
            t.insert(i, b)
        assert sorted(t) == list(range(50))


class TestSearchCorrectness:
    @pytest.mark.parametrize("n,fanout", [(30, 4), (200, 8), (500, 20)])
    def test_matches_brute_force(self, n, fanout):
        items = random_boxes(n, seed=n)
        t = RStarTree(fanout=fanout)
        for i, b in items:
            t.insert(i, b)
        rng = random.Random(99)
        for _ in range(25):
            probe = box_at(
                rng.uniform(-5, 100), rng.uniform(-5, 100),
                rng.choice([0.0, 4.0]), size=rng.uniform(1, 20),
            )
            assert sorted(t.items_in_box(probe)) == brute_force_hits(items, probe)

    def test_traverse_with_true_predicate_visits_everything(self):
        items = random_boxes(100, seed=5)
        t = RStarTree(fanout=8)
        for i, b in items:
            t.insert(i, b)
        got = sorted(e.item for e in t.traverse(lambda node: True))
        assert got == list(range(100))

    def test_traverse_prunes(self):
        items = random_boxes(100, seed=6)
        t = RStarTree(fanout=8)
        for i, b in items:
            t.insert(i, b)
        got = list(t.traverse(lambda node: False))
        assert got == []


class TestInvariants:
    @pytest.mark.parametrize("n", [10, 100, 400])
    def test_invariants_after_inserts(self, n):
        t = RStarTree(fanout=8)
        for i, b in random_boxes(n, seed=n + 1):
            t.insert(i, b)
        assert t.validate() == []

    def test_invariants_after_mixed_workload(self):
        items = random_boxes(300, seed=3)
        t = RStarTree(fanout=8)
        alive = {}
        rng = random.Random(17)
        for i, b in items:
            t.insert(i, b)
            alive[i] = b
            if rng.random() < 0.3 and alive:
                victim = rng.choice(sorted(alive))
                assert t.delete(victim, alive.pop(victim))
        assert t.validate() == []
        assert sorted(t) == sorted(alive)

    def test_height_grows(self):
        t = RStarTree(fanout=4)
        for i, b in random_boxes(100, seed=8):
            t.insert(i, b)
        assert t.height >= 3


class TestDeletion:
    def test_delete_missing_returns_false(self):
        t = RStarTree(fanout=4)
        t.insert("a", box_at(0, 0))
        assert not t.delete("zzz", box_at(0, 0))
        assert len(t) == 1

    def test_delete_all(self):
        items = random_boxes(150, seed=4)
        t = RStarTree(fanout=8)
        for i, b in items:
            t.insert(i, b)
        for i, b in items:
            assert t.delete(i, b)
        assert len(t) == 0
        assert t.validate() == []

    def test_root_shrinks_after_mass_delete(self):
        items = random_boxes(200, seed=12)
        t = RStarTree(fanout=8)
        for i, b in items:
            t.insert(i, b)
        tall = t.height
        for i, b in items[:190]:
            t.delete(i, b)
        assert t.height <= tall
        assert sorted(t) == sorted(i for i, _ in items[190:])
        assert t.validate() == []

    def test_search_correct_after_deletions(self):
        items = random_boxes(120, seed=13)
        t = RStarTree(fanout=6)
        for i, b in items:
            t.insert(i, b)
        removed = {i for i, _ in items[::3]}
        for i, b in items:
            if i in removed:
                t.delete(i, b)
        kept = [(i, b) for i, b in items if i not in removed]
        probe = Box3(0, 0, 0, 60, 60, 10)
        assert sorted(t.items_in_box(probe)) == brute_force_hits(kept, probe)
