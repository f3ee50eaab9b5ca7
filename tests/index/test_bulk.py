"""Unit tests for STR bulk loading."""

import random

import pytest

from repro.geometry import Box3
from repro.reference.bulk import str_bulk_load
from repro.reference.rstar import RStarTree


def random_items(n, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, 200), rng.uniform(0, 200)
        z = rng.choice([0.0, 4.0, 8.0, 12.0])
        out.append((i, Box3(x, y, z, x + 2, y + 2, z + 0.01)))
    return out


class TestBulkLoad:
    def test_empty(self):
        t = str_bulk_load([])
        assert len(t) == 0

    def test_single(self):
        t = str_bulk_load([("a", Box3(0, 0, 0, 1, 1, 1))])
        assert list(t) == ["a"]
        assert t.height == 1

    @pytest.mark.parametrize("n", [5, 20, 21, 100, 399, 1000])
    def test_all_items_present(self, n):
        items = random_items(n, seed=n)
        t = str_bulk_load(items, fanout=20)
        assert sorted(t) == list(range(n))

    @pytest.mark.parametrize("n", [50, 400])
    def test_valid_structure(self, n):
        t = str_bulk_load(random_items(n, seed=n + 7), fanout=10)
        problems = [p for p in t.validate() if "fill" not in p]
        # STR packing may leave one under-filled node per level; all
        # other invariants must hold exactly.
        assert problems == []

    def test_search_matches_brute_force(self):
        items = random_items(300, seed=2)
        t = str_bulk_load(items, fanout=16)
        probe = Box3(50, 50, 0, 120, 120, 5)
        expected = sorted(i for i, b in items if b.intersects(probe))
        assert sorted(t.items_in_box(probe)) == expected

    def test_packed_tree_is_shallower_or_equal(self):
        items = random_items(500, seed=3)
        packed = str_bulk_load(items, fanout=10)
        dynamic = RStarTree(fanout=10)
        for i, b in items:
            dynamic.insert(i, b)
        assert packed.height <= dynamic.height

    def test_dynamic_ops_after_bulk_load(self):
        items = random_items(100, seed=4)
        t = str_bulk_load(items, fanout=10)
        t.insert(1000, Box3(5, 5, 0, 6, 6, 0.01))
        assert 1000 in set(t)
        i, b = items[0]
        assert t.delete(i, b)
        assert i not in set(t)
        assert len(t) == 100
