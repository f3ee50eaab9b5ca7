"""Unit tests for repro.objects.population."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.geometry import Circle, Point
from repro.objects import InstanceSet, ObjectGenerator, ObjectPopulation, UncertainObject


def make_obj(oid, x, y, floor=0):
    return UncertainObject(
        oid,
        Circle(Point(x, y, floor), 1.0),
        InstanceSet.uniform(np.array([[x, y]]), floor),
    )


class TestBasicOps:
    def test_insert_get_contains(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        pop.insert(make_obj("a", 5, 5))
        assert "a" in pop and len(pop) == 1
        assert pop.get("a").object_id == "a"

    def test_duplicate_insert_rejected(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        pop.insert(make_obj("a", 5, 5))
        with pytest.raises(ReproError):
            pop.insert(make_obj("a", 6, 6))

    def test_delete(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        pop.insert(make_obj("a", 5, 5))
        gone = pop.delete("a")
        assert gone.object_id == "a" and len(pop) == 0
        with pytest.raises(ReproError):
            pop.delete("a")

    def test_get_unknown_raises(self, five_rooms):
        with pytest.raises(ReproError):
            ObjectPopulation(five_rooms).get("zzz")

    def test_iteration(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        for i in range(3):
            pop.insert(make_obj(f"o{i}", 5 + i, 5))
        assert sorted(o.object_id for o in pop) == ["o0", "o1", "o2"]


class TestMove:
    def test_move_replaces_location(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        pop.insert(make_obj("a", 5, 5))
        new_region = Circle(Point(15, 5, 0), 1.0)
        new_instances = InstanceSet.uniform(np.array([[15.0, 5.0]]), 0)
        moved = pop.move("a", new_region, new_instances)
        assert moved.region.center == Point(15, 5, 0)
        assert len(pop) == 1
        assert pop.get("a").region.center.x == 15

    def test_move_unknown_raises(self, five_rooms):
        pop = ObjectPopulation(five_rooms)
        with pytest.raises(ReproError):
            pop.move("nope", Circle(Point(0, 0, 0), 1.0),
                     InstanceSet.uniform(np.array([[0.0, 0.0]]), 0))


class TestQueriesOverPopulation:
    def test_on_floor(self, two_floor_space):
        pop = ObjectPopulation(two_floor_space)
        pop.insert(make_obj("g", 5, 5, floor=0))
        pop.insert(make_obj("u", 5, 5, floor=1))
        assert [o.object_id for o in pop.on_floor(0)] == ["g"]
        assert [o.object_id for o in pop.on_floor(1)] == ["u"]

    def test_generator_integration(self, small_mall):
        pop = ObjectGenerator(small_mall, radius=2.0, n_instances=5, seed=1).generate(10)
        assert len(pop) == 10
        floors = {o.floor for o in pop}
        assert floors <= {0, 1}
