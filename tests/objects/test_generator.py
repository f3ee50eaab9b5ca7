"""Unit tests for the object generator (paper Section V-A parameters)."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.geometry import Point
from repro.objects import ObjectGenerator
from repro.reference.subregions import subregions


class TestGeneration:
    def test_population_size(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=20, seed=1)
        pop = gen.generate(25)
        assert len(pop) == 25

    def test_instance_count_and_mass(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=3.0, n_instances=50, seed=2)
        obj = gen.generate_one()
        assert len(obj) == 50
        assert obj.instances.mass == pytest.approx(1.0)

    def test_instances_inside_region(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=4.0, n_instances=100, seed=3)
        for _ in range(10):
            obj = gen.generate_one()
            d = np.hypot(
                obj.instances.xy[:, 0] - obj.region.center.x,
                obj.instances.xy[:, 1] - obj.region.center.y,
            )
            assert (d <= obj.region.radius + 1e-9).all()

    def test_instances_inside_partitions(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=4.0, n_instances=60, seed=4)
        for _ in range(5):
            obj = gen.generate_one()
            subs = subregions(obj, small_mall, gen.grid)
            assert sum(s.mass for s in subs) == pytest.approx(1.0)

    def test_gaussian_spread_matches_sigma(self, small_mall):
        # sigma = diameter/6; with many instances the sample std should be
        # in that ballpark (truncation shrinks it slightly).
        gen = ObjectGenerator(small_mall, radius=6.0, n_instances=400, seed=5)
        # place at a room center so walls don't clip the distribution
        part = small_mall.partition("f0_room_0L1")
        cx, cy = part.bounds.center
        obj = gen.generate_one(center=Point(cx, cy, 0))
        sigma = obj.region.diameter / 6.0
        sx = obj.instances.xy[:, 0].std()
        assert 0.5 * sigma <= sx <= 1.3 * sigma

    def test_zero_radius_object(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=0.0, n_instances=10, seed=6)
        obj = gen.generate_one()
        assert np.allclose(obj.instances.xy, obj.instances.xy[0])

    def test_determinism(self, small_mall):
        a = ObjectGenerator(small_mall, radius=3.0, n_instances=10, seed=7).generate(5)
        b = ObjectGenerator(small_mall, radius=3.0, n_instances=10, seed=7).generate(5)
        for oid in a.ids():
            assert np.allclose(a.get(oid).instances.xy, b.get(oid).instances.xy)

    def test_ids_unique_and_sequential(self, small_mall):
        gen = ObjectGenerator(small_mall, seed=8, n_instances=5)
        pop = gen.generate(3)
        assert pop.ids() == ["o1", "o2", "o3"]

    def test_explicit_center(self, small_mall):
        gen = ObjectGenerator(small_mall, radius=2.0, n_instances=10, seed=9)
        center = small_mall.random_point(seed=11)
        obj = gen.generate_one(center=center)
        assert obj.region.center == center


class TestValidation:
    def test_bad_radius(self, small_mall):
        with pytest.raises(ReproError):
            ObjectGenerator(small_mall, radius=-1.0)

    def test_bad_instances(self, small_mall):
        with pytest.raises(ReproError):
            ObjectGenerator(small_mall, n_instances=0)
