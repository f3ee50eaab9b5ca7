"""Unit tests for repro.objects.instances."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.geometry import Point
from repro.objects import InstanceSet

FH = 4.0


def square_set():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return InstanceSet.uniform(xy, floor=0)


class TestConstruction:
    def test_uniform_probs(self):
        s = square_set()
        assert len(s) == 4
        assert s.probs.tolist() == [0.25] * 4
        assert s.mass == pytest.approx(1.0)

    def test_single(self):
        s = InstanceSet.single(Point(3, 4, 2))
        assert len(s) == 1 and s.floor == 2
        assert s.xy.tolist() == [[3, 4]]

    def test_bad_shapes_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((3, 3)), 0, np.full(3, 1 / 3))
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((3, 2)), 0, np.full(4, 0.25))

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((0, 2)), 0, np.zeros(0))

    def test_negative_probs_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((2, 2)), 0, np.array([1.5, -0.5]))

    def test_mass_above_one_rejected(self):
        with pytest.raises(ReproError):
            InstanceSet(np.zeros((2, 2)), 0, np.array([0.9, 0.9]))

    def test_partial_mass_allowed_for_subregions(self):
        s = InstanceSet(np.zeros((2, 2)), 0, np.array([0.1, 0.2]))
        assert s.mass == pytest.approx(0.3)


class TestReadOnly:
    def test_arrays_are_read_only(self):
        s = square_set()
        for array in (s.xy, s.probs):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_a_callers_array_is_copied_not_frozen(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        probs = np.array([0.5, 0.5])
        s = InstanceSet(xy, 0, probs)
        assert xy.flags.writeable and probs.flags.writeable
        assert not np.shares_memory(s.xy, xy)
        assert not np.shares_memory(s.probs, probs)
        xy[0, 0] = 9.0
        assert s.xy[0, 0] == 0.0

    def test_a_view_of_a_writeable_array_is_copied(self):
        base = np.array([[0.0, 0.0, 7.0], [1.0, 0.0, 7.0]])
        view = base[:, :2]
        view.flags.writeable = False
        s = InstanceSet.uniform(view, 0)
        assert base.flags.writeable
        assert not np.shares_memory(s.xy, base)

    def test_a_read_only_array_is_shared(self):
        s = square_set()
        again = InstanceSet(s.xy, s.floor, s.probs)
        assert again.xy is s.xy and again.probs is s.probs
        assert not s.subset(np.array([0, 1])).xy.flags.writeable

    def test_uniform_and_subset_keep_the_arrays_they_built(self, monkeypatch):
        """The probabilities ``uniform`` makes and the selections
        ``subset`` makes are the set's own from birth: sealed, not
        copied."""
        from repro.objects import instances

        sealed = []
        original = instances._sealed

        def sealing(values):
            out = original(values)
            sealed.append((values, out))
            return out

        monkeypatch.setattr(instances, "_sealed", sealing)
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        xy.flags.writeable = False
        s = InstanceSet.uniform(xy, 0)
        assert s.xy is xy
        s.subset(np.array([0, 2]))
        s.subset(np.array([True, False, True]))
        assert len(sealed) == 6
        for values, out in sealed:
            assert np.shares_memory(out, values)

    def test_uniform_still_copies_a_held_writeable_array(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        s = InstanceSet.uniform(xy, 0)
        assert xy.flags.writeable
        assert not np.shares_memory(s.xy, xy)
        xy[0, 0] = 9.0
        assert s.xy[0, 0] == 0.0


class TestSubset:
    def test_subset_keeps_raw_probs(self):
        s = square_set()
        sub = s.subset(np.array([True, False, True, False]))
        assert len(sub) == 2
        assert sub.mass == pytest.approx(0.5)

    def test_subset_by_indices(self):
        s = square_set()
        sub = s.subset(np.array([0, 3]))
        assert sub.xy.tolist() == [[0, 0], [1, 1]]


class TestMeasures:
    def test_bounds(self):
        assert square_set().bounds().corners()[0] == (0.0, 0.0)
        assert square_set().bounds().maxx == 1.0

    def test_mean(self):
        m = square_set().mean()
        assert (m.x, m.y, m.floor) == (0.5, 0.5, 0)

    def test_weighted_mean(self):
        s = InstanceSet(
            np.array([[0.0, 0.0], [10.0, 0.0]]), 0, np.array([0.9, 0.1])
        )
        assert s.mean().x == pytest.approx(1.0)


class TestDistances:
    def test_distances_same_floor(self):
        s = square_set()
        d = s.distances_to(Point(0, 0, 0), FH)
        assert d.tolist() == pytest.approx(
            [0.0, 1.0, 1.0, np.sqrt(2)], abs=1e-12
        )

    def test_distances_cross_floor(self):
        s = square_set()
        d = s.distances_to(Point(0, 0, 1), FH)
        assert d[0] == pytest.approx(FH)
        assert d[1] == pytest.approx(np.hypot(1, FH))

    def test_min_max(self):
        s = square_set()
        q = Point(2, 0, 0)
        assert s.min_distance_to(q, FH) == pytest.approx(1.0)
        assert s.max_distance_to(q, FH) == pytest.approx(np.hypot(2, 1))

    def test_expected_distance(self):
        s = InstanceSet(
            np.array([[0.0, 0.0], [4.0, 0.0]]), 0, np.array([0.25, 0.75])
        )
        q = Point(0, 0, 0)
        assert s.expected_distance_to(q, FH) == pytest.approx(3.0)

    def test_min_le_expected_le_max(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(0, 50, size=(100, 2))
        s = InstanceSet.uniform(xy, 0)
        q = Point(-3, 17, 0)
        lo = s.min_distance_to(q, FH)
        mid = s.expected_distance_to(q, FH)
        hi = s.max_distance_to(q, FH)
        assert lo <= mid <= hi
