"""Property-based tests for the R*-tree: randomized insert/delete
workloads must stay consistent with brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Box3
from repro.reference.bulk import str_bulk_load
from repro.reference.rstar import RStarTree

coord = st.floats(0, 100, allow_nan=False, allow_infinity=False)
size = st.floats(0.1, 10, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x, y = draw(coord), draw(coord)
    z = draw(st.sampled_from([0.0, 4.0, 8.0]))
    w, h = draw(size), draw(size)
    return Box3(x, y, z, x + w, y + h, z + 0.01)


@st.composite
def workloads(draw):
    """A list of (op, item) steps: insert new items, delete live ones."""
    n = draw(st.integers(1, 60))
    items = [(i, draw(boxes())) for i in range(n)]
    deletions = draw(
        st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True)
    )
    return items, deletions


class TestRandomWorkloads:
    @given(workloads(), st.sampled_from([4, 6, 20]))
    @settings(max_examples=40, deadline=None)
    def test_contents_and_invariants(self, workload, fanout):
        items, deletions = workload
        tree = RStarTree(fanout=fanout)
        for i, b in items:
            tree.insert(i, b)
        for i in deletions:
            assert tree.delete(i, items[i][1])
        alive = {i for i, _ in items} - set(deletions)
        assert set(tree) == alive
        assert tree.validate() == []

    @given(workloads(), boxes())
    @settings(max_examples=40, deadline=None)
    def test_search_matches_brute_force(self, workload, probe):
        items, deletions = workload
        tree = RStarTree(fanout=6)
        for i, b in items:
            tree.insert(i, b)
        for i in deletions:
            tree.delete(i, items[i][1])
        alive = [(i, b) for i, b in items if i not in set(deletions)]
        expected = sorted(i for i, b in alive if b.intersects(probe))
        assert sorted(tree.items_in_box(probe)) == expected

    @given(st.lists(boxes(), min_size=1, max_size=80), boxes())
    @settings(max_examples=40, deadline=None)
    def test_bulk_load_matches_brute_force(self, box_list, probe):
        items = list(enumerate(box_list))
        tree = str_bulk_load(items, fanout=8)
        expected = sorted(i for i, b in items if b.intersects(probe))
        assert sorted(tree.items_in_box(probe)) == expected
        assert sorted(tree) == [i for i, _ in items]

    @given(st.lists(boxes(), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_bulk_then_dynamic(self, box_list):
        """A bulk-loaded tree must survive subsequent dynamic updates."""
        items = list(enumerate(box_list))
        tree = str_bulk_load(items, fanout=6)
        extra = Box3(0, 0, 0, 1, 1, 0.01)
        for j in range(5):
            tree.insert(1000 + j, extra)
        for i, b in items[: len(items) // 2]:
            assert tree.delete(i, b)
        expected = {i for i, _ in items[len(items) // 2:]} | {
            1000 + j for j in range(5)
        }
        assert set(tree) == expected
        assert tree.validate(check_fill=False) == []
