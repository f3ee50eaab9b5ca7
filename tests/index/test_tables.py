"""Unit tests for the h-table (the o-table is the columnar table's unit
rows: see ``tests/index/test_composite.py::TestOTableLookups``)."""

import pytest

from repro.errors import IndexError_
from repro.index import HTable


class TestHTable:
    def test_add_and_lookup(self):
        h = HTable()
        h.add("u1", "p1")
        h.add("u2", "p1")
        h.add("u3", "p2")
        assert h.partition_of("u1") == "p1"
        assert h.units_of("p1") == {"u1", "u2"}
        assert len(h) == 3
        assert "u1" in h and "zzz" not in h

    def test_duplicate_unit_rejected(self):
        h = HTable()
        h.add("u1", "p1")
        with pytest.raises(IndexError_):
            h.add("u1", "p2")

    def test_remove_unit(self):
        h = HTable()
        h.add("u1", "p1")
        h.add("u2", "p1")
        assert h.remove_unit("u1") == "p1"
        assert h.units_of("p1") == {"u2"}
        with pytest.raises(IndexError_):
            h.remove_unit("u1")

    def test_remove_partition(self):
        h = HTable()
        h.add("u1", "p1")
        h.add("u2", "p1")
        h.add("u3", "p2")
        assert h.remove_partition("p1") == {"u1", "u2"}
        assert len(h) == 1
        assert h.units_of("p1") == set()

    def test_unknown_unit_raises(self):
        with pytest.raises(IndexError_):
            HTable().partition_of("u")
