"""The composite indoor index (Section III, Figures 2 and 8).

Three layers over one unit list:

* **Geometric layer** — the *tree tier*'s index units (:class:`IndexUnit`,
  Algorithm 3's decomposition of every partition; the paper holds them
  in an R*-tree, which only :mod:`repro.reference.tree` builds) and the
  *skeleton tier* (:class:`SkeletonTier`, staircase-entrance graph with
  the ``M_s2s`` matrix and the skeleton distance of Definition 2);
* **Topological layer** — door links between leaf partitions (a de facto
  doors graph integrated into the index);
* **Object layer** — the columnar :class:`ObjectColumns` table that
  RangeSearch and the bounds kernel read: its unit rows are the
  ``o-table`` (object -> units), and each leaf's object bucket is
  derived from them on read.  The paper's ``h-table`` (unit ->
  partition) is :attr:`IndexUnit.partition_id`.

:class:`CompositeIndex` ties the layers together and provides
RangeSearch (Algorithm 4), point location and the dynamic operations of
Section III-C.
"""

from repro.index.indr import IndexUnit
from repro.index.skeleton import SkeletonTier
from repro.index.columns import ObjectColumns
from repro.index.composite import CompositeIndex, RangeSearchResult

__all__ = [
    "IndexUnit",
    "SkeletonTier",
    "ObjectColumns",
    "CompositeIndex",
    "RangeSearchResult",
]
