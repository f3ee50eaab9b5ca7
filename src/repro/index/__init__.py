"""The composite indoor index (Section III, Figures 2 and 8).

Three layers over one tree:

* **Geometric layer** — the *tree tier* (:class:`IndRTree`, an R*-tree
  over decomposed index units with the 1 cm vertical-extent trick) and
  the *skeleton tier* (:class:`SkeletonTier`, staircase-entrance graph
  with the ``M_s2s`` matrix and the skeleton distance of Definition 2);
* **Topological layer** — door links between leaf partitions (a de facto
  doors graph integrated into the index);
* **Object layer** — the ``h-table`` (unit -> partition) and the
  columnar :class:`ObjectColumns` table that RangeSearch and the bounds
  kernel read: its unit rows are the ``o-table`` (object -> units), and
  each leaf's object bucket is derived from them on read.

:class:`CompositeIndex` ties the layers together and provides
RangeSearch (Algorithm 4) plus the dynamic operations of Section III-C.
"""

from repro.index.rstar import RStarTree, TreeNode
from repro.index.bulk import str_bulk_load
from repro.index.indr import IndexUnit, IndRTree
from repro.index.skeleton import SkeletonTier
from repro.index.tables import HTable
from repro.index.columns import ObjectColumns
from repro.index.composite import CompositeIndex, RangeSearchResult

__all__ = [
    "RStarTree",
    "TreeNode",
    "str_bulk_load",
    "IndexUnit",
    "IndRTree",
    "SkeletonTier",
    "HTable",
    "ObjectColumns",
    "CompositeIndex",
    "RangeSearchResult",
]
