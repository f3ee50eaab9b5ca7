"""Uncertain indoor moving objects (Section II-B).

An object's location is imprecise: positioning reports a circular
*uncertainty region* and the location is a random variable inside it,
represented by a set of discrete *instances* ``{(s_i, p_i)}`` with
``sum p_i = 1`` — the paper's instance representation, which is general
for arbitrary distributions.

Because the region may straddle walls, an object's instances are divided
into *uncertainty subregions* ``S[j]``, one per overlapped partition
(Figure 6): :meth:`UncertainObject.pieces` assigns the instances, and
the index's columnar table stores them subregion by subregion.
"""

from repro.objects.instances import InstanceSet
from repro.objects.uncertain import UncertainObject
from repro.objects.generator import MovementStream, ObjectGenerator
from repro.objects.population import ObjectMove, ObjectPopulation

__all__ = [
    "InstanceSet",
    "UncertainObject",
    "MovementStream",
    "ObjectGenerator",
    "ObjectMove",
    "ObjectPopulation",
]
