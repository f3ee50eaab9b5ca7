"""What runs never imports what checks it.

``repro.reference`` holds the scalar forms the array code is held to.
No module outside it may import it at module level — the lazy name map
of ``repro/__init__.py`` resolves its names on first use, and a
``validate()`` may import it locally — and the served path (build a
``QueryService``, run, watch, ingest) must never load it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
REFERENCE = PACKAGE / "reference"


def _names_reference(module: str | None) -> bool:
    return module is not None and (
        module == "repro.reference" or module.startswith("repro.reference.")
    )


def _module_level_nodes(tree: ast.Module):
    """Every node run when the module is imported: the module and
    class bodies, not the bodies of functions."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))


def reference_imports(path: Path) -> list[str]:
    """``line: statement`` for each module-level import of
    ``repro.reference`` in ``path`` (plain, ``from`` or a dynamic
    ``import_module`` of a literal name)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in _module_level_nodes(tree):
        if isinstance(node, ast.Import):
            hits = [a.name for a in node.names if _names_reference(a.name)]
        elif isinstance(node, ast.ImportFrom):
            hits = []
            if node.level == 0 and node.module == "repro":
                hits = [
                    f"repro.{a.name}"
                    for a in node.names
                    if a.name == "reference"
                ]
            elif node.level == 0 and _names_reference(node.module):
                hits = [node.module]
        elif isinstance(node, ast.Call):
            hits = [
                arg.value
                for arg in node.args
                if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and _names_reference(arg.value)
            ]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in hits]
    return found


class TestImportBoundary:
    def test_no_module_level_import_outside_the_package(self):
        offenders = {
            str(path.relative_to(SRC)): hits
            for path in sorted(PACKAGE.rglob("*.py"))
            if REFERENCE not in path.parents
            for hits in [reference_imports(path)]
            if hits
        }
        assert offenders == {}

    def test_the_scan_sees_each_import_form(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            "import importlib\n"
            "import repro.reference\n"
            "from repro import reference\n"
            "from repro.reference.tree import range_search_tree\n"
            "if True:\n"
            "    from repro.reference import naive\n"
            "class C:\n"
            "    from repro.reference import pack\n"
            "importlib.import_module('repro.reference.bounds')\n"
            "def validate():\n"
            "    from repro.reference.pack import pack_block\n"
        )
        assert sorted(reference_imports(source)) == [
            "2: repro.reference",
            "3: repro.reference",
            "4: repro.reference.tree",
            "6: repro.reference",
            "8: repro.reference",
            "9: repro.reference.bounds",
        ]

    def test_the_lazy_map_names_the_package(self):
        import repro

        lazy = {
            name
            for name, module in repro._EXPORTS.items()
            if _names_reference(module)
        }
        assert lazy == {
            "NaiveEvaluator",
            "PrecomputedDistanceIndex",
            "expected_indoor_distance",
            "object_bounds",
            "IndRTree",
            "RStarTree",
        }


def _resolve(dotted: str):
    """``module:attr.attr`` -> the object, or ``None`` if any step of
    the path is missing."""
    module, _, path = dotted.partition(":")
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


#: Each scalar form that left the system, and where it lives now.
MOVED = [
    ("repro.distances.bounds:subregion_stats",
     "repro.reference.bounds:subregion_stats"),
    ("repro.distances.bounds:topological_bounds",
     "repro.reference.bounds:topological_bounds"),
    ("repro.distances.bounds:weighted_topological_bounds",
     "repro.reference.bounds:weighted_topological_bounds"),
    ("repro.distances.bounds:markov_lower_bound",
     "repro.reference.bounds:markov_lower_bound"),
    ("repro.distances.bounds:object_bounds",
     "repro.reference.bounds:object_bounds"),
    ("repro.distances.bounds:topological_looser_upper_bound",
     "repro.reference.bounds:topological_looser_upper_bound"),
    ("repro.distances:expected_indoor_distance",
     "repro.reference.expected:expected_indoor_distance"),
    ("repro.queries.prob_range:probability_bounds",
     "repro.reference.bounds:probability_bounds"),
    ("repro.queries.prob_range:qualifying_probability",
     "repro.reference.expected:qualifying_probability"),
    ("repro.distances.batch:pack_block",
     "repro.reference.pack:pack_block"),
    ("repro.distances.batch:subregion_rows",
     "repro.reference.pack:subregion_rows"),
    ("repro.index.composite:CompositeIndex.range_search_tree",
     "repro.reference.tree:range_search_tree"),
    ("repro.index.composite:CompositeIndex._node_bound",
     "repro.reference.tree:node_bound"),
    ("repro.index.composite:CompositeIndex._resolve_units",
     "repro.reference.tree:resolve_units"),
    ("repro.index.skeleton:SkeletonTier.skeleton_distance",
     "repro.reference.tree:skeleton_distance"),
    ("repro.index.skeleton:SkeletonTier.min_distance_to_box",
     "repro.reference.tree:min_distance_to_box"),
    ("repro.index.skeleton:SkeletonTier.min_distance_to_point_set",
     "repro.reference.tree:min_distance_to_point_set"),
    ("repro.objects:Subregion",
     "repro.reference.subregions:Subregion"),
    ("repro.objects.uncertain:UncertainObject.subregions",
     "repro.reference.subregions:subregions"),
    ("repro.geometry:WeightedBisector",
     "repro.reference.bisector:WeightedBisector"),
    ("repro.index:IndRTree", "repro.reference.tree:IndRTree"),
    ("repro.index.indr:IndRTree", "repro.reference.tree:IndRTree"),
    ("repro.index.indr:IndexUnit.box", "repro.reference.tree:unit_box"),
    ("repro.index:RStarTree", "repro.reference.rstar:RStarTree"),
    ("repro.index:TreeNode", "repro.reference.rstar:TreeNode"),
    ("repro.index:str_bulk_load", "repro.reference.bulk:str_bulk_load"),
]

#: Modules that moved whole into the reference package.
MOVED_MODULES = [
    ("repro.baselines", "repro.reference.naive"),
    ("repro.distances.expected", "repro.reference.expected"),
    ("repro.geometry.bisector", "repro.reference.bisector"),
    ("repro.index.rstar", "repro.reference.rstar"),
    ("repro.index.bulk", "repro.reference.bulk"),
]


class TestMovedNames:
    @pytest.mark.parametrize(
        "system, reference", MOVED, ids=[old for old, _ in MOVED]
    )
    def test_the_system_no_longer_holds_it(self, system, reference):
        assert _resolve(reference) is not None
        assert _resolve(system) is None

    @pytest.mark.parametrize(
        "system, reference",
        MOVED_MODULES,
        ids=[old for old, _ in MOVED_MODULES],
    )
    def test_the_module_moved_whole(self, system, reference):
        assert importlib.util.find_spec(reference) is not None
        assert importlib.util.find_spec(system) is None

    @pytest.mark.parametrize(
        "name",
        [
            "NaiveEvaluator",
            "PrecomputedDistanceIndex",
            "expected_indoor_distance",
            "object_bounds",
            "IndRTree",
            "RStarTree",
        ],
    )
    def test_the_top_level_name_is_the_reference(self, name):
        import repro
        import repro.reference

        assert getattr(repro, name) is getattr(repro.reference, name)


#: Drives the served path in a fresh interpreter and reports the
#: ``repro.reference*`` modules it loaded.
SERVED_PATH = """
import json, sys

import repro.api
from repro.api import (
    KNNSpec, ProbRangeSpec, QueryService, RangeSpec, ServiceConfig,
)
from repro.index import CompositeIndex
from repro.objects import MovementStream, ObjectGenerator
from repro.space.mall import build_mall

space = build_mall(floors=2, seed=3)
gen = ObjectGenerator(space, radius=2.0, n_instances=8, seed=3)
population = gen.generate(40)
index = CompositeIndex.build(space, population)
service = QueryService(index, ServiceConfig())
q = space.random_point(seed=5)
ran = [
    len(service.run(RangeSpec(q, 60.0)).objects),
    len(service.run(KNNSpec(q, 5)).objects),
    len(service.run(ProbRangeSpec(q, 60.0, 0.5)).objects),
]
watched = service.watch(RangeSpec(q, 60.0))
stream = MovementStream(space, population, gen, seed=9)
batch = service.ingest(stream.next_moves(10))
loaded = sorted(
    name for name in sys.modules
    if name == "repro.reference" or name.startswith("repro.reference.")
)
print(json.dumps({
    "ran": ran,
    "watched": watched in service,
    "deltas": len(batch.deltas),
    "loaded": loaded,
}))
"""


class TestServedPath:
    def test_serving_loads_no_reference_module(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", SERVED_PATH],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["watched"]
        assert report["ran"][1] == 5  # the run reached the index
        assert report["loaded"] == []
