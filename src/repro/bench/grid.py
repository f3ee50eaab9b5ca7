"""Declarative experiment grids — compose, resume, compare.

The one experiment system: the paper's figures and the scenario fleet
are both sweeps declared as *data*.  An :class:`ExperimentGrid`
declares named parameter axes (figure panel, objects x update rate x
query mix x scenario ...) plus constraints that prune invalid cells;
a :class:`GridRunner`
materialises one output directory per surviving
cell (``params.json`` + ``result.json`` + ``log.txt``), skipping cells
whose results already exist and verify — so a killed sweep, rerun with
the same arguments, resumes exactly where it stopped (gridxp's
``--update`` semantics) and a corrupted ``result.json`` is detected by
its digest and recomputed.  A reporting layer pivots the cell results
into the ASCII tables of ``benchmarks/tables/*.txt`` (and CSV for
anything downstream).

Grids are written as *xpfiles* — small Python files evaluated in a
scope exposing the declaration DSL::

    name("stream_update_rate")
    runner("stream")                        # a registered cell runner
    param("batch_size", "bs{}", [5, 20, 80])  # one axis
    param("n_iknn", "k{}", [0, 4])          # another
    fixed("batches", 50)                    # constant, not swept
    constraint(lambda p: p["batch_size"] * p["batches"] <= 4000)
    def _table(cells): ...
    table(_table)                           # cells -> ExperimentResult

Cell runners are plain callables registered with
:func:`register_cell_runner`; the built-in ones are the ``figure``
runner of :mod:`repro.bench.figures` (one paper panel per cell) and
the fleet of :mod:`repro.bench.scenarios`.  Run a grid with
``python -m repro.bench grid <xpfile> [--scale quick|small|medium|paper]``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.bench.runner import ExperimentResult
from repro.bench.workloads import SMALL, ScaleProfile
from repro.errors import ReproError

#: Version stamped into every ``result.json``; bump on layout changes
#: (older cells then recompute instead of being misread).
CELL_RESULT_VERSION = 1


class GridError(ReproError):
    """Malformed grid declaration or cell store."""


# ---------------------------------------------------------------------
# declaration
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """One swept parameter: a name, a directory-fragment format and a
    finite ordered domain (``fmt.format(value)`` names the cell's
    directory fragment, gridxp-style)."""

    name: str
    fmt: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise GridError("axis needs a name")
        if not self.values:
            raise GridError(f"axis {self.name!r} has an empty domain")
        if len(set(map(repr, self.values))) != len(self.values):
            raise GridError(f"axis {self.name!r} has duplicate values")
        try:
            self.fmt.format(self.values[0])
        except (IndexError, KeyError) as exc:
            raise GridError(
                f"axis {self.name!r}: bad fmt {self.fmt!r}"
            ) from exc


@dataclass(frozen=True)
class GridCell:
    """One point of the swept product: its parameters (axis values +
    fixed values) and its stable directory id."""

    cell_id: str
    params: dict[str, Any]


class ExperimentGrid:
    """A named cartesian product of axes, pruned by constraints.

    ``runner`` names a registered cell runner (see
    :func:`register_cell_runner`); ``fixed`` carries constants every
    cell shares (recorded in each cell's ``params.json`` but not part
    of the directory id); ``tables`` are callables pivoting the cell
    results into :class:`~repro.bench.runner.ExperimentResult` panels.
    """

    def __init__(
        self,
        name: str,
        runner: str,
        axes: Sequence[Axis],
        constraints: Sequence[Callable[[dict[str, Any]], bool]] = (),
        fixed: dict[str, Any] | None = None,
        tables: Sequence[
            Callable[[list[tuple[dict, dict]]], Any]
        ] = (),
    ) -> None:
        if not name:
            raise GridError("grid needs a name")
        if not axes:
            raise GridError(f"grid {name!r} declares no axes")
        seen: set[str] = set()
        for axis in axes:
            if axis.name in seen:
                raise GridError(f"duplicate axis {axis.name!r}")
            seen.add(axis.name)
        overlap = seen & set(fixed or ())
        if overlap:
            raise GridError(
                f"fixed parameter(s) {sorted(overlap)} shadow axes"
            )
        self.name = name
        self.runner = runner
        self.axes = tuple(axes)
        self.constraints = tuple(constraints)
        self.fixed = dict(fixed or {})
        self.tables = tuple(tables)

    def cells(self) -> list[GridCell]:
        """Every surviving cell, in deterministic product order (first
        axis slowest — declaration order is sweep order)."""
        out = []
        for combo in itertools.product(*(a.values for a in self.axes)):
            params = dict(self.fixed)
            params.update(
                {a.name: v for a, v in zip(self.axes, combo)}
            )
            if all(c(params) for c in self.constraints):
                out.append(GridCell(self._cell_id(combo), params))
        if not out:
            raise GridError(
                f"grid {self.name!r}: constraints pruned every cell"
            )
        return out

    def _cell_id(self, combo: tuple[Any, ...]) -> str:
        return "_".join(
            a.fmt.format(v) for a, v in zip(self.axes, combo)
        )


# ---------------------------------------------------------------------
# xpfile loading
# ---------------------------------------------------------------------


def load_xpfile(path: str | Path) -> ExperimentGrid:
    """Evaluate an xpfile into an :class:`ExperimentGrid`.

    The file is Python, executed with the declaration DSL in scope
    (``name`` / ``runner`` / ``param`` / ``fixed`` / ``constraint`` /
    ``table``); anything else it defines (helper functions for table
    pivots, say) stays local to the file.
    """
    path = Path(path)
    decl: dict[str, Any] = {
        "name": path.stem,
        "runner": None,
        "axes": [],
        "constraints": [],
        "fixed": {},
        "tables": [],
    }

    def _name(value: str) -> None:
        decl["name"] = str(value)

    def _runner(value: str) -> None:
        decl["runner"] = str(value)

    def _param(name: str, fmt: str, values: Iterable[Any]) -> None:
        decl["axes"].append(Axis(name, fmt, tuple(values)))

    def _fixed(name: str, value: Any) -> None:
        decl["fixed"][name] = value

    def _constraint(fn: Callable[[dict], bool]) -> None:
        decl["constraints"].append(fn)

    def _table(fn: Callable[[list[tuple[dict, dict]]], Any]) -> None:
        decl["tables"].append(fn)

    scope = {
        "name": _name,
        "runner": _runner,
        "param": _param,
        "fixed": _fixed,
        "constraint": _constraint,
        "table": _table,
        "series_table": series_table,
        "ExperimentResult": ExperimentResult,
    }
    try:
        code = compile(path.read_text(), str(path), "exec")
    except (OSError, SyntaxError) as exc:
        raise GridError(f"cannot load xpfile {path}: {exc}") from exc
    exec(code, scope)
    if not decl["runner"]:
        raise GridError(f"xpfile {path} never calls runner(...)")
    return ExperimentGrid(
        name=decl["name"],
        runner=decl["runner"],
        axes=decl["axes"],
        constraints=decl["constraints"],
        fixed=decl["fixed"],
        tables=decl["tables"],
    )


# ---------------------------------------------------------------------
# cell runners
# ---------------------------------------------------------------------


@dataclass
class CellContext:
    """What a cell runner gets besides its parameters."""

    #: The scale every workload of the cell is built at (``--scale``).
    profile: ScaleProfile
    #: Base seed: with the cell params, fully determines the workload.
    seed: int
    #: The cell's output directory (runners may drop extra artifacts).
    cell_dir: Path
    #: Line logger into the cell's ``log.txt`` (also echoed when the
    #: runner is verbose).
    log: Callable[[str], None]


#: runner name -> callable(params, ctx) -> JSON-serializable result.
_CELL_RUNNERS: dict[str, Callable[[dict, CellContext], dict]] = {}


def register_cell_runner(
    name: str,
) -> Callable[[Callable[[dict, CellContext], dict]], Callable]:
    """Register a cell runner under ``name`` (xpfiles reference it via
    ``runner(name)``)."""

    def bind(fn: Callable[[dict, CellContext], dict]) -> Callable:
        if name in _CELL_RUNNERS:
            raise GridError(f"cell runner {name!r} already registered")
        _CELL_RUNNERS[name] = fn
        return fn

    return bind


def cell_runner(name: str) -> Callable[[dict, CellContext], dict]:
    # The built-in runners register on import; importing here keeps
    # `from repro.bench.grid import ...` cheap for non-runner users.
    import repro.bench.figures  # noqa: F401
    import repro.bench.scenarios  # noqa: F401

    try:
        return _CELL_RUNNERS[name]
    except KeyError:
        raise GridError(
            f"unknown cell runner {name!r}; registered: "
            f"{sorted(_CELL_RUNNERS)}"
        ) from None


# ---------------------------------------------------------------------
# the resumable runner
# ---------------------------------------------------------------------


def _canonical(data: Any) -> str:
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def _digest(payload: dict[str, Any]) -> str:
    body = {k: v for k, v in payload.items() if k != "digest"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


@dataclass
class GridReport:
    """Outcome of one :meth:`GridRunner.run`: which cells ran, which
    were served from their cached ``result.json``, which were found
    corrupt and recomputed — plus every cell's result for reporting."""

    grid: ExperimentGrid
    out_dir: Path
    ran: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    recomputed: list[str] = field(default_factory=list)
    results: dict[str, dict] = field(default_factory=dict)

    @property
    def cells(self) -> list[tuple[dict, dict]]:
        """``(params, result)`` per cell, in grid order — what table
        callables pivot."""
        return [
            (cell.params, self.results[cell.cell_id])
            for cell in self.grid.cells()
        ]

    def tables(self) -> dict[str, ExperimentResult]:
        """Every pivot, keyed by its table-file stem: a callable's
        ``{stem: panel}`` dict as returned, a lone panel under the
        grid's name (``<grid>_<n>`` when the grid declares several)."""
        out: dict[str, ExperimentResult] = {}
        for i, fn in enumerate(self.grid.tables):
            made = fn(self.cells)
            if isinstance(made, dict):
                out.update(made)
            elif len(self.grid.tables) == 1:
                out[self.grid.name] = made
            else:
                out[f"{self.grid.name}_{i}"] = made
        return out


class GridRunner:
    """Materialise a grid under ``out_root/<grid.name>/<cell_id>/``.

    Resumable by construction: each finished cell's ``result.json`` is
    written atomically (tmp + rename) and sealed with a content digest;
    on the next run a cell is skipped iff its file parses, the digest
    verifies, and the recorded parameters match the cell's — anything
    else (torn write, hand-edited file, changed params, scale or seed)
    recomputes.  ``force=True`` recomputes everything.
    """

    def __init__(
        self,
        grid: ExperimentGrid,
        out_root: str | Path,
        profile: ScaleProfile = SMALL,
        seed: int = 2013,
        force: bool = False,
        verbose: bool = False,
    ) -> None:
        self.grid = grid
        self.out_dir = Path(out_root) / grid.name
        self.profile = profile
        self.seed = int(seed)
        self.force = force
        self.verbose = verbose

    # -- per-cell bookkeeping ------------------------------------------

    def cell_dir(self, cell: GridCell) -> Path:
        return self.out_dir / cell.cell_id

    def _cell_params(self, cell: GridCell) -> dict[str, Any]:
        """Everything needed to reproduce the cell from its
        ``params.json`` alone."""
        return {
            "grid": self.grid.name,
            "runner": self.grid.runner,
            "cell": cell.cell_id,
            "scale": self.profile.name,
            "seed": self.seed,
            "params": cell.params,
        }

    def cached_result(self, cell: GridCell) -> dict | None:
        """The cell's verified cached result, or ``None`` if absent,
        torn, corrupted or computed for different parameters."""
        path = self.cell_dir(cell) / "result.json"
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("v") != CELL_RESULT_VERSION:
            return None
        if payload.get("digest") != _digest(payload):
            return None
        if payload.get("cell") != self._cell_params(cell):
            return None
        return payload["result"]

    def _write_cell(
        self, cell: GridCell, result: dict, elapsed_s: float
    ) -> None:
        cdir = self.cell_dir(cell)
        cdir.mkdir(parents=True, exist_ok=True)
        params = self._cell_params(cell)
        (cdir / "params.json").write_text(
            json.dumps(params, indent=2, sort_keys=True) + "\n"
        )
        payload: dict[str, Any] = {
            "v": CELL_RESULT_VERSION,
            "cell": params,
            "elapsed_s": elapsed_s,
            "result": result,
        }
        payload["digest"] = _digest(payload)
        tmp = cdir / "result.json.tmp"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(cdir / "result.json")

    # -- driving -------------------------------------------------------

    def run(
        self, max_cells: int | None = None
    ) -> GridReport:
        """Run (or resume) the sweep; ``max_cells`` bounds how many
        *missing* cells are computed this call (the kill-mid-sweep
        tests use it; cached cells never count against it)."""
        runner = cell_runner(self.grid.runner)
        report = GridReport(self.grid, self.out_dir)
        computed = 0
        for cell in self.grid.cells():
            had_file = (self.cell_dir(cell) / "result.json").exists()
            cached = None if self.force else self.cached_result(cell)
            if cached is not None:
                report.skipped.append(cell.cell_id)
                report.results[cell.cell_id] = cached
                self._say(f"[{cell.cell_id}] cached, skipping")
                continue
            if max_cells is not None and computed >= max_cells:
                raise GridInterrupted(report)
            result, elapsed = self._run_cell(runner, cell)
            self._write_cell(cell, result, elapsed)
            computed += 1
            report.results[cell.cell_id] = result
            if had_file and not self.force:
                report.recomputed.append(cell.cell_id)
                self._say(
                    f"[{cell.cell_id}] stale/corrupt result recomputed "
                    f"({elapsed:.1f}s)"
                )
            else:
                report.ran.append(cell.cell_id)
                self._say(f"[{cell.cell_id}] done ({elapsed:.1f}s)")
        return report

    def _run_cell(
        self, runner: Callable[[dict, CellContext], dict], cell: GridCell
    ) -> tuple[dict, float]:
        cdir = self.cell_dir(cell)
        cdir.mkdir(parents=True, exist_ok=True)
        log_path = cdir / "log.txt"
        with log_path.open("w") as log_file:

            def log(line: str) -> None:
                log_file.write(line.rstrip("\n") + "\n")
                log_file.flush()
                self._say(f"[{cell.cell_id}] {line}")

            ctx = CellContext(
                profile=self.profile,
                seed=self.seed,
                cell_dir=cdir,
                log=log,
            )
            log(f"params: {_canonical(cell.params)}")
            t0 = time.perf_counter()
            result = runner(dict(cell.params), ctx)
            elapsed = time.perf_counter() - t0
            log(f"elapsed_s: {elapsed:.3f}")
        if not isinstance(result, dict):
            raise GridError(
                f"cell runner {self.grid.runner!r} returned "
                f"{type(result).__name__}, expected dict"
            )
        return result, elapsed

    def _say(self, line: str) -> None:
        if self.verbose:
            print(line)


class GridInterrupted(Exception):
    """Raised by :meth:`GridRunner.run` when ``max_cells`` stops a
    sweep early; carries the partial report (the on-disk cells are
    already durable — rerunning resumes)."""

    def __init__(self, report: GridReport) -> None:
        super().__init__(
            f"grid stopped after {len(report.ran)} computed cells"
        )
        self.report = report


# ---------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------


def series_table(
    cells: list[tuple[dict, dict]],
    title: str,
    x: str,
    values: Sequence[str],
    unit: str = "",
    x_label: str | None = None,
) -> ExperimentResult:
    """The common pivot: one row per cell (labelled by axis ``x``),
    one column per key in ``values`` looked up in each cell's result.
    Richer pivots are plain Python inside the xpfile's table
    callable."""
    result = ExperimentResult(
        title=title, x_label=x_label or x, unit=unit
    )
    for params, cell_result in cells:
        result.x_values.append(params[x])
        for key in values:
            result.add(key, cell_result[key])
    return result


def write_cells_csv(
    path: str | Path, cells: list[tuple[dict, dict]]
) -> None:
    """Flat CSV over all cells: the union of parameter and scalar
    result keys, one row per cell — the machine-readable companion of
    the ASCII tables."""
    param_keys: list[str] = []
    result_keys: list[str] = []
    for params, result in cells:
        for k in params:
            if k not in param_keys:
                param_keys.append(k)
        for k, v in result.items():
            if (
                k not in result_keys
                and k not in param_keys
                and not isinstance(v, (dict, list))
            ):
                result_keys.append(k)
    lines = [",".join(param_keys + result_keys)]
    for params, result in cells:
        row = [str(params.get(k, "")) for k in param_keys]
        row += [str(result.get(k, "")) for k in result_keys]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")
