"""Declarative run tables: named axes x values x repetitions.

The paper's methodology is a run table — configurations x sizes x
repetitions, reported mean ± std per the Alameldeen–Wood variability
discipline — and a *campaign* executes one.  :class:`RunTable` is the
declaration (ordered axes, each a named tuple of values, plus a
repetition count) and :meth:`RunTable.cells` is its deterministic
expansion: the cartesian product of the axes in declaration order,
each point repeated ``reps`` times, every cell carrying a stable
human-readable key (``protocol=mosi/workload=ecperf/rep0``).  Reps are
the package's one multi-run mechanism: ``jmmw characterize --runs R``
is a table of one point and R reps.

Cell order is part of the contract: schedulers may complete cells in
any order, but results are always reported in table order, so two
campaigns over the same table are comparable line by line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ConfigError


@dataclass(frozen=True)
class Axis:
    """One named dimension of a run table, e.g. ``protocol=(mosi, msi)``."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("axis name must be non-empty")
        if "=" in self.name or "/" in self.name:
            raise ConfigError(f"axis name {self.name!r} may not contain '=' or '/'")
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"axis {self.name!r} has duplicate values")


@dataclass(frozen=True)
class Cell:
    """One unit of campaign work: a point in the table plus a rep index.

    ``key`` is unique within the table and stable across runs — it
    names the cell in the manifest journal, events and the report.
    """

    key: str
    point: tuple  # ((axis_name, value), ...) in axis order
    rep: int

    @property
    def point_dict(self) -> dict[str, Any]:
        return dict(self.point)


@dataclass(frozen=True)
class RunTable:
    """Axes x values x reps, expanded deterministically into cells."""

    name: str
    axes: tuple
    reps: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("run table name must be non-empty")
        if not self.axes:
            raise ConfigError("run table needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate axis names in run table: {names}")
        if self.reps < 1:
            raise ConfigError("reps must be at least 1")

    @property
    def n_cells(self) -> int:
        n = self.reps
        for axis in self.axes:
            n *= len(axis.values)
        return n

    def shape(self) -> str:
        """Human description, e.g. ``3x2 points x 2 reps = 12 cells``."""
        dims = "x".join(str(len(axis.values)) for axis in self.axes)
        return f"{dims} points x {self.reps} reps = {self.n_cells} cells"

    def cells(self) -> list[Cell]:
        """Every cell, in table order (axes outer-to-inner, reps innermost)."""
        out = []
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            point = tuple(zip((axis.name for axis in self.axes), combo))
            stem = "/".join(f"{name}={value}" for name, value in point)
            for rep in range(self.reps):
                out.append(Cell(key=f"{stem}/rep{rep}", point=point, rep=rep))
        return out

    def signature_fields(self) -> dict[str, Any]:
        """JSON-able description for the campaign signature."""
        return {
            "name": self.name,
            "axes": [[axis.name, list(axis.values)] for axis in self.axes],
            "reps": self.reps,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A run table bound to the picklable function that runs one cell.

    ``fn(point, rep, **kwargs)`` must be a module-level callable
    (workers import it by reference) returning a ``dict[str, float]``
    of named metrics; ``kwargs`` carries any fixed configuration (a
    SimConfig's fields, a scratch directory) as JSON-able values and
    participates in the campaign signature and every cell key, so a
    resumed or cached campaign can never be served results from a
    differently-configured one.  The cell function seeds itself from
    ``rep``: each study keeps its own perturbation rule.
    """

    name: str
    table: RunTable
    fn: Callable[..., Mapping[str, float]]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def cell_args(self, cell: Cell) -> tuple[tuple, dict]:
        return (cell.point_dict, cell.rep), dict(self.kwargs)

    def _fn_name(self) -> str:
        return f"{self.fn.__module__}.{self.fn.__qualname__}"

    def cell_key(self, cell: Cell) -> str:
        """Result-cache key of one cell: its function, the kwargs, the
        point, the rep and the :func:`~repro.harness.cache.run_switches`.

        The table's shape and name are left out, so a cell's result
        serves every table holding that point and rep (a 4-rep run
        reuses a 3-rep run's cells).
        """
        from repro.harness.cache import content_key, run_switches

        return content_key(
            kind="campaign-cell",
            fn=self._fn_name(),
            fn_kwargs=dict(self.kwargs),
            point=cell.point_dict,
            rep=cell.rep,
            **run_switches(),
        )

    def signature(self) -> str:
        """Campaign identity: table + cell function + config + code version.

        Content-keyed (:func:`repro.harness.cache.content_key`), so the
        package code version is folded in automatically, along with the
        :func:`~repro.harness.cache.run_switches`.
        The executor *kind* and worker count are deliberately excluded:
        results are bit-identical across executors by contract, so a
        campaign interrupted on the worker pool may resume serially.
        """
        from repro.harness.cache import content_key, run_switches

        return content_key(
            kind="campaign",
            campaign=self.name,
            table=self.table.signature_fields(),
            fn=self._fn_name(),
            fn_kwargs=dict(self.kwargs),
            **run_switches(),
        )
