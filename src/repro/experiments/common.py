"""Experiment infrastructure: results, repetition, registry plumbing.

Every experiment module exposes ``run(quick=..., seed=...) ->
ExperimentResult``. ``quick`` shrinks population sizes/repetitions so
benchmarks and CI stay fast; the full configuration regenerates the
numbers ``repro reproduce --full --out <file>`` writes (the quick
tables are committed under ``benchmarks/output/``). All randomness flows from the
``seed`` through :class:`~repro.engine.rng.RngRegistry` substreams, so
every table is exactly reproducible.

Results round-trip through JSON (:meth:`ExperimentResult.to_dict` /
:meth:`ExperimentResult.from_dict`), which is what lets the
``repro reproduce`` path cache finished experiments on disk and fan
them out across worker processes (:mod:`repro.sweep.runner`).

Examples
--------
>>> result = ExperimentResult(name="demo", description="round-trip")
>>> result.add_table("t", ["x"], [[1], [2]])
>>> ExperimentResult.from_dict(result.to_dict()).render() == result.render()
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.analysis.series import Series, ascii_plot
from repro.analysis.tables import render_markdown_table, render_table
from repro.engine.rng import RngRegistry
from repro.errors import ConfigurationError

__all__ = ["ExperimentTable", "ExperimentResult", "repeat", "Experiment"]


def _plain(value: Any) -> Any:
    """Collapse numpy scalars to Python scalars (JSON/cache safety)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)
    return item() if callable(item) else value


@dataclass
class ExperimentTable:
    """One titled table of an experiment's output."""

    title: str
    headers: list[str]
    rows: list[list[Any]]

    def render(self) -> str:
        """Aligned plain-text rendering (terminal output)."""
        return f"{self.title}\n{render_table(self.headers, self.rows)}"

    def render_markdown(self) -> str:
        """GitHub-flavored Markdown rendering (``repro reproduce --out``)."""
        return f"**{self.title}**\n\n{render_markdown_table(self.headers, self.rows)}"

    def to_dict(self) -> dict:
        """JSON form; inverse of :meth:`from_dict`."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[_plain(cell) for cell in row] for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentTable":
        """Rebuild a table from :meth:`to_dict` output."""
        return cls(
            title=str(data["title"]),
            headers=[str(h) for h in data["headers"]],
            rows=[list(row) for row in data["rows"]],
        )


@dataclass
class ExperimentResult:
    """Everything an experiment produced: tables, curves, prose notes."""

    name: str
    description: str
    tables: list[ExperimentTable] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_table(self, title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        """Append one titled table (cells normalized to Python scalars)."""
        self.tables.append(
            ExperimentTable(
                title, list(headers), [[_plain(cell) for cell in row] for row in rows]
            )
        )

    def render(self, *, plot: bool = True) -> str:
        """Terminal rendering of the whole experiment."""
        blocks = [f"== {self.name} ==", self.description]
        blocks += [table.render() for table in self.tables]
        if plot and self.series:
            blocks.append(ascii_plot(self.series, logx=True, logy=True, title=""))
        blocks += [f"note: {note}" for note in self.notes]
        return "\n\n".join(blocks)

    def render_markdown(self) -> str:
        """Markdown rendering (one ``repro reproduce --out`` section)."""
        blocks = [f"### {self.name}", self.description]
        blocks += [table.render_markdown() for table in self.tables]
        blocks += [f"*{note}*" for note in self.notes]
        return "\n\n".join(blocks)

    def to_dict(self) -> dict:
        """Full JSON form — what the experiment cache stores on disk.

        Floats survive a JSON round-trip exactly (``repr``-based), so a
        cached experiment renders byte-identically to a fresh run.
        """
        return {
            "name": self.name,
            "description": self.description,
            "tables": [table.to_dict() for table in self.tables],
            "series": [series.to_dict() for series in self.series],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            description=str(data["description"]),
            tables=[ExperimentTable.from_dict(t) for t in data.get("tables", [])],
            series=[Series.from_dict(s) for s in data.get("series", [])],
            notes=[str(note) for note in data.get("notes", [])],
        )


def repeat(
    fn: Callable[[Any], Any],
    rngs: RngRegistry,
    prefix: str,
    repetitions: int,
) -> list[Any]:
    """Run ``fn(rng)`` on ``repetitions`` independent substreams.

    Each repetition draws from the substream ``"{prefix}/{index}"``, so
    results depend only on the root seed and the index — never on
    execution order. Repetitions stay serial and in-process: experiment
    closures capture simulators and parameter objects that must not
    cross a process boundary, so parallelism happens one level up,
    where ``repro sweep`` and ``repro reproduce --workers`` fan out
    *named* work units.

    >>> rngs = RngRegistry(5)
    >>> draws = repeat(lambda rng: float(rng.random()), rngs, "demo", 3)
    >>> draws == repeat(lambda rng: float(rng.random()), RngRegistry(5), "demo", 3)
    True
    """
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    return [fn(rngs.stream(f"{prefix}/{index}")) for index in range(repetitions)]


@dataclass(frozen=True)
class Experiment:
    """Registry entry: id, paper artifact, and the runner callable."""

    name: str
    artifact: str
    description: str
    runner: Callable[..., ExperimentResult]

    def run(self, *, quick: bool = True, seed: int = 0) -> ExperimentResult:
        """Execute the experiment's runner."""
        return self.runner(quick=quick, seed=seed)
