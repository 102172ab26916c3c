"""Experiment plumbing shared by all figure/table harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core import JobResult, RuntimeConfig
from ..exec import JobSpec, execute

__all__ = [
    "ExperimentResult",
    "job_spec",
    "run_job",
    "JobSpec",
    "CURRENT",
    "PROPOSED",
]

#: The paper's two design points.
CURRENT = RuntimeConfig.current()
PROPOSED = RuntimeConfig.proposed()


@dataclass
class ExperimentResult:
    """Uniform container every experiment returns."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[List[Any]]
    note: str = ""
    #: Free-form extras (raw JobResults, fits, ...) for tests.
    extras: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        from .tables import render_table

        return render_table(
            f"{self.experiment}: {self.title}", self.columns, self.rows,
            note=self.note or None,
        )

    def csv(self) -> str:
        from .tables import rows_to_csv

        return rows_to_csv(self.columns, self.rows)

    def save(self, directory: Path, stem: str) -> str:
        """Write ``{stem}.txt`` and ``{stem}.csv`` under ``directory``;
        returns the rendered table."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        text = self.render()
        (directory / f"{stem}.txt").write_text(text)
        (directory / f"{stem}.csv").write_text(self.csv())
        return text


def job_spec(
    app,
    npes: int,
    config: RuntimeConfig,
    testbed: str = "A",
    ppn: Optional[int] = None,
    **config_overrides,
) -> JobSpec:
    """Describe one job on the named paper testbed (A or B).

    ``config_overrides`` are :class:`RuntimeConfig` fields evolved onto
    ``config`` — e.g. ``seed=7``, ``observe={"timeline": True}``,
    ``check=True`` or ``macro_phases=True`` (the analytical phase-model
    layer, the very-large-scale path)."""
    if config_overrides:
        config = config.evolve(**config_overrides)
    return JobSpec(app=app, npes=npes, config=config, testbed=testbed,
                   ppn=ppn)


def run_job(
    app,
    npes: int,
    config: RuntimeConfig,
    testbed: str = "A",
    ppn: Optional[int] = None,
    **config_overrides,
) -> JobResult:
    """Run one job on the named paper testbed (A or B), in-process.

    ``observe=True`` runs with the flight recorder on; the result then
    carries a ``telemetry`` section experiments can assert against
    (``observe={"timeline": True}`` adds the sampled time-series).
    ``check`` (a :class:`repro.check.CheckPlan`, config dict, or
    ``True``) arms the invariant sanitizer; the result then carries a
    ``check`` report.  ``macro_phases=True`` uses the analytical phase
    models.  Like every other override, each is a RuntimeConfig field
    (see :func:`job_spec`).
    """
    return execute(job_spec(app, npes, config, testbed=testbed, ppn=ppn,
                            **config_overrides))
