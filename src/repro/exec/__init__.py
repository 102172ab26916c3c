"""Deterministic parallel sweep execution (see DESIGN.md).

Experiment harnesses describe their job grids as picklable
:class:`JobSpec` descriptors and hand them to :func:`run_sweep`, which
fans the independent simulations out across worker processes (or runs
them serially in-process — same results, byte for byte).
"""

from .identity import (
    canonical_json,
    canonical_spec,
    spec_hash,
    spec_identity,
)
from .pool import (
    JobSpec,
    SweepError,
    execute,
    resolve_workers,
    run_sweep,
)

__all__ = [
    "JobSpec",
    "SweepError",
    "canonical_json",
    "canonical_spec",
    "execute",
    "resolve_workers",
    "run_sweep",
    "spec_hash",
    "spec_identity",
]
