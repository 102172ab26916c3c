"""The content-addressed result cache (see DESIGN.md).

``repro.exec`` made a :class:`~repro.exec.JobSpec` a picklable, fully
deterministic description of one run, and :func:`repro.exec.spec_hash`
a collision-free digest of it.  :class:`ResultCache` stores each run's
result under that digest (memory + disk tiers, LRU byte budgets), so a
hit is free and provably exact: its bytes are the fresh run's bytes
(:func:`canonical_payload`).
"""

from ..exec import canonical_json, canonical_spec, spec_hash, spec_identity
from .cache import PICKLE_PROTOCOL, ResultCache, canonical_payload

__all__ = [
    "PICKLE_PROTOCOL",
    "ResultCache",
    "canonical_json",
    "canonical_payload",
    "canonical_spec",
    "spec_hash",
    "spec_identity",
]
