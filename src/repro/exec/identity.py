"""Canonical JobSpec identity: the content hash that *is* the result key.

A :class:`~repro.exec.JobSpec` fully determines its
:class:`~repro.core.metrics.JobResult` (the determinism contract in
``repro.exec.pool``), so a collision-free digest of the spec's semantic
content is a sound cache key: two specs with the same hash produce
byte-identical results, and a cached result can be returned in place of
a fresh run with no loss of exactness.  ``repro.serve`` builds its
content-addressed result cache on exactly this property.

Canonicalisation rules
----------------------
The hash covers the *effective* simulation inputs, so trivially-aliased
spellings of the same run share a hash:

* ``label`` is display-only and **never** hashed.
* ``ppn=None`` folds to the testbed default (8 on A, 16 on B) —
  the value ``_cluster_for`` would use anyway.
* an empty ``cost_overrides`` tuple folds to ``None``.
* the ``config`` section is every field of the
  :class:`~repro.core.RuntimeConfig`, read from ``dataclasses.fields``
  so a new field can never be left out.  ``RuntimeConfig`` has already
  coerced and folded its opt-ins (empty plans, a disabled or
  static-mode lifecycle policy, the observe spellings), so the config
  *is* the effective run and no precedence is resolved here.
* plan ``name`` fields are kept conservatively: they are display-only
  today, but hashing them costs only a missed dedup, never a wrong
  cache hit.

Values must be plain data (bool/int/float/str/None, mappings,
sequences) — anything else raises a one-line :class:`ConfigError`
rather than hashing an unstable ``repr``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from typing import Any, Dict, List, Mapping, Optional

from ..core.config import RuntimeConfig
from ..errors import ConfigError

__all__ = [
    "default_ppn",
    "canonical_spec",
    "canonical_json",
    "spec_description",
    "spec_hash",
    "spec_identity",
]

#: Bump when the canonical layout changes incompatibly — persisted
#: caches keyed on the old layout then miss cleanly instead of
#: colliding.
_CANONICAL_VERSION = 2

#: Hex digits of the full hash appended to :func:`spec_identity`
#: strings (48 bits — collision-free at any realistic sweep size).
_IDENTITY_DIGEST_CHARS = 12

#: Seeds other than the default show up in :func:`spec_description`.
_DEFAULT_SEED = RuntimeConfig.seed


def default_ppn(testbed: str) -> int:
    """The ppn ``execute`` uses when the spec leaves it ``None``."""
    return 8 if testbed == "A" else 16


def _plain(value: Any, where: str) -> Any:
    """Recursively reduce ``value`` to JSON-canonical plain data."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for k in value:
            if not isinstance(k, str):
                raise ConfigError(
                    f"JobSpec content hash: {where} has non-string key {k!r}"
                )
            out[k] = _plain(value[k], f"{where}.{k}")
        return out
    if isinstance(value, (list, tuple)):
        return [_plain(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # App params may hold frozen config dataclasses (e.g. a NAS
        # problem class); fold them to their fields, tagged with the
        # type so same-shaped configs of different types stay distinct.
        out = {"__type__": type(value).__qualname__}
        for f in dataclasses.fields(value):
            out[f.name] = _plain(getattr(value, f.name),
                                 f"{where}.{f.name}")
        return out
    raise ConfigError(
        f"JobSpec content hash: {where} holds unhashable value {value!r} "
        f"of type {type(value).__name__}; specs must carry plain data"
    )


def canonical_spec(spec: Any) -> Dict[str, Any]:
    """The canonical plain-data form of a spec (what gets hashed).

    Deterministic, JSON-serialisable, and label-free; see the module
    docstring for the folding rules.
    """
    app = spec.app
    app_type = f"{type(app).__module__}.{type(app).__qualname__}"
    params = {
        k: _plain(v, f"app.{k}") for k, v in sorted(vars(app).items())
    }
    overrides = spec.cost_overrides
    overrides_c: Optional[List[List[Any]]] = (
        None if not overrides
        else [[k, _plain(v, f"cost_overrides.{k}")] for k, v in overrides]
    )
    return {
        "v": _CANONICAL_VERSION,
        "app": {"type": app_type, "params": params},
        "npes": spec.npes,
        "testbed": spec.testbed,
        "ppn": spec.ppn if spec.ppn is not None else default_ppn(spec.testbed),
        "cost_overrides": overrides_c,
        "config": _plain(spec.config, "config"),
    }


def canonical_json(spec: Any) -> str:
    """The canonical form as compact, key-sorted JSON (the hash input)."""
    try:
        return json.dumps(
            canonical_spec(spec), sort_keys=True,
            separators=(",", ":"), allow_nan=False,
        )
    except ValueError as exc:  # NaN/Inf have no canonical JSON form
        raise ConfigError(
            f"JobSpec content hash: non-finite float in spec: {exc}"
        ) from exc


def spec_hash(spec: Any) -> str:
    """SHA-256 hex digest of the canonical spec — the result-cache key."""
    return hashlib.sha256(canonical_json(spec).encode("ascii")).hexdigest()


def spec_description(spec: Any) -> str:
    """The descriptive (not collision-free) name of a spec: app, size,
    design point, testbed, plus a tag for every armed opt-in of the
    effective config.  ``JobSpec.key`` shows it when no ``label`` is
    set; :func:`spec_identity` prefixes its hash with it."""
    config = spec.config
    app_name = getattr(spec.app, "name", type(spec.app).__name__)
    parts = [app_name, f"n{spec.npes}", config.label, f"tb{spec.testbed}"]
    if spec.ppn is not None:
        parts.append(f"ppn{spec.ppn}")
    if config.seed != _DEFAULT_SEED:
        parts.append(f"seed{config.seed}")
    if config.observe:
        parts.append("obs" if config.observe is True else "obs-tl")
    if config.fault_plan is not None:
        parts.append("faults")
    if config.check is not None:
        parts.append("check")
    if config.lifecycle is not None:
        parts.append("lifecycle")
    if spec.cost_overrides:
        parts.append("co")
    if config.macro_phases:
        parts.append("macro")
    return "-".join(parts)


def spec_identity(spec: Any) -> str:
    """Collision-free human-readable identity (never the ``label``).

    :func:`spec_description` plus the first 12 hex chars of
    :func:`spec_hash`, so error messages and progress lines always
    distinguish specs that differ *anywhere* semantic — including
    ``cost_overrides`` and config fields the description elides.
    """
    return (f"{spec_description(spec)}"
            f"#{spec_hash(spec)[:_IDENTITY_DIGEST_CHARS]}")
