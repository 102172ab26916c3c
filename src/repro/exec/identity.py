"""The name of a :class:`~repro.exec.JobSpec`.

:func:`spec_identity` is a spec's one name: the readable
:func:`spec_description` plus a short digest of the spec's semantic
content, so ``SweepError`` and progress lines never confuse two specs
that differ anywhere semantic, including in ``cost_overrides`` and in
config fields the description elides.  ``label`` is display-only and
never part of it.

The digest covers the app's type and parameters, ``npes``, testbed,
``ppn``, ``cost_overrides`` and every field of the
:class:`~repro.core.RuntimeConfig`, read from ``dataclasses.fields`` so
a new field can never be left out.  Nothing is folded here:
``RuntimeConfig`` and ``JobSpec`` already fold their trivially aliased
spellings (empty plans, ``check=True``, the observe spellings, a
mapping of overrides) when they are built.

Values must be plain data (bool/int/float/str/None, mappings,
sequences, dataclasses of those) with finite floats; anything else
raises a one-line :class:`ConfigError` rather than digesting an
unstable ``repr``.  ``JobSpec`` names itself at construction, so a spec
that exists always has a name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from typing import Any, Dict, Mapping

from ..core.config import RuntimeConfig
from ..errors import ConfigError

__all__ = ["spec_description", "spec_identity"]

#: Hex digits of the SHA-256 digest appended to :func:`spec_identity`
#: strings (48 bits — collision-free at any realistic sweep size).
_IDENTITY_DIGEST_CHARS = 12

#: Seeds other than the default show up in :func:`spec_description`.
_DEFAULT_SEED = RuntimeConfig.seed


def _plain(value: Any, where: str) -> Any:
    """Recursively reduce ``value`` to JSON-canonical plain data."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"JobSpec identity: {where} is {value}")
        return value
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for k in value:
            if not isinstance(k, str):
                raise ConfigError(
                    f"JobSpec identity: {where} has non-string key {k!r}"
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
        f"JobSpec identity: {where} holds non-plain value "
        f"of type {type(value).__name__}; specs must carry plain data"
    )


def _digest(spec: Any) -> str:
    """SHA-256 hex digest of the spec's canonical, key-sorted JSON form
    (label-free)."""
    app = spec.app
    canonical = {
        "app": {
            "type": f"{type(app).__module__}.{type(app).__qualname__}",
            "params": _plain(vars(app), "app"),
        },
        "npes": spec.npes,
        "testbed": spec.testbed,
        "ppn": spec.ppn,
        "cost_overrides": _plain(spec.cost_overrides, "cost_overrides"),
        "config": _plain(spec.config, "config"),
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def spec_description(spec: Any) -> str:
    """The descriptive (not collision-free) name of a spec: app, size,
    design point, testbed, plus a tag for every armed opt-in of the
    effective config.  :func:`spec_identity` appends a digest to it."""
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
    """Collision-free human-readable identity (never the ``label``):
    :func:`spec_description`, ``#``, and the first 12 hex chars of the
    spec's content digest."""
    return (f"{spec_description(spec)}"
            f"#{_digest(spec)[:_IDENTITY_DIGEST_CHARS]}")
