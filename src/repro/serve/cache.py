"""The content-addressed result cache: memory + disk tiers, LRU budget.

Every entry is keyed by :func:`repro.exec.spec_hash` — a collision-free
digest of the spec's semantic content — and holds the *pickled bytes*
of the :class:`~repro.core.metrics.JobResult` a fresh run of that spec
produces.  Because a JobSpec fully determines its result, a cache hit
is provably exact: ``cache.get(spec)`` returns an object whose pickle
serialisation is byte-identical to a fresh ``execute(spec)``'s
(``tests/serve/test_exactness.py`` asserts this literally).

Two tiers:

* **memory** — an LRU dict of pickled payloads under a byte budget.
  Storing bytes (not live objects) keeps hits aliasing-free: every
  ``get`` unpickles a fresh object graph, so a caller mutating its
  result can never corrupt the cache.
* **disk** — an optional content-addressed directory
  (``objects/<hh>/<hash>.pkl`` + ``index.json``), written through on
  every ``put`` so the cache survives process restarts and is
  shareable between processes.  Its own byte budget evicts
  least-recently-*written* entries.

Store/hit/miss/eviction counts live in a plain
:class:`repro.sim.trace.Counters`, like every other count in the
repro; :meth:`ResultCache.stats` reports them with the tier occupancy.
"""

from __future__ import annotations

import json
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from ..exec import JobSpec, spec_hash
from ..sim import Counters

__all__ = ["ResultCache", "PICKLE_PROTOCOL", "canonical_payload"]

#: Pinned so payload bytes are stable across interpreter minor versions
#: that share a pickle implementation; the byte-identity guarantee is
#: always *within* one interpreter, the pin just avoids gratuitous
#: cross-version churn in persisted caches.
PICKLE_PROTOCOL = 4

#: The counts :meth:`ResultCache.stats` reports; one never recorded is 0.
_COUNTS = ("stores", "hits_memory", "hits_disk", "misses",
           "evictions_memory", "evictions_disk")

_INDEX_NAME = "index.json"
_OBJECTS_DIR = "objects"


def canonical_payload(result: Any) -> bytes:
    """The canonical pickled form of a result — the cached bytes.

    A plain ``pickle.dumps`` is sensitive to the object graph's
    *sharing* structure, which differs between an in-process result
    and the same result after crossing a pool-worker pickle boundary
    (unpickling interns instance-dict keys, merging equal strings that
    were distinct objects in the fresh graph).  One dump/load/dump
    round-trip normalises the sharing to the unpickler's canonical
    form — a fixed point, so results from either path serialise to
    identical bytes and the byte-identity gate is meaningful.
    """
    raw = pickle.dumps(result, protocol=PICKLE_PROTOCOL)
    return pickle.dumps(pickle.loads(raw), protocol=PICKLE_PROTOCOL)


def _resolve_key(spec_or_hash: Any) -> str:
    if isinstance(spec_or_hash, str):
        return spec_or_hash
    if isinstance(spec_or_hash, JobSpec):
        return spec_hash(spec_or_hash)
    raise ConfigError(
        f"ResultCache keys are JobSpecs or hash strings, "
        f"got {spec_or_hash!r}"
    )


def _entry_meta(spec: JobSpec, payload: bytes, result: Any) -> Dict[str, Any]:
    """Queryable metadata stored alongside the payload."""
    app = spec.app
    return {
        "app": getattr(app, "name", type(app).__name__),
        "npes": spec.npes,
        "config_label": spec.config.label,
        "testbed": spec.testbed,
        "ppn": spec.ppn,
        "macro": bool(getattr(result, "macro", False)),
        "wall_time_us": float(getattr(result, "wall_time_us", 0.0)),
        "size": len(payload),
    }


class ResultCache:
    """Content-addressed JobResult store (see module docstring).

    ``path=None`` runs memory-only; with a path, every ``put`` writes
    through to disk and a fresh instance on the same path starts warm.
    """

    def __init__(
        self,
        path: Optional[Any] = None,
        memory_budget: int = 64 * 1024 * 1024,
        disk_budget: Optional[int] = None,
    ) -> None:
        if memory_budget < 0:
            raise ConfigError(
                f"ResultCache.memory_budget must be >= 0, "
                f"got {memory_budget}"
            )
        if disk_budget is not None and disk_budget < 0:
            raise ConfigError(
                f"ResultCache.disk_budget must be >= 0 or None, "
                f"got {disk_budget}"
            )
        self.memory_budget = memory_budget
        self.disk_budget = disk_budget
        self.counters = Counters()
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._memory_bytes = 0
        #: hash -> metadata for every entry in either tier, in
        #: least-recently-written order (the disk eviction order).
        self._meta: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: hashes currently present on disk.
        self._on_disk: Dict[str, bool] = {}
        self._path = Path(path) if path is not None else None
        if self._path is not None:
            (self._path / _OBJECTS_DIR).mkdir(parents=True, exist_ok=True)
            self._load_index()

    # -- persistence ----------------------------------------------------
    def _index_path(self) -> Path:
        return self._path / _INDEX_NAME

    def _object_path(self, key: str) -> Path:
        return self._path / _OBJECTS_DIR / key[:2] / f"{key}.pkl"

    def _load_index(self) -> None:
        index = self._index_path()
        if not index.exists():
            return
        try:
            entries = json.loads(index.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"ResultCache: corrupt index {index}: {exc}"
            ) from exc
        for key, meta in entries.items():
            if self._object_path(key).exists():
                self._meta[key] = meta
                self._on_disk[key] = True

    def _write_index(self) -> None:
        if self._path is None:
            return
        on_disk = {
            key: meta for key, meta in self._meta.items()
            if self._on_disk.get(key)
        }
        self._index_path().write_text(
            json.dumps(on_disk, sort_keys=False, indent=0)
        )

    # -- tier plumbing --------------------------------------------------
    def _memory_insert(self, key: str, payload: bytes) -> None:
        if key in self._memory:
            self._memory.move_to_end(key)
            return
        if len(payload) > self.memory_budget:
            # Payload alone overflows the tier; skip it rather than
            # evicting everything for a transient resident.
            return
        self._memory[key] = payload
        self._memory_bytes += len(payload)
        while self._memory_bytes > self.memory_budget:
            victim, victim_payload = self._memory.popitem(last=False)
            self._memory_bytes -= len(victim_payload)
            self.counters.add("evictions_memory")
            if not self._on_disk.get(victim):
                # Memory was the only copy: the entry leaves the cache.
                self._meta.pop(victim, None)

    def _disk_insert(self, key: str, payload: bytes) -> None:
        if self._path is None:
            return
        obj = self._object_path(key)
        obj.parent.mkdir(parents=True, exist_ok=True)
        obj.write_bytes(payload)
        self._on_disk[key] = True
        if self.disk_budget is not None:
            disk_bytes = sum(
                meta["size"] for k, meta in self._meta.items()
                if self._on_disk.get(k)
            )
            for victim in list(self._meta):
                if disk_bytes <= self.disk_budget:
                    break
                if victim == key or not self._on_disk.get(victim):
                    continue
                disk_bytes -= self._meta[victim]["size"]
                self._evict_disk(victim)
        self._write_index()

    def _evict_disk(self, key: str) -> None:
        self._object_path(key).unlink(missing_ok=True)
        self._on_disk[key] = False
        self.counters.add("evictions_disk")
        if key not in self._memory:
            self._meta.pop(key, None)

    # -- public API -----------------------------------------------------
    def put(self, spec: JobSpec, result: Any,
            payload: Optional[bytes] = None) -> str:
        """Store ``result`` under ``spec``'s content hash; returns it.

        ``payload`` (the canonical pickled bytes) may be passed when
        the caller already serialised the result — e.g. exactness
        tests comparing against a worker's wire bytes.
        """
        key = spec_hash(spec)
        if payload is None:
            payload = canonical_payload(result)
        fresh = key not in self._meta
        self._meta[key] = _entry_meta(spec, payload, result)
        if fresh:
            self.counters.add("stores")
        self._memory_insert(key, payload)
        self._disk_insert(key, payload)
        return key

    def get_bytes(self, spec_or_hash: Any) -> Optional[bytes]:
        """The stored payload bytes, or ``None`` on a miss.

        A hit promotes the entry to the memory tier's MRU end; counters
        record which tier served it.
        """
        key = _resolve_key(spec_or_hash)
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            self.counters.add("hits_memory")
            return payload
        if self._on_disk.get(key):
            obj = self._object_path(key)
            try:
                payload = obj.read_bytes()
            except OSError:
                # The file vanished under us (external cleanup);
                # treat as a miss and drop the stale index entry.
                self._on_disk[key] = False
                self._meta.pop(key, None)
                self._write_index()
                self.counters.add("misses")
                return None
            self.counters.add("hits_disk")
            self._memory_insert(key, payload)
            return payload
        self.counters.add("misses")
        return None

    def get(self, spec_or_hash: Any) -> Optional[Any]:
        """The cached :class:`JobResult` (a fresh unpickled object
        graph on every call), or ``None`` on a miss."""
        payload = self.get_bytes(spec_or_hash)
        if payload is None:
            return None
        return pickle.loads(payload)

    def contains(self, spec_or_hash: Any) -> bool:
        """Membership without touching hit/miss counters or LRU order."""
        key = _resolve_key(spec_or_hash)
        return key in self._memory or bool(self._on_disk.get(key))

    __contains__ = contains

    def metadata(self, spec_or_hash: Any) -> Optional[Dict[str, Any]]:
        """The queryable metadata for one entry (None on a miss)."""
        meta = self._meta.get(_resolve_key(spec_or_hash))
        return dict(meta) if meta is not None else None

    def hashes(self) -> List[str]:
        """Every resident hash, least-recently-written first."""
        return [
            k for k in self._meta
            if k in self._memory or self._on_disk.get(k)
        ]

    def entries(self) -> List[Dict[str, Any]]:
        """``metadata() + {"hash": ...}`` for every resident entry."""
        return [
            {"hash": k, **self._meta[k]} for k in self.hashes()
        ]

    def __len__(self) -> int:
        return len(self.hashes())

    def evict_memory(self) -> int:
        """Drop the whole memory tier (disk copies survive); returns
        the number of entries dropped.  Exercises the demote/refill
        path the exactness tests pin."""
        dropped = 0
        for victim in list(self._memory):
            payload = self._memory.pop(victim)
            self._memory_bytes -= len(payload)
            self.counters.add("evictions_memory")
            dropped += 1
            if not self._on_disk.get(victim):
                self._meta.pop(victim, None)
        return dropped

    def stats(self) -> Dict[str, Any]:
        """Flat counter/occupancy summary."""
        return {
            "entries": len(self),
            "memory_entries": len(self._memory),
            "memory_bytes": self._memory_bytes,
            "disk_entries": sum(1 for v in self._on_disk.values() if v),
            **{name: self.counters[name] for name in _COUNTS},
        }
