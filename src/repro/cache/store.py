"""Content-addressed artifact store: disk + in-memory LRU tiers.

Every on-disk entry is a JSON *envelope*::

    {"schema": SCHEMA_VERSION, "class": "<artifact class>",
     "key": "<sha256 hex>", "payload_sha256": "<sha256 hex>",
     "payload": {...}}

The envelope is re-verified on every load: wrong schema, wrong class,
key mismatch, payload-hash mismatch, truncation, or plain garbage all
*reject* the entry (counted, optionally reported to an observer) and
the caller falls back to the cold path — a cache entry can slow a run
down to cold speed, never change its result.

Writes go to a temp file in the same directory followed by
``os.replace``, so concurrent hunt workers sharing one cache directory
need no locks: readers either see a complete entry or none at all.
The in-memory tier is a per-process LRU over *decoded payloads* (and,
for the front-end class, live parsed modules), so repeated runs inside
one process skip even the JSON decode.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict

SCHEMA_VERSION = 1

# Artifact classes (subdirectory per class).
FRONTEND = "frontend"
ANALYSIS = "analysis"
CLASSES = (FRONTEND, ANALYSIS)
# Classes no engine writes any more.  Stores written by older versions
# still hold them; maintenance walks them so ``clear`` empties such a
# store and ``prune`` reclaims their bytes.
RETIRED = ("prepare", "jit")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hash_key(*parts) -> str:
    """Content hash over an arbitrary JSON-able key structure."""
    canon = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _canonical_payload(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def default_cache_dir() -> str:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def cache_disabled_by_env() -> bool:
    return bool(os.environ.get("REPRO_NO_CACHE"))


class CacheStats:
    __slots__ = ("hits", "misses", "rejects", "stores")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.rejects = 0
        self.stores = 0

    def snapshot(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "rejects": self.rejects, "stores": self.stores}


class CacheStore:
    """One cache directory (or memory-only when ``root`` is None), with
    a bounded per-process LRU in front of it.

    ``observer`` (obs.Observer or None) may be swapped at any time by
    the engine that currently owns the store; hit/miss/reject events and
    counters flow to whichever observer is attached when they happen.
    """

    def __init__(self, root: str | None, memory_entries: int = 256):
        self.root = os.path.abspath(root) if root else None
        self.memory_entries = memory_entries
        self._memory: OrderedDict[tuple[str, str], object] = OrderedDict()
        self.stats = CacheStats()
        self.observer = None

    # -- accounting ---------------------------------------------------------

    def note(self, outcome: str, artifact_class: str, key: str,
             tier: str) -> None:
        stats = self.stats
        if outcome == "hit":
            stats.hits += 1
        elif outcome == "miss":
            stats.misses += 1
        elif outcome == "reject":
            stats.rejects += 1
        else:
            stats.stores += 1
        obs = self.observer
        if obs is not None and obs.enabled:
            obs.counters[f"cache.{outcome}"] += 1
            obs.counters[f"cache.{artifact_class}.{outcome}"] += 1
            if outcome in ("hit", "miss", "reject"):
                obs.emit(f"cache-{outcome}", artifact=artifact_class,
                         key=key[:12], tier=tier)

    # -- memory tier --------------------------------------------------------

    def memory_get(self, artifact_class: str, key: str):
        """Fetch a live (decoded) object from the LRU, or None.  Does
        not count as a hit/miss on its own — callers that fall through
        to :meth:`get` get their accounting there."""
        entry = self._memory.get((artifact_class, key))
        if entry is not None:
            self._memory.move_to_end((artifact_class, key))
        return entry

    def memory_drop(self, artifact_class: str, key: str) -> None:
        self._memory.pop((artifact_class, key), None)

    def memory_put(self, artifact_class: str, key: str, value) -> None:
        memory = self._memory
        memory[(artifact_class, key)] = value
        memory.move_to_end((artifact_class, key))
        while len(memory) > self.memory_entries:
            memory.popitem(last=False)

    # -- disk tier ----------------------------------------------------------

    def _entry_path(self, artifact_class: str, key: str) -> str:
        return os.path.join(self.root, artifact_class, key[:2],
                            key + ".json")

    def fetch(self, artifact_class: str, key: str):
        """Uncounted lookup: (value, outcome, tier).  ``value`` is the
        memory-tier object or the verified disk payload; callers that
        need extra validation (the front end's include manifest) decide
        the final outcome themselves and report it via :meth:`note`."""
        cached = self.memory_get(artifact_class, key)
        if cached is not None:
            return cached, "hit", "memory"
        if self.root is None:
            return None, "miss", "memory"
        path = self._entry_path(artifact_class, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None, "miss", "disk"
        except (OSError, ValueError, UnicodeError):
            # Truncated mid-write by a crashed worker, or corrupted.
            return None, "reject", "disk"
        payload = self._verify(envelope, artifact_class, key)
        if payload is None:
            return None, "reject", "disk"
        return payload, "hit", "disk"

    def get(self, artifact_class: str, key: str):
        """Verified payload for ``key``, or None (miss or reject)."""
        value, outcome, tier = self.fetch(artifact_class, key)
        self.note(outcome, artifact_class, key, tier)
        if outcome != "hit":
            return None
        if tier == "disk":
            self.memory_put(artifact_class, key, value)
        return value

    def _verify(self, envelope, artifact_class: str, key: str):
        """Envelope checks: schema + class + key echo + payload hash.
        Any mismatch means the entry cannot be trusted — reject."""
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != SCHEMA_VERSION:
            return None
        if envelope.get("class") != artifact_class:
            return None
        if envelope.get("key") != key:
            return None
        payload = envelope.get("payload")
        if payload is None:
            return None
        digest = sha256_text(_canonical_payload(payload))
        if envelope.get("payload_sha256") != digest:
            return None
        return payload

    def put(self, artifact_class: str, key: str, payload,
            memory_value=None) -> None:
        """Store ``payload`` (JSON-safe) under ``key``; atomic on disk.
        ``memory_value`` (default: the payload) goes into the LRU —
        front-end callers pass the live parsed module instead."""
        self.memory_put(artifact_class, key,
                        payload if memory_value is None else memory_value)
        if self.root is None:
            return
        envelope = {
            "schema": SCHEMA_VERSION,
            "class": artifact_class,
            "key": key,
            "payload_sha256": sha256_text(_canonical_payload(payload)),
            "payload": payload,
        }
        path = self._entry_path(artifact_class, key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(envelope, handle)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache directory degrades the cache to
            # memory-only; it never fails the compile.
            return
        self.note("store", artifact_class, key, "disk")

    # -- maintenance (the `repro cache` subcommand) -------------------------

    def _class_dirs(self):
        """(class, directory) for each class directory on disk, the
        retired classes included."""
        if self.root is None:
            return
        for cls in CLASSES + RETIRED:
            class_dir = os.path.join(self.root, cls)
            if os.path.isdir(class_dir):
                yield cls, class_dir

    def disk_usage(self) -> dict:
        """Entry counts and byte totals per artifact class on disk (a
        retired class gets a row only while it still has a directory)."""
        usage = {cls: {"entries": 0, "bytes": 0} for cls in CLASSES}
        for cls, class_dir in self._class_dirs():
            row = usage.setdefault(cls, {"entries": 0, "bytes": 0})
            for dirpath, _dirnames, filenames in os.walk(class_dir):
                for name in filenames:
                    if not name.endswith(".json"):
                        continue
                    try:
                        size = os.path.getsize(
                            os.path.join(dirpath, name))
                    except OSError:
                        continue
                    row["entries"] += 1
                    row["bytes"] += size
        return usage

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-touched disk entries until the store
        fits ``max_bytes``; returns the number removed.

        An always-on service grows the store without bound (every
        distinct submission adds entries); pruning by mtime keeps the
        warm working set while bounding disk.  Eviction can never
        change results — a pruned entry is simply a future miss — and
        the matching memory-tier entries are dropped too so a pruned
        artifact does not linger in one process's LRU forever."""
        entries = []
        total = 0
        for cls, class_dir in self._class_dirs():
            for dirpath, _dirnames, filenames in os.walk(class_dir):
                for name in filenames:
                    if not name.endswith(".json"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        stat = os.stat(path)
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size, path,
                                    cls, name[:-len(".json")]))
                    total += stat.st_size
        if total <= max_bytes:
            return 0
        removed = 0
        for _mtime, size, path, cls, key in sorted(entries):
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            self.memory_drop(cls, key)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        self._memory.clear()
        removed = 0
        for _cls, class_dir in self._class_dirs():
            for dirpath, _dirnames, filenames in os.walk(class_dir,
                                                         topdown=False):
                for name in filenames:
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
                try:
                    os.rmdir(dirpath)
                except OSError:
                    pass
        return removed
